package main

// metricDef names one reported metric and its unit. The lists below are the
// metric sets of BENCHMARK.json at the repository root, in its order; a
// test keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd is reported with --trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"pass_s", "s"},
	{"job_latency_p50_s", "s"},
	{"job_latency_p90_s", "s"},
	{"jobs_per_s", "1/s"},
	{"cut_geomean", "edges"},
	{"balance_max", "ratio"},
	{"success_frac", "frac"},
	{"peak_heap_mb", "MB"},
	{"alloc_mb_per_req", "MB"},
}

// perLayerMetrics is reported with --trace 1.
var perLayerMetrics = []metricDef{
	{"core.coarsen_s", "s"},
	{"core.init_s", "s"},
	{"core.refine_s", "s"},
	{"core.phase_coverage", "frac"},
	{"core.coarsen_speedup_2v1", "x"},
	{"core.refine_speedup_2v1", "x"},
	{"dist.assign_s", "s"},
	{"dist.assign_calls", "count"},
	{"matching.match_s", "s"},
	{"coarsen.contract_s", "s"},
	{"coarsen.level_other_s", "s"},
	{"coarsen.levels", "count"},
	{"coarsen.coarsest_nodes", "count"},
	{"initpart.init_cut", "edges"},
	{"refine.iterations", "count"},
	{"refine.useful_ratio", "frac"},
	{"refine.gain", "edges"},
	{"refine.finest_s", "s"},
	{"refine.tail_s", "s"},
	{"dist.supersteps", "count"},
	{"dist.msgs", "count"},
	{"dist.bytes", "bytes"},
	{"dist.barrier_s", "s"},
	{"dist.barrier_skew_s", "s"},
	{"remote.worker_failures", "count"},
	{"remote.level_retries", "count"},
	{"remote.shards_streamed", "count"},
	{"store.write_s", "s"},
	{"store.open_s", "s"},
	{"mem.arena_reuse_ratio", "frac"},
	{"mem.arena_alloc_mb", "MB"},
	{"svc.queue_s_p50", "s"},
	{"svc.run_s_p50", "s"},
	{"svc.overhead_s_p50", "s"},
	{"svc.rejected", "count"},
	{"graphio.read_s", "s"},
	{"gen.generate_s", "s"},
	{"process.cpu_util", "cores"},
	{"bench.trace_overhead_frac", "frac"},
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

// perLayer is the traced run's metric table. Timings and counts are per
// pass unless the name says otherwise (p50 over requests, per request, a
// ratio); a layer a workload does not reach reads 0.
type perLayer map[string]float64

// fromLayers fills the figures the pipeline trace yields; passes is the
// number of passes the traced requests make up.
func (p perLayer) fromLayers(l *layers, passes float64) {
	if l.requests == 0 || passes == 0 {
		return
	}
	reqs := float64(l.requests)
	p["core.coarsen_s"] = l.coarsenS / passes
	p["core.init_s"] = l.initS / passes
	p["core.refine_s"] = l.refineS / passes
	if l.rootS > 0 {
		p["core.phase_coverage"] = (l.coarsenS + l.initS + l.refineS) / l.rootS
	}
	p["dist.assign_s"] = l.assignS / passes
	p["dist.assign_calls"] = float64(l.assignN) / passes
	p["matching.match_s"] = l.matchS / passes
	p["coarsen.contract_s"] = l.contractS / passes
	p["coarsen.level_other_s"] = l.otherS / passes
	p["coarsen.levels"] = float64(l.levels) / reqs
	p["coarsen.coarsest_nodes"] = float64(l.coarsest) / reqs
	p["initpart.init_cut"] = geomean(l.initCuts)
	p["refine.iterations"] = float64(l.iterations) / passes
	if l.iterations > 0 {
		p["refine.useful_ratio"] = float64(l.useful) / float64(l.iterations)
	}
	p["refine.gain"] = float64(l.gain) / passes
	p["refine.finest_s"] = l.finestS / passes
	p["refine.tail_s"] = l.tailS / passes
	if l.arenaBorrows > 0 {
		p["mem.arena_reuse_ratio"] = float64(l.arenaReused) / float64(l.arenaBorrows)
	}
	p["mem.arena_alloc_mb"] = float64(l.arenaAlloc) / 1e6 / passes
	p["dist.supersteps"] = float64(l.supersteps) / passes
	p["dist.bytes"] = float64(l.bytes) / passes
	p["remote.worker_failures"] = float64(l.workerFailures) / passes
	p["remote.level_retries"] = float64(l.levelRetries) / passes
	p["remote.shards_streamed"] = float64(l.streams) / passes
	p["svc.queue_s_p50"] = median(l.svcQueue)
	p["svc.run_s_p50"] = median(l.svcRun)
	p["svc.overhead_s_p50"] = median(l.svcOverhead)
	p["svc.rejected"] = float64(l.rejected)
}
