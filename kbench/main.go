// Command kbench is the repository benchmark. It drives one workload of the
// partitioner through its public entry points — core.Run in-process,
// remote.ServeStore with in-process workers over loopback TCP, and the svc
// job API over loopback HTTP — verifies every partition it gets back, and
// prints one JSON result line:
//
//	bash kbench/run.sh --workload mesh --seed 1 --seconds 25 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// runs the same workload with the benchmark's own spans and counters around
// each layer and reports the per-layer metrics. README.md in this directory
// describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/graph"
)

// procs is the parallelism every workload runs at: the benchmark host has
// two cores.
const procs = 2

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("kbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, " | "))
	seed := fs.Uint64("seed", 1, "benchmark seed; every generator and partition seed derives from it")
	seconds := fs.Float64("seconds", 25, "measurement window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	out := fs.String("out", ".bench_build", "directory for scratch stores and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "kbench: --seconds must be > 0 and --trace 0 or 1")
		return 2
	}
	runtime.GOMAXPROCS(procs)
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "kbench:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(*out, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "kbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	w, err := newWorkload(*name, *seed, scratch)
	if err != nil {
		fmt.Fprintln(stderr, "kbench:", err)
		return 2
	}
	defer w.close()

	r := &runner{w: w, shape: w.shape(), traced: *trace == 1, stderr: stderr}
	res, err := r.execute(time.Duration(*seconds * float64(time.Second)))
	if err != nil {
		fmt.Fprintln(stderr, "kbench:", err)
		return 1
	}
	if r.traced {
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.json", *name, *seed))
		if err := r.spans.write(path); err != nil {
			fmt.Fprintln(stderr, "kbench: writing spans:", err)
			return 1
		}
		fmt.Fprintln(stderr, "spans written to", path)
	}
	r.printTable(res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "kbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		for _, f := range r.failures {
			fmt.Fprintln(stderr, "FAILED:", f)
		}
		return 1
	}
	return 0
}

// shape describes how a workload is driven.
type shape struct {
	passSize int // requests per pass
	clients  int // closed-loop clients
	minReqs  int // requests every run completes, whatever the window
}

// outcome is one finished partition request.
type outcome struct {
	key        string       // identity of the (instance, seed) pair
	g          *graph.Graph // graph to verify against
	claim      claim
	start, end time.Time
	err        error
	// root names the request's root span; children are spans the workload
	// timed inside it.
	root     string
	children []namedSpan
}

type namedSpan struct {
	name       string
	start, end time.Time
}

// workload is one benchmark scenario.
type workload interface {
	// setup builds the workload's inputs from scratch, replacing any
	// earlier set-up; the runner repeats it to take a median.
	setup(ctx context.Context, st *setupTimes) error
	shape() shape
	// do performs request i on the given client. tr is nil when untraced;
	// otherwise the workload feeds it the pipeline's trace events.
	do(ctx context.Context, client, i int, tr *reqTrace, lay *layers) outcome
	// probe runs once after the measured window of a traced run and adds
	// figures only a workload can take (transport, store, service).
	probe(ctx context.Context, pl perLayer) error
	close()
}

var workloadNames = []string{"mesh", "social", "serve-shards", "api"}

func newWorkload(name string, seed uint64, scratch string) (workload, error) {
	switch name {
	case "mesh":
		return newMesh(seed, scratch), nil
	case "social":
		return newSocial(seed), nil
	case "serve-shards":
		return newShards(seed, scratch), nil
	case "api":
		return newAPI(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(workloadNames, " | "))
}

// setupTimes collects the layer timings of one set-up.
type setupTimes struct {
	gen, storeWrite, storeOpen time.Duration
}

// record is the bookkeeping of one request in the measured window.
type record struct {
	key        string
	pass       int
	traced     bool
	start, end time.Time
}

type runner struct {
	w      workload
	shape  shape
	traced bool
	stderr io.Writer

	spans *spanLog
	lay   *layers // traced requests at procs cores
	lay1  *layers // the single-core traced pass

	mu        sync.Mutex
	records   []record
	refs      map[string]reference
	cuts      map[string]float64
	balMax    float64
	attempted int
	failed    int
	failures  []string
}

// result is the JSON line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	samples   map[string]int
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setupReps bounds the repeated set-ups: at least setupMin, and more while
// they add up to less than setupBudget, so cheap set-ups get a steadier
// median.
const (
	setupMin    = 3
	setupMax    = 15
	setupBudget = 3 * time.Second
)

func (r *runner) execute(window time.Duration) (*result, error) {
	ctx := context.Background()
	r.refs = make(map[string]reference)
	r.cuts = make(map[string]float64)
	r.spans = newSpanLog()
	r.lay = &layers{}
	r.lay1 = &layers{}

	var setups, gens, writes, opens []float64
	var total time.Duration
	for rep := 0; rep < setupMin || (rep < setupMax && total < setupBudget); rep++ {
		var st setupTimes
		t0 := time.Now()
		if err := r.w.setup(ctx, &st); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		total += d
		setups = append(setups, d.Seconds())
		gens = append(gens, st.gen.Seconds())
		writes = append(writes, st.storeWrite.Seconds())
		opens = append(opens, st.storeOpen.Seconds())
	}
	r.warmUp(ctx)
	runtime.GC()

	allocBefore := heapAllocated()
	cpuBefore := cpuTime()
	peak := startHeapPeak()
	loopStart := time.Now()
	r.loop(ctx, loopStart.Add(window), r.shape.minReqs, 0)
	loopWall := time.Since(loopStart)
	peakBytes := peak.done()
	cpuUsed := cpuTime() - cpuBefore
	allocBytes := heapAllocated() - allocBefore
	// Allocation is counted over the window only; the single-core pass and
	// the probes below are not part of it.
	requestsInWindow := len(r.records)

	res := &result{Metrics: map[string]metric{}, samples: map[string]int{}}
	if !r.traced {
		pass, passN := r.passTime(false)
		lat := keyMedians(r.latencies(false))
		cuts := make([]float64, 0, len(r.cuts))
		for _, c := range r.cuts {
			cuts = append(cuts, c)
		}
		set := func(name string, v float64, n int) {
			res.Metrics[name] = metric{v, unitOf(endToEnd, name)}
			res.samples[name] = n
		}
		set("setup_s", median(setups), len(setups))
		set("pass_s", pass, passN)
		set("job_latency_p50_s", quantile(lat, 0.5), len(lat))
		set("job_latency_p90_s", quantile(lat, 0.9), len(lat))
		set("jobs_per_s", float64(r.shape.passSize)/pass, passN)
		set("cut_geomean", geomean(cuts), len(cuts))
		set("balance_max", r.balMax, r.attempted)
		set("success_frac", float64(r.attempted-r.failed)/float64(max(r.attempted, 1)), r.attempted)
		set("peak_heap_mb", float64(peakBytes)/1e6, 1)
		set("alloc_mb_per_req", float64(allocBytes)/1e6/float64(max(requestsInWindow, 1)), requestsInWindow)
	} else {
		pl := perLayer{}
		pl.fromLayers(r.lay, float64(r.lay.requests)/float64(r.shape.passSize))
		pl["gen.generate_s"] = median(gens)
		pl["store.write_s"] = median(writes)
		pl["store.open_s"] = median(opens)
		pl["process.cpu_util"] = cpuUsed.Seconds() / loopWall.Seconds()
		if u, _ := r.passTime(false); u > 0 {
			t, _ := r.passTime(true)
			pl["bench.trace_overhead_frac"] = t/u - 1
		}

		// One more traced pass at a single core: the real 1-vs-2-core
		// numbers of the coarsening and refinement phases.
		runtime.GOMAXPROCS(1)
		r.loop(ctx, time.Time{}, r.shape.passSize, len(r.records))
		runtime.GOMAXPROCS(procs)
		if r.lay1.coarsenS > 0 && r.lay.coarsenS > 0 {
			perPass := float64(r.lay.requests) / float64(r.shape.passSize)
			pl["core.coarsen_speedup_2v1"] = r.lay1.coarsenS / (r.lay.coarsenS / perPass)
			pl["core.refine_speedup_2v1"] = r.lay1.refineS / (r.lay.refineS / perPass)
		}
		if err := r.w.probe(ctx, pl); err != nil {
			r.fail(fmt.Sprintf("probe: %v", err))
		}
		for _, m := range perLayerMetrics {
			res.Metrics[m.name] = metric{pl[m.name], m.unit}
			res.samples[m.name] = r.lay.requests
		}
	}
	res.Attempted = r.attempted
	res.Failed = r.failed
	res.Correct = r.failed == 0 && len(r.failures) == 0 && r.attempted > 0
	return res, nil
}

// loop drives the closed-loop clients: each takes the next request number,
// runs it, verifies it and records it, until the window has closed, at
// least minReqs requests were made and the current pass is complete. A zero
// until runs exactly minReqs requests. A non-zero first marks the
// single-core pass of a traced run: its requests are numbered on from the
// window's, all of them are traced, and they stay out of the window's
// records. In the window of a traced run every second pass is traced.
func (r *runner) loop(ctx context.Context, until time.Time, minReqs, first int) {
	var mu sync.Mutex
	next := first
	stopped := false
	take := func() int {
		mu.Lock()
		defer mu.Unlock()
		i := next - first
		if stopped || (i >= minReqs && i%r.shape.passSize == 0 && !time.Now().Before(until)) {
			stopped = true
			return -1
		}
		next++
		return next - 1
	}
	single := first > 0
	var wg sync.WaitGroup
	for c := 0; c < r.shape.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := take(); i >= 0; i = take() {
				pass := (i - first) / r.shape.passSize
				traced := r.traced && (single || pass%2 == 1)
				var tr *reqTrace
				lay := r.lay
				if single {
					lay = r.lay1
				}
				if traced {
					tr = &reqTrace{}
				}
				o := r.w.do(ctx, c, i, tr, lay)
				r.check(o)
				if traced {
					lay.absorb(r.spans, tr, o, i)
				}
				if !single {
					r.mu.Lock()
					r.records = append(r.records, record{key: o.key, pass: pass, traced: traced, start: o.start, end: o.end})
					r.mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
}

// check verifies one outcome and books it.
func (r *runner) check(o outcome) {
	err := o.err
	if err == nil {
		err = verify(o.g, o.claim)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err == nil {
		ref := reference{digest(o.claim.blocks), o.claim.cut, o.claim.balance}
		if first, ok := r.refs[o.key]; ok {
			err = first.same(ref)
		} else {
			r.refs[o.key] = ref
			r.cuts[o.key] = float64(o.claim.cut)
		}
	}
	if err != nil {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf("%s: %v", o.key, err))
		return
	}
	r.balMax = max(r.balMax, o.claim.balance)
}

func (r *runner) fail(msg string) {
	r.mu.Lock()
	r.failures = append(r.failures, msg)
	r.mu.Unlock()
}

// warmUp makes one request per client before the window opens, so the
// window starts with a grown heap and filled arenas. The requests are
// verified and their partitions become the references of later repeats, but
// they are not timed.
func (r *runner) warmUp(ctx context.Context) {
	var wg sync.WaitGroup
	for c := 0; c < r.shape.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r.check(r.w.do(ctx, c, c, nil, r.lay))
		}(c)
	}
	wg.Wait()
}

// latencies groups the latencies of the window's untraced or traced
// requests by request key.
func (r *runner) latencies(traced bool) map[string][]float64 {
	by := map[string][]float64{}
	for _, rec := range r.records {
		if rec.traced == traced {
			by[rec.key] = append(by[rec.key], rec.end.Sub(rec.start).Seconds())
		}
	}
	return by
}

// keyMedians returns the median latency of each request key: the latency
// of one distinct request with the host's noise between its repetitions
// taken out.
func keyMedians(by map[string][]float64) []float64 {
	keys := make([]string, 0, len(by))
	for k := range by {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	meds := make([]float64, len(keys))
	for i, k := range keys {
		meds[i] = median(by[k])
	}
	return meds
}

// passTime returns the time of one pass over the untraced or traced
// requests and the number of samples behind it. A single client makes its
// requests one after another, so its pass takes passSize times the mean
// per-request median latency: the medians keep a slow moment of the host
// from counting in more than one repetition of a request. With several
// clients the requests overlap, so the pass time is the median wall time
// of the complete passes.
func (r *runner) passTime(traced bool) (float64, int) {
	if r.shape.clients == 1 {
		by := r.latencies(traced)
		n := 0
		for _, xs := range by {
			n += len(xs)
		}
		meds := keyMedians(by)
		var sum float64
		for _, m := range meds {
			sum += m
		}
		if len(meds) == 0 {
			return 0, 0
		}
		return float64(r.shape.passSize) * sum / float64(len(meds)), n
	}
	untraced, tr := r.passTimes()
	if traced {
		return median(tr), len(tr)
	}
	return median(untraced), len(untraced)
}

// passTimes returns the wall time of every complete pass — from the first
// request's start to the last one's end — split into untraced and traced
// passes.
func (r *runner) passTimes() (untraced, traced []float64) {
	type window struct {
		start, end time.Time
		n          int
		traced     bool
	}
	by := map[int]*window{}
	for _, rec := range r.records {
		s := by[rec.pass]
		if s == nil {
			s = &window{start: rec.start, end: rec.end, traced: rec.traced}
			by[rec.pass] = s
		}
		if rec.start.Before(s.start) {
			s.start = rec.start
		}
		if rec.end.After(s.end) {
			s.end = rec.end
		}
		s.n++
	}
	keys := make([]int, 0, len(by))
	for k := range by {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		s := by[k]
		if s.n != r.shape.passSize {
			continue
		}
		if s.traced {
			traced = append(traced, s.end.Sub(s.start).Seconds())
		} else {
			untraced = append(untraced, s.end.Sub(s.start).Seconds())
		}
	}
	return untraced, traced
}

// printTable writes the metrics, their units and sample counts to stderr
// for a human reader.
func (r *runner) printTable(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(r.stderr, "attempted %d, failed %d\n", res.Attempted, res.Failed)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(r.stderr, "  %-28s %14.6g %-6s (n=%d)\n", n, m.Value, m.Unit, res.samples[n])
	}
}
