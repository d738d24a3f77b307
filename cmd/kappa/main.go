// Command kappa partitions a graph with the KaPPa partitioner.
//
// The input is a graph file (METIS text or binary .bgraph, format sniffed)
// or a named synthetic generator. Examples:
//
//	kappa -in mesh.graph -k 16 -preset strong -out mesh.part
//	kappa -gen rgg:15 -k 64 -preset fast
//	kappa -gen road:40000 -k 8 -eps 0.05 -seed 7
//	kappa -gen grid3d:32x32x8 -k 8 -progress -timeout 30s
//
// The serve/worker subcommands run the out-of-process backend — one
// coordinator plus one worker process per PE, byte-identical to the
// in-process `-coarsen distributed` run at the same seed:
//
//	kappa serve -in mesh.graph -k 8 -pes 2 -listen 127.0.0.1:2177 &
//	kappa worker -connect 127.0.0.1:2177 &
//	kappa worker -connect 127.0.0.1:2177
//
// The shard subcommand writes an out-of-core shard store that serve streams
// without holding the global graph in memory — same partition, same report:
//
//	kappa shard -in mesh.graph -pe 8 -dist rcb -o mesh.kst
//	kappa serve -shards mesh.kst -k 8 -listen 127.0.0.1:2177
//
// Configuration errors (bad preset, bad flag values, invalid parameter
// combinations) exit 2; runtime errors (missing files, exceeded -timeout)
// exit 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/part"
)

// stopProfiles flushes any active pprof output; it must run before every
// exit path, including failures — os.Exit skips defers, and a truncated CPU
// profile on a timed-out run is useless in exactly the situation the flag
// exists for.
var stopProfiles = func() {}

// fail prints the message and exits: usage and configuration errors exit 2
// (the Unix convention flag.Parse also follows), runtime errors exit 1.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "kappa:", err)
	stopProfiles()
	if errors.Is(err, core.ErrInvalidConfig) {
		os.Exit(2)
	}
	os.Exit(1)
}

func main() {
	// Subcommands: `kappa serve` runs the out-of-process coordinator,
	// `kappa worker` one PE process, `kappa api` the partitioner-as-a-service
	// daemon. Everything else is the classic single-process flag interface.
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve":
			runServe(os.Args[2:])
			return
		case "worker":
			runWorker(os.Args[2:])
			return
		case "api":
			runAPI(os.Args[2:])
			return
		case "shard":
			runShard(os.Args[2:])
			return
		}
	}
	var jf jobFlags
	jf.register(flag.CommandLine, "number of simulated PEs for coarsening (default: k)")
	flag.StringVar(&jf.spec.Coarsen, "coarsen", "shared", "coarsening mode: shared | distributed")
	flag.IntVar(&jf.spec.Workers, "workers", 0, "goroutines for the data-parallel kernels (parallel contraction); 0 = GOMAXPROCS, 1 = serial. Results are identical for every value")
	var (
		eval     = flag.String("eval", "", "evaluate (and refine) an existing partition file instead of partitioning from scratch; block ids are validated against -k")
		progress = flag.Bool("progress", false, "print pipeline trace events (levels, init cut, refinement gains, phase times) to stderr")
		timeout  = flag.Duration("timeout", 0, "abort the run after this duration (e.g. 30s); 0 = no limit")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a pprof heap profile (after the run, post-GC) to this file")
	)
	var ob obsFlags
	ob.register(flag.CommandLine)
	flag.Parse()

	if *cpuProf != "" || *memProf != "" {
		var cpuFile *os.File
		if *cpuProf != "" {
			f, err := os.Create(*cpuProf)
			if err != nil {
				fail(err)
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				fail(err)
			}
			cpuFile = f
		}
		memPath := *memProf
		done := false
		stopProfiles = func() {
			if done {
				return
			}
			done = true
			if cpuFile != nil {
				pprof.StopCPUProfile()
				cpuFile.Close()
			}
			if memPath != "" {
				f, err := os.Create(memPath)
				if err != nil {
					fmt.Fprintln(os.Stderr, "kappa:", err)
					return
				}
				defer f.Close()
				runtime.GC() // report live allocations, not garbage
				if err := pprof.WriteHeapProfile(f); err != nil {
					fmt.Fprintln(os.Stderr, "kappa:", err)
				}
			}
		}
		defer stopProfiles()
	}

	in, err := jf.spec.Build("")
	if err != nil {
		fail(err)
	}
	g, cfg := in.Graph, in.Config

	ctx, cancel := runContext(*timeout)
	defer cancel()
	var opts []core.Option
	if *progress {
		opts = append(opts, progressOption())
	}
	runObs, obsOpts, err := ob.setup(g, cfg)
	if err != nil {
		fail(err)
	}
	opts = append(opts, obsOpts...)

	if *eval != "" {
		f, err := os.Open(*eval)
		if err != nil {
			fail(err)
		}
		blocks, err := graphio.ReadPartition(f, g.NumNodes(), cfg.K)
		f.Close()
		if err != nil {
			fail(err)
		}
		cut, bal, feasible := evalBlocks(g, cfg, blocks)
		fmt.Printf("input partition: cut=%d balance=%.4f feasible=%v\n", cut, bal, feasible)
		refined, rcut, err := core.RefineExisting(ctx, g, cfg, blocks, opts...)
		if err != nil {
			fail(err)
		}
		_, rbal, rfeasible := evalBlocks(g, cfg, refined)
		fmt.Printf("after refining:  cut=%d balance=%.4f feasible=%v\n", rcut, rbal, rfeasible)
		if jf.out != "" {
			if err := savePartition(jf.out, refined); err != nil {
				fail(err)
			}
		}
		return
	}

	res, err := core.Run(ctx, g, cfg, opts...)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			fail(fmt.Errorf("run exceeded -timeout %v: %v", *timeout, err))
		}
		if errors.Is(err, context.Canceled) && ctx.Err() != nil {
			fail(fmt.Errorf("interrupted: %v", err))
		}
		fail(err)
	}
	if err := runObs.finish(res); err != nil {
		fail(err)
	}
	sum := ob.summaryWriter()
	fmt.Fprintf(sum, "graph     n=%d m=%d\n", g.NumNodes(), g.NumEdges())
	fmt.Fprintf(sum, "preset    %s (k=%d, eps=%.2f, dist=%s, coarsen=%s)\n", in.Variant, cfg.K, cfg.Eps, cfg.Distribution, cfg.Coarsen)
	if err := jf.report(sum, in, res); err != nil {
		fail(err)
	}
}

func evalBlocks(g *graph.Graph, cfg core.Config, blocks []int32) (int64, float64, bool) {
	p := part.FromBlocks(g, cfg.K, cfg.Eps, blocks)
	return p.Cut(), p.Imbalance(), p.Feasible()
}
