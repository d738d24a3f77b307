package repro_test

import (
	"context"
	"fmt"
	"time"

	"repro"
)

// ExampleRun shows the partitioning entry point: a context that can cancel the
// run (deadline, Ctrl-C, ...), an error instead of a panic on bad input,
// and optional functional options — here an Observer counting the typed
// trace events the pipeline emits while it works.
func ExampleRun() {
	g := repro.Grid2D(32, 32)
	cfg := repro.NewConfig(repro.Fast, 8) // KaPPa-Fast, k = 8
	cfg.Seed = 42

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	levels, refineIters := 0, 0
	obs := repro.ObserverFunc(func(ev repro.TraceEvent) {
		switch ev.(type) {
		case repro.LevelEvent:
			levels++ // one per pushed contraction level: nodes/edges/time
		case repro.RefineEvent:
			refineIters++ // one per global refinement iteration: gain
		}
	})

	res, err := repro.Run(ctx, g, cfg, repro.WithObserver(obs))
	if err != nil {
		fmt.Println("run failed:", err)
		return
	}
	cut, _, feasible := repro.Evaluate(g, 8, cfg.Eps, res.Blocks)
	fmt.Println("feasible:", feasible, "cut agrees:", cut == res.Cut)
	fmt.Println("observed levels:", levels == res.Levels)
	fmt.Println("observed refinement:", refineIters > 0)

	// Invalid configurations surface as errors, never panics:
	bad := cfg
	bad.K = 0
	if _, err := repro.Run(ctx, g, bad); err != nil {
		fmt.Println("bad config rejected:", err != nil)
	}

	// Output:
	// feasible: true cut agrees: true
	// observed levels: true
	// observed refinement: true
	// bad config rejected: true
}

// ExampleRun_transport swaps the message-passing backend of distributed
// coarsening through the Transport seam: the barrier-based lockstep
// transport stands in for the default channel Exchanger — the same slot a
// future RPC or MPI backend plugs into — without changing a single block
// assignment.
func ExampleRun_transport() {
	g := repro.Grid2D(32, 32)
	cfg := repro.NewConfig(repro.Fast, 8)
	cfg.Seed = 7
	cfg.Coarsen = repro.CoarsenDistributed // PE-local coarsening (§3)

	def, err := repro.Run(context.Background(), g, cfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	alt, err := repro.Run(context.Background(), g, cfg,
		repro.WithTransport(repro.NewLockstepTransport(8)))
	if err != nil {
		fmt.Println(err)
		return
	}
	same := def.Cut == alt.Cut
	for v := range def.Blocks {
		same = same && def.Blocks[v] == alt.Blocks[v]
	}
	fmt.Println("transports interchangeable:", same)

	// Output:
	// transports interchangeable: true
}
