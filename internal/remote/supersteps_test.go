package remote_test

import (
	"context"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/remote"
)

// inProcessSupersteps runs cfg in-process with distributed coarsening and
// returns every PE's metered superstep count.
func inProcessSupersteps(t *testing.T, g *graph.Graph, cfg core.Config) []int64 {
	t.Helper()
	stats := dist.NewTransportStats(cfg.NumPEs())
	if _, err := core.Run(context.Background(), g, cfg, core.WithTransportStats(stats)); err != nil {
		t.Fatal(err)
	}
	return supersteps(stats)
}

func supersteps(stats *dist.TransportStats) []int64 {
	var out []int64
	for _, st := range stats.Snapshot() {
		out = append(out, st.Supersteps)
	}
	return out
}

// TestServeSuperstepsMatchInProcess pins that every backend runs the same
// per-PE level program: the in-process goroutine PEs, the socket workers
// behind Serve and the socket workers behind ServeStore take exactly the
// same supersteps per PE — including the empty-matching vote of every
// attempted level — on the same graph and configuration.
func TestServeSuperstepsMatchInProcess(t *testing.T) {
	cfg := core.NewConfig(core.Fast, 8)
	cfg.Seed = 7
	cfg.PEs = 2
	cfg.Coarsen = core.CoarsenDistributed

	t.Run("serve", func(t *testing.T) {
		g := gen.RGG(12, 1)
		want := inProcessSupersteps(t, g, cfg)
		_, stats := serveReport(t, g, cfg)
		if got := supersteps(stats); !slices.Equal(got, want) {
			t.Fatalf("Serve supersteps per PE %v, in-process %v", got, want)
		}
	})

	t.Run("servestore", func(t *testing.T) {
		g := gen.RGG(12, 5)
		cfg := cfg
		cfg.Distribution = dist.StrategyRCB
		want := inProcessSupersteps(t, g, cfg)
		st := writeTestStore(t, g, cfg.PEs, dist.StrategyRCB)
		stats := dist.NewTransportStats(cfg.PEs)
		runServeStoreWorkers(t, st, cfg, remote.ServeOptions{Stats: stats})
		if got := supersteps(stats); !slices.Equal(got, want) {
			t.Fatalf("ServeStore supersteps per PE %v, in-process %v", got, want)
		}
	})
}
