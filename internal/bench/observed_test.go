package bench

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/mem"
	"repro/internal/obs"
)

// TestObservedMatchesUnobserved pins that attaching the full metric stack —
// the pipeline metric observer, a metered transport and arena gauges —
// changes nothing about the partitions: observed runs reproduce the
// unobserved harness rows exactly, and the registry ends up populated.
func TestObservedMatchesUnobserved(t *testing.T) {
	g := gen.RGG(10, 1)
	cfg := core.NewConfig(core.Fast, 8)
	cfg.Coarsen = core.CoarsenDistributed
	const reps = 2

	plain := RunKaPPa(g, cfg, reps)

	reg := obs.NewRegistry()
	arena := mem.NewArena()
	stats := dist.NewTransportStats(cfg.NumPEs())
	obs.BindTransport(reg, stats)
	obs.BindArena(reg, arena)
	observer := obs.NewPipelineObserver(reg)
	var observed Row
	var totalCut, totalBal float64
	for i := 0; i < reps; i++ {
		cfg.Seed = uint64(i)*0x5bd1e995 + 7 // RunKaPPa's seed sequence
		res := mustRun(g, cfg,
			core.WithObserver(observer),
			core.WithTransportStats(stats),
			core.WithArena(arena))
		obs.RecordResult(reg, res)
		totalCut += float64(res.Cut)
		totalBal += res.Balance
		if i == 0 || res.Cut < observed.BestCut {
			observed.BestCut = res.Cut
		}
	}
	observed.AvgCut = totalCut / reps
	observed.AvgBal = totalBal / reps

	if plain.AvgCut != observed.AvgCut || plain.BestCut != observed.BestCut || plain.AvgBal != observed.AvgBal {
		t.Fatalf("observed run diverged: cut %v/%v vs %v/%v", observed.AvgCut, observed.BestCut, plain.AvgCut, plain.BestCut)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"kappa_runs_total 2", "kappa_transport_supersteps_total", "kappa_arena_borrows_total"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("registry missing %q after observed runs:\n%s", want, sb.String())
		}
	}
}
