package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mem"
)

// instance is one generator family at a fixed size; build makes the graph
// from a generator seed.
type instance struct {
	name  string
	build func(seed uint64) *graph.Graph
}

// runSpec is one (instance, seed) partition request of a batch workload.
type runSpec struct {
	key string
	g   *graph.Graph
	cfg core.Config
}

// batch is a one-client closed loop of in-process core.Run calls over a
// fixed list of requests: the mesh and social workloads. Each instance
// family is generated from several generator seeds and each graph is
// partitioned under every preset and partition seed, so one pass averages
// over the seed-to-seed variation of both cost and cut.
type batch struct {
	seed      uint64
	instances []instance
	graphs    int
	presets   []core.Variant
	seeds     int
	k         int
	arena     *mem.Arena // the client's scratch arena, reused across its runs
	specs     []runSpec
	// scratch, when set, is where the traced run's deployment probe writes
	// its shard store.
	scratch string
}

// newMesh is the mesh workload: geometric and road-like graphs under
// KaPPa-Fast, where coarsening (matching, contraction and RCB
// redistribution on every level) does most of the work.
func newMesh(seed uint64, scratch string) *batch {
	return &batch{
		seed:    seed,
		scratch: scratch,
		instances: []instance{
			{"rgg:16", func(s uint64) *graph.Graph { return gen.RGG(16, s) }},
			{"delaunay:16", func(s uint64) *graph.Graph { return gen.DelaunayX(16, s) }},
			{"road:60000", func(s uint64) *graph.Graph { return gen.Road(60000, 8, s) }},
		},
		graphs:  3,
		presets: []core.Variant{core.Fast},
		seeds:   1,
		k:       16,
		arena:   mem.NewArena(),
	}
}

// newSocial is the social workload: a preferential-attachment graph without
// coordinates under KaPPa-Fast and KaPPa-Strong, where refinement does most
// of the work and distribution falls back to index ranges.
func newSocial(seed uint64) *batch {
	return &batch{
		seed: seed,
		instances: []instance{
			{"social:30000", func(s uint64) *graph.Graph { return gen.PrefAttach(30000, 5, s) }},
		},
		graphs:  2,
		presets: []core.Variant{core.Fast, core.Strong},
		seeds:   1,
		k:       16,
		arena:   mem.NewArena(),
	}
}

func (b *batch) setup(ctx context.Context, st *setupTimes) error {
	b.specs = nil
	t0 := time.Now()
	var graphs []*graph.Graph
	for _, in := range b.instances {
		for gi := 0; gi < b.graphs; gi++ {
			graphs = append(graphs, in.build(derive(b.seed, "gen/"+in.name, gi)))
		}
	}
	st.gen = time.Since(t0)
	for i, in := range b.instances {
		for gi := 0; gi < b.graphs; gi++ {
			for _, v := range b.presets {
				for si := 0; si < b.seeds; si++ {
					cfg := core.NewConfig(v, b.k)
					key := fmt.Sprintf("%s#%d/%s/k%d/seed%d", in.name, gi, v, b.k, si)
					cfg.Seed = derive(b.seed, "part/"+key, 0)
					b.specs = append(b.specs, runSpec{key: key, g: graphs[i*b.graphs+gi], cfg: cfg})
				}
			}
		}
	}
	return nil
}

func (b *batch) shape() shape {
	n := len(b.instances) * b.graphs * len(b.presets) * b.seeds
	return shape{passSize: n, clients: 1, minReqs: 3 * n}
}

func (b *batch) do(ctx context.Context, _, i int, tr *reqTrace, lay *layers) outcome {
	sp := b.specs[i%len(b.specs)]
	opts := []core.Option{core.WithArena(b.arena)}
	var before mem.ArenaStats
	if tr != nil {
		opts = append(opts, core.WithObserver(tr), core.WithDistributor(timedDistributor{tr}))
		before = b.arena.Stats()
	}
	start := time.Now()
	res, err := core.Run(ctx, sp.g, sp.cfg, opts...)
	end := time.Now()
	if tr != nil {
		after := b.arena.Stats()
		lay.with(func(l *layers) {
			l.arenaBorrows += after.Borrows - before.Borrows
			l.arenaReused += after.Reused - before.Reused
			l.arenaAlloc += after.AllocatedBytes - before.AllocatedBytes
		})
	}
	return outcome{
		key:   sp.key,
		g:     sp.g,
		claim: claim{k: sp.cfg.K, eps: sp.cfg.Eps, blocks: res.Blocks, cut: res.Cut, balance: res.Balance},
		start: start, end: end, err: err,
		root: "core.Run",
	}
}

// probe runs the deployment probe in the mesh workload's traced run: the
// socket, wire, store and coordinator layers appear in no batch request.
func (b *batch) probe(ctx context.Context, pl perLayer) error {
	if b.scratch == "" {
		return nil
	}
	return deploymentProbe(ctx, b.seed, b.scratch, pl)
}

func (b *batch) close() {}
