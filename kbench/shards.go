package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/remote"
	"repro/internal/store"
)

// sessionTimeout bounds one serve session, so a hung worker fails the
// request instead of the whole run.
const sessionTimeout = 60 * time.Second

// shards is the serve-shards workload: rgg:17 written once as a 2-shard
// store, partitioned by sessions of remote.ServeStore with two in-process
// remote.Work workers over loopback TCP. It is the one workload through the
// wire codec, the socket transport, level-0 shard splicing and coordinator
// stitching.
type shards struct {
	seed    uint64
	scratch string
	k       int
	seeds   int // partition seeds cycled over the sessions
	writes  int // stores written so far, to name their directories

	dir   string
	st    *store.Store
	mg    *store.MappedGraph // the benchmark's own view of the stored graph
	arena *mem.Arena         // the coordinator's scratch arena

	firstCut int64 // cut of the first session at partition seed 0
}

func newShards(seed uint64, scratch string) *shards {
	return &shards{seed: seed, scratch: scratch, k: 8, seeds: 4, arena: mem.NewArena(), firstCut: -1}
}

const shardPEs = 2

func (s *shards) setup(ctx context.Context, st *setupTimes) error {
	s.release()
	t0 := time.Now()
	g := gen.RGG(17, derive(s.seed, "gen/rgg:17", 0))
	st.gen = time.Since(t0)

	s.dir = filepath.Join(s.scratch, fmt.Sprintf("store-%d", s.writes))
	s.writes++
	t1 := time.Now()
	if _, err := store.Write(s.dir, g, store.WriteOptions{PEs: shardPEs, Strategy: dist.StrategyAuto}); err != nil {
		return fmt.Errorf("writing store: %w", err)
	}
	st.storeWrite = time.Since(t1)

	t2 := time.Now()
	var err error
	if s.st, err = store.Open(s.dir); err != nil {
		return fmt.Errorf("opening store: %w", err)
	}
	if s.mg, err = s.st.MapGraph(); err != nil {
		return fmt.Errorf("mapping store graph: %w", err)
	}
	st.storeOpen = time.Since(t2)
	// Partitions are verified against the mapped graph, so it must be the
	// generated one.
	return sameGraph(g, s.mg.G)
}

// release drops the current store, if any.
func (s *shards) release() {
	if s.mg != nil {
		s.mg.Close()
		s.mg = nil
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
		s.dir = ""
	}
}

func (s *shards) shape() shape {
	return shape{passSize: 1, clients: 1, minReqs: s.seeds + 1}
}

func (s *shards) config(i int) core.Config {
	cfg := core.NewConfig(core.Fast, s.k)
	cfg.Seed = derive(s.seed, fmt.Sprintf("part/rgg:17/k%d", s.k), i%s.seeds)
	return cfg
}

func (s *shards) do(ctx context.Context, _, i int, tr *reqTrace, lay *layers) outcome {
	cfg := s.config(i)
	o := outcome{
		key:  fmt.Sprintf("rgg:17/k%d/pes%d/seed%d", s.k, shardPEs, i%s.seeds),
		g:    s.mg.G,
		root: "remote.ServeStore",
	}
	ctx, cancel := context.WithTimeout(ctx, sessionTimeout)
	defer cancel()

	counters := &remote.Counters{}
	so := remote.ServeOptions{Counters: counters}
	opts := []core.Option{core.WithArena(s.arena)}
	var before mem.ArenaStats
	if tr != nil {
		so.Stats = dist.NewTransportStats(shardPEs)
		opts = append(opts, core.WithObserver(tr))
		before = s.arena.Stats()
	}

	o.start = time.Now()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		o.err = err
		o.end = time.Now()
		return o
	}
	defer ln.Close()
	wctx, stopWorkers := context.WithCancel(ctx)
	var wg sync.WaitGroup
	werrs := make([]error, shardPEs)
	for w := range werrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, werrs[w] = remote.Work(wctx, "tcp", ln.Addr().String())
		}()
	}
	res, err := remote.ServeStore(ctx, ln, s.st, cfg, so, opts...)
	if err != nil {
		stopWorkers()
	}
	wg.Wait()
	stopWorkers()
	o.end = time.Now()

	if err == nil {
		err = errors.Join(werrs...)
	}
	if n := counters.WorkerFailures.Load(); err == nil && n > 0 {
		err = fmt.Errorf("%d worker failures", n)
	}
	o.err = err
	o.claim = claim{k: cfg.K, eps: cfg.Eps, blocks: res.Blocks, cut: res.Cut, balance: res.Balance}
	if err == nil && i%s.seeds == 0 && s.firstCut < 0 {
		s.firstCut = res.Cut
	}
	if tr != nil {
		after := s.arena.Stats()
		hub := so.Stats.Totals()
		lay.with(func(l *layers) {
			l.arenaBorrows += after.Borrows - before.Borrows
			l.arenaReused += after.Reused - before.Reused
			l.arenaAlloc += after.AllocatedBytes - before.AllocatedBytes
			l.supersteps += hub.Supersteps
			l.bytes += hub.BytesSent + hub.BytesRecv
			l.workerFailures += counters.WorkerFailures.Load()
			l.levelRetries += counters.LevelRetries.Load()
			l.streams += counters.ShardsStreamed.Load()
		})
	}
	return o
}

// probe adds the in-process mirror's transport figures and, since
// ServeStore installs its own distributor, the mirror's distributor timing.
func (s *shards) probe(ctx context.Context, pl perLayer) error {
	return s.mirror(ctx, pl, true)
}

// mirror runs the session's kernels once in-process — distributed
// coarsening over the same two PEs, with the benchmark's distributor and a
// metered transport — because the socket workers expose neither message
// counts nor barrier time. Its cut must equal the served one.
func (s *shards) mirror(ctx context.Context, pl perLayer, assign bool) error {
	cfg := s.config(0)
	cfg.PEs = shardPEs
	cfg.Coarsen = core.CoarsenDistributed
	stats := dist.NewTransportStats(shardPEs)
	tr := &reqTrace{}
	res, err := core.Run(ctx, s.mg.G, cfg,
		core.WithTransportStats(stats), core.WithDistributor(timedDistributor{tr}))
	if err != nil {
		return fmt.Errorf("in-process mirror: %w", err)
	}
	var barriers []float64
	var msgs int64
	for _, pe := range stats.Snapshot() {
		barriers = append(barriers, float64(pe.BarrierNanos)/1e9)
		msgs += pe.MsgsSent
	}
	pl["dist.msgs"] = float64(msgs)
	pl["dist.barrier_s"] = barriers[0] + barriers[1]
	pl["dist.barrier_skew_s"] = slices.Max(barriers) - slices.Min(barriers)
	if assign {
		var sum float64
		for _, a := range tr.assigns {
			sum += a[1].Sub(a[0]).Seconds()
		}
		pl["dist.assign_s"] = sum
		pl["dist.assign_calls"] = float64(len(tr.assigns))
	}
	if s.firstCut >= 0 && res.Cut != s.firstCut {
		return fmt.Errorf("in-process mirror cut %d, served cut %d", res.Cut, s.firstCut)
	}
	return nil
}

// deploymentProbe measures the layers only a served deployment reaches —
// the shard store, the wire codec, the socket transport and the
// coordinator — with one traced serve-shards session and its in-process
// mirror. The mesh workload's traced run calls it; the served partition is
// verified like any other.
func deploymentProbe(ctx context.Context, seed uint64, scratch string, pl perLayer) error {
	s := newShards(seed, scratch)
	defer s.close()
	var st setupTimes
	if err := s.setup(ctx, &st); err != nil {
		return fmt.Errorf("serve-shards set-up: %w", err)
	}
	lay := &layers{}
	o := s.do(ctx, 0, 0, &reqTrace{}, lay)
	if o.err == nil {
		o.err = verify(o.g, o.claim)
	}
	if o.err != nil {
		return fmt.Errorf("serve-shards session: %w", o.err)
	}
	pl["store.write_s"] = st.storeWrite.Seconds()
	pl["store.open_s"] = st.storeOpen.Seconds()
	pl["dist.supersteps"] = float64(lay.supersteps)
	pl["dist.bytes"] = float64(lay.bytes)
	pl["remote.worker_failures"] = float64(lay.workerFailures)
	pl["remote.level_retries"] = float64(lay.levelRetries)
	pl["remote.shards_streamed"] = float64(lay.streams)
	return s.mirror(ctx, pl, false)
}

func (s *shards) close() { s.release() }

// sameGraph reports whether two graphs have the same nodes, weights and
// adjacency.
func sameGraph(a, b *graph.Graph) error {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		return fmt.Errorf("stored graph has %d nodes and %d edges, generated %d and %d",
			b.NumNodes(), b.NumEdges(), a.NumNodes(), a.NumEdges())
	}
	for v := int32(0); v < int32(a.NumNodes()); v++ {
		if a.NodeWeight(v) != b.NodeWeight(v) || !slices.Equal(a.Adj(v), b.Adj(v)) ||
			!slices.Equal(a.AdjWeights(v), b.AdjWeights(v)) {
			return fmt.Errorf("stored graph differs from the generated one at node %d", v)
		}
	}
	return nil
}
