package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"repro/internal/coarsen"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/part"
	"repro/internal/refine"
	"repro/internal/rng"
)

// ErrInvalidConfig wraps every configuration error returned by Run, so
// callers can distinguish user mistakes (usage errors, exit code 2 in
// cmd/kappa) from runtime failures: errors.Is(err, ErrInvalidConfig).
var ErrInvalidConfig = errors.New("core: invalid configuration")

// Distributor assigns every node of g to one of pes PEs — the
// prepartitioning stage of §3.3, consulted once per contraction level. The
// default consults cfg.Distribution (RCB/SFC/ranges).
type Distributor interface {
	Distribute(ctx context.Context, g *graph.Graph, cfg *Config, pes int) ([]int32, error)
}

// runEnv is what Run hands every stage besides the graph and config: the
// collaborators the Options set (node distributor, level kernel, message
// transport, the run's scratch arena), the trace sink, and the refinement
// workspace pool.
type runEnv struct {
	distributor Distributor
	kernel      LevelKernel
	// transport carries the superstep messages of distributed coarsening.
	// nil means one channel-backed dist.Exchanger per contraction level —
	// the in-process default.
	transport dist.Transport
	// stats, when non-nil, receives per-PE transport counters from every
	// superstep of distributed coarsening (see transportFor).
	stats *dist.TransportStats
	// arena is the run's scratch arena: every level of coarsening and every
	// refinement round borrows its temporaries here, so the V-cycle
	// allocates its working set once at the finest level and reuses it all
	// the way down and back up.
	arena     *mem.Arena
	observers []Observer
	refineWS  sync.Pool // *refine.Workspace, reused across pairs/levels/iterations
}

// newRunEnv applies opts on top of the paper's defaults: the
// cfg.Distribution strategy, the in-process level kernel, per-level
// Exchangers, a run-private arena.
func newRunEnv(opts []Option) *runEnv {
	e := &runEnv{}
	for _, o := range opts {
		o(e)
	}
	if e.distributor == nil {
		e.distributor = strategyDistributor{}
	}
	if e.kernel == nil {
		e.kernel = e.level
	}
	if e.arena == nil {
		e.arena = mem.NewArena()
	}
	return e
}

// getWorkspace borrows a refinement workspace from the run's pool.
func (e *runEnv) getWorkspace() *refine.Workspace {
	if ws, ok := e.refineWS.Get().(*refine.Workspace); ok {
		return ws
	}
	return refine.NewWorkspace()
}

// putWorkspace returns a workspace borrowed with getWorkspace.
func (e *runEnv) putWorkspace(ws *refine.Workspace) { e.refineWS.Put(ws) }

// emit delivers ev to every attached Observer, in attachment order.
func (e *runEnv) emit(ev TraceEvent) {
	for _, o := range e.observers {
		o.OnTrace(ev)
	}
}

// transportFor returns the Transport distributed coarsening must use for a
// superstep sequence over pes PEs, metered when the run carries transport
// stats (dist.Metered is the identity for nil stats).
func (e *runEnv) transportFor(pes int) dist.Transport {
	t := e.transport
	if t == nil {
		t = dist.NewExchanger(pes)
	}
	return dist.Metered(t, e.stats)
}

// Option configures a Run.
type Option func(*runEnv)

// WithObserver attaches an Observer; repeated options attach several, all of
// which receive every event in order.
func WithObserver(o Observer) Option {
	return func(e *runEnv) { e.observers = append(e.observers, o) }
}

// WithTransport routes every superstep of distributed coarsening through t
// instead of per-level channel Exchangers. t.PEs() must match the
// configured PE count; Run rejects a mismatch as ErrInvalidConfig.
func WithTransport(t dist.Transport) Option {
	return func(e *runEnv) { e.transport = t }
}

// WithTransportStats meters every superstep of distributed coarsening into
// s: message and superstep counts and barrier time, per PE. The counters are
// atomic, so s may be scraped (obs.BindTransport) while the run is in
// flight. A nil s is the identity; without this option the transports stay
// unwrapped and the hot path is untouched.
func WithTransportStats(s *dist.TransportStats) Option {
	return func(e *runEnv) { e.stats = s }
}

// WithArena makes runs draw their scratch buffers (matching candidate
// arrays, contraction member lists and scatter arrays, refinement bands and
// projection ping-pong buffers) from a instead of a run-private arena, so
// repeated runs — benchmark repetitions, a partitioning service — reuse one
// working set. Arenas are safe for concurrent use, including concurrent
// Runs. Results are byte-identical with and without a shared arena.
func WithArena(a *mem.Arena) Option {
	return func(e *runEnv) { e.arena = a }
}

// WithDistributor replaces the node-to-PE prepartitioning stage.
func WithDistributor(d Distributor) Option {
	return func(e *runEnv) { e.distributor = d }
}

// WithLevelKernel replaces the in-process level kernel: every contraction
// level runs through k, under the same stop rule, distribution and
// LevelEvents. internal/remote uses it to run each level across worker
// processes.
func WithLevelKernel(k LevelKernel) Option {
	return func(e *runEnv) { e.kernel = k }
}

// Run executes the full KaPPa pipeline on g: contraction (§3) through the
// Distributor and the level kernel, initial partitioning (§4), and pairwise
// multilevel refinement (§5), emitting typed trace events to the attached
// Observers. A nil ctx counts as context.Background(). The context is
// checked between phases, before every contraction level, and before every
// global refinement iteration.
//
// Error contract: Run returns ErrInvalidConfig-wrapped errors for bad input,
// the context's error (matching errors.Is(err, context.Canceled) or
// context.DeadlineExceeded) when cancelled, and never panics on user input.
// A fixed Config.Seed makes Run byte-deterministic.
func Run(ctx context.Context, g *graph.Graph, cfg Config, opts ...Option) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if g == nil {
		return Result{}, fmt.Errorf("%w: nil graph", ErrInvalidConfig)
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}
	env := newRunEnv(opts)
	if env.transport != nil && env.transport.PEs() != cfg.pes() {
		return Result{}, fmt.Errorf("%w: transport connects %d PEs, configuration uses %d",
			ErrInvalidConfig, env.transport.PEs(), cfg.pes())
	}
	if env.stats != nil && env.stats.PEs() < cfg.pes() {
		return Result{}, fmt.Errorf("%w: transport stats track %d PEs, configuration uses %d",
			ErrInvalidConfig, env.stats.PEs(), cfg.pes())
	}

	start := time.Now()

	// Each phase runs under a pprof goroutine label (inherited by every
	// worker goroutine the phase spawns), so CPU profiles of a run split by
	// stage. A handful of label allocations per run — noise next to a phase.

	// ------ Contraction phase (§3) ------
	tc := time.Now()
	var h *coarsen.Hierarchy
	var err error
	pprof.Do(ctx, pprof.Labels("stage", PhaseCoarsen.String()), func(ctx context.Context) {
		h, err = coarsenHierarchy(ctx, g, &cfg, env)
	})
	if err != nil {
		return Result{}, fmt.Errorf("core: coarsening: %w", err)
	}
	coarsenTime := time.Since(tc)
	env.emit(PhaseEvent{PhaseCoarsen, coarsenTime})

	// ------ Initial partitioning (§4) ------
	ti := time.Now()
	if err := ctx.Err(); err != nil {
		return Result{}, fmt.Errorf("core: initial partitioning: %w", err)
	}
	var block []int32
	var cut int64
	pprof.Do(ctx, pprof.Labels("stage", PhaseInit.String()), func(context.Context) {
		block, cut = initialPartition(h.Coarsest, &cfg)
	})
	initTime := time.Since(ti)
	env.emit(InitEvent{Cut: cut, Time: initTime})
	env.emit(PhaseEvent{PhaseInit, initTime})

	// ------ Refinement phase (§5) ------
	tr := time.Now()
	var p *part.Partition
	pprof.Do(ctx, pprof.Labels("stage", PhaseRefine.String()), func(ctx context.Context) {
		p, err = refineHierarchy(ctx, h, block, &cfg, env)
	})
	if err != nil {
		return Result{}, fmt.Errorf("core: refinement: %w", err)
	}
	refineTime := time.Since(tr)
	env.emit(PhaseEvent{PhaseRefine, refineTime})

	res := Result{
		Blocks:      p.Block,
		Cut:         p.Cut(),
		Balance:     p.Imbalance(),
		Levels:      h.Depth(),
		CoarsenTime: coarsenTime,
		InitTime:    initTime,
		RefineTime:  refineTime,
		TotalTime:   time.Since(start),
	}
	env.emit(PhaseEvent{PhaseTotal, res.TotalTime})
	return res, nil
}

// strategyDistributor is the default Distributor: the strategy selected by
// cfg.Distribution (§3.3).
type strategyDistributor struct{}

func (strategyDistributor) Distribute(ctx context.Context, g *graph.Graph, cfg *Config, pes int) ([]int32, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return dist.Assign(g, cfg.Distribution, pes), nil
}

// LevelKernel performs one contraction level: match cur (with blocks as the
// node-to-PE assignment when PEs > 1, nil otherwise) and contract the
// matching into the next coarser graph. It returns the coarse graph, the
// fine→coarse node map, and the matching/contraction kernel times — or a nil
// graph to signal an empty matching (the graph cannot shrink further). The
// default kernel runs in-process; WithLevelKernel replaces it.
type LevelKernel func(ctx context.Context, cur *graph.Graph, cfg *Config, blocks []int32, level int, maxPair int64) (cg *graph.Graph, f2c []int32, matchT, contractT time.Duration, err error)

// level is the in-process LevelKernel: shared-memory matching and
// contraction, or DistributedLevel over the run's Transport, per
// cfg.Coarsen.
func (e *runEnv) level(ctx context.Context, cur *graph.Graph, cfg *Config, blocks []int32, level int, maxPair int64) (*graph.Graph, []int32, time.Duration, time.Duration, error) {
	pes := cfg.NumPEs()
	if pes > 1 && cfg.Coarsen == CoarsenDistributed {
		return DistributedLevel(cur, cfg, blocks, e.transportFor(pes), level, maxPair)
	}
	cg, f2c, matchT, contractT := sharedLevel(cur, cfg, blocks, pes, level, maxPair, e.arena)
	return cg, f2c, matchT, contractT, nil
}

// coarsenHierarchy runs the contraction loop of §3/§4 around the run's level
// kernel until fewer than max(20·P, n/(α·k²), 2k) nodes remain — the per-PE
// threshold max(20, n/(αk²)) of the paper summed over PEs — or the graph
// stops shrinking geometrically. It computes the per-level node
// distribution and the cluster-weight cap and emits one LevelEvent per
// pushed level, so every kernel (in-process or out-of-process) shares the
// exact same hierarchy policy.
func coarsenHierarchy(ctx context.Context, g *graph.Graph, cfg *Config, env *runEnv) (*coarsen.Hierarchy, error) {
	pes := cfg.NumPEs()
	n0 := float64(g.NumNodes())
	threshold := int(n0 / (cfg.StopAlpha * float64(cfg.K) * float64(cfg.K)))
	if t := 20 * pes; threshold < t {
		threshold = t
	}
	if t := 2 * cfg.K; threshold < t {
		threshold = t
	}
	h := coarsen.NewHierarchy(g)
	// Cluster-weight cap (Metis' maxvwgt): no contracted pair may exceed
	// 1.5x the average node weight of the target coarsest graph, so even
	// tie-heavy ratings cannot snowball single clusters into blobs the
	// balance constraint cannot place.
	maxPair := 3 * g.TotalNodeWeight() / (2 * int64(threshold))
	if maxPair < 2 {
		maxPair = 2
	}
	for level := 0; h.Coarsest.NumNodes() > threshold; level++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cur := h.Coarsest
		tl := time.Now()
		var blocks []int32
		if pes > 1 {
			var err error
			blocks, err = env.distributor.Distribute(ctx, cur, cfg, pes)
			if err != nil {
				return nil, err
			}
		}
		var cg *graph.Graph
		var f2c []int32
		var matchT, contractT time.Duration
		var err error
		pprof.Do(ctx, pprof.Labels("level", strconv.Itoa(level)), func(ctx context.Context) {
			cg, f2c, matchT, contractT, err = env.kernel(ctx, cur, cfg, blocks, level, maxPair)
		})
		if err != nil {
			return nil, err
		}
		if cg == nil {
			break // empty matching: the graph cannot shrink further
		}
		// Insist on geometric shrinking; otherwise initial partitioning can
		// handle the rest.
		if cg.NumNodes() > cur.NumNodes()*49/50 {
			break
		}
		h.Push(cg, f2c)
		env.emit(LevelEvent{
			Level:    h.Depth(),
			Nodes:    cg.NumNodes(),
			Edges:    cg.NumEdges(),
			Time:     time.Since(tl),
			Match:    matchT,
			Contract: contractT,
		})
	}
	return h, nil
}

// refineHierarchy lifts the initial partition through the hierarchy and
// improves it (§5): the nested refinement loops on every level, coarsest to
// finest, followed by a rebalancing pass when the projected partition
// violates the balance constraint. It emits one RefineEvent per global
// iteration.
func refineHierarchy(ctx context.Context, h *coarsen.Hierarchy, initial []int32, cfg *Config, env *runEnv) (*part.Partition, error) {
	p := part.FromBlocks(h.Coarsest, cfg.K, cfg.Eps, initial)
	if err := refineLevel(ctx, p, cfg, 0, 0, env); err != nil {
		return nil, err
	}
	// Uncoarsening projects through ping-ponged arena buffers: each level's
	// block array is recycled once the next-finer projection has read it.
	// Only the finest level allocates fresh — its block array escapes into
	// the Result while the arena lives on for the next run. The coarsest
	// block array is never recycled: it belongs to the initial partitioner,
	// not to this stage.
	borrowed := false
	for li := h.Depth() - 1; li >= 0; li-- {
		fine := h.Levels[li].Fine
		var dst []int32
		if li == 0 {
			dst = make([]int32, fine.NumNodes())
		} else {
			dst = env.arena.Int32(fine.NumNodes())
		}
		h.ProjectInto(li, p.Block, dst)
		if borrowed {
			env.arena.PutInt32(p.Block)
		}
		borrowed = li > 0
		p = part.FromBlocks(fine, cfg.K, cfg.Eps, dst)
		if err := refineLevel(ctx, p, cfg, uint64(h.Depth()-li), h.Depth()-li, env); err != nil {
			return nil, err
		}
	}
	if !p.Feasible() {
		refine.Rebalance(p, rng.NewStream(cfg.Seed, 0xba1a))
	}
	return p, nil
}
