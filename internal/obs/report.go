package obs

import (
	"bytes"
	"encoding/json"
	"io"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/mem"
)

// Report is the structured record of one partitioning run: the configuration
// it ran under, the shape of every contraction level with its kernel times,
// the initial partition, every refinement iteration's gain, the final result,
// and — when bound — transport and arena totals. Serialized with WriteTo it
// is a single JSON document whose non-timing fields are byte-deterministic
// for a fixed seed: zero the timings with ZeroTimes and two runs of the same
// input compare byte-equal, whether they ran in-process or across worker
// processes.
type Report struct {
	Graph     GraphReport    `json:"graph"`
	Config    ConfigReport   `json:"config"`
	Levels    []LevelReport  `json:"levels"`
	Init      InitReport     `json:"init"`
	Refine    []RefineReport `json:"refine"`
	Phases    []PhaseReport  `json:"phases"`
	Result    ResultReport   `json:"result"`
	Transport []PEReport     `json:"transport,omitempty"`
	Arena     *ArenaReport   `json:"arena,omitempty"`
	Faults    *FaultReport   `json:"faults,omitempty"`
}

// GraphReport records the input graph's shape.
type GraphReport struct {
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
}

// ConfigReport records the run parameters that determine the output.
type ConfigReport struct {
	K       int     `json:"k"`
	Eps     float64 `json:"eps"`
	PEs     int     `json:"pes"`
	Workers int     `json:"workers"`
	Coarsen string  `json:"coarsen"`
	Seed    uint64  `json:"seed"`
}

// LevelReport records one pushed contraction level.
type LevelReport struct {
	Level           int     `json:"level"`
	Nodes           int     `json:"nodes"`
	Edges           int     `json:"edges"`
	Seconds         float64 `json:"seconds"`
	MatchSeconds    float64 `json:"match_seconds"`
	ContractSeconds float64 `json:"contract_seconds"`
}

// InitReport records the initial partition of the coarsest graph.
type InitReport struct {
	Cut     int64   `json:"cut"`
	Seconds float64 `json:"seconds"`
}

// RefineReport records one global refinement iteration.
type RefineReport struct {
	Level     int   `json:"level"`
	Iteration int   `json:"iteration"`
	Gain      int64 `json:"gain"`
}

// PhaseReport records one finished pipeline phase.
type PhaseReport struct {
	Phase   string  `json:"phase"`
	Seconds float64 `json:"seconds"`
}

// ResultReport records the run's headline figures.
type ResultReport struct {
	Cut     int64   `json:"cut"`
	Balance float64 `json:"balance"`
	Levels  int     `json:"levels"`
}

// PEReport records one PE's transport totals.
type PEReport struct {
	PE             int     `json:"pe"`
	MsgsSent       int64   `json:"msgs_sent"`
	MsgsRecv       int64   `json:"msgs_recv"`
	BytesSent      int64   `json:"bytes_sent"`
	BytesRecv      int64   `json:"bytes_recv"`
	FramesSent     int64   `json:"frames_sent"`
	FramesRecv     int64   `json:"frames_recv"`
	Supersteps     int64   `json:"supersteps"`
	BarrierSeconds float64 `json:"barrier_seconds"`
}

// ArenaReport records the scratch arena's accounting at report time.
type ArenaReport struct {
	Borrows        int64 `json:"borrows"`
	Reused         int64 `json:"reused"`
	Misses         int64 `json:"misses"`
	AllocatedBytes int64 `json:"allocated_bytes"`
	LiveBytes      int64 `json:"live_bytes"`
	PooledBytes    int64 `json:"pooled_bytes"`
}

// ZeroTimes zeroes every scheduling-dependent field in place — wall-clock
// durations, plus the arena's reuse split (whether a concurrent borrow hits
// a free list depends on goroutine interleaving, like a timing). What
// remains is byte-deterministic for a fixed seed: byte-compare two reports
// only after calling it.
func (r *Report) ZeroTimes() {
	for i := range r.Levels {
		r.Levels[i].Seconds = 0
		r.Levels[i].MatchSeconds = 0
		r.Levels[i].ContractSeconds = 0
	}
	r.Init.Seconds = 0
	for i := range r.Phases {
		r.Phases[i].Seconds = 0
	}
	for i := range r.Transport {
		r.Transport[i].BarrierSeconds = 0
	}
	if r.Faults != nil {
		// Heartbeat counts reflect elapsed wall-clock intervals, not the
		// run's logical outcome.
		r.Faults.HeartbeatsSent = 0
		r.Faults.HeartbeatsRecv = 0
	}
	if r.Arena != nil {
		// Borrows is deterministic (one per borrow call); the rest reflects
		// which borrows raced into the free lists first.
		r.Arena.Reused = 0
		r.Arena.Misses = 0
		r.Arena.AllocatedBytes = 0
		r.Arena.LiveBytes = 0
		r.Arena.PooledBytes = 0
	}
}

// WriteTo serializes the report as one indented JSON document. Field order is
// fixed by the struct definitions, so output is deterministic.
func (r *Report) WriteTo(w io.Writer) (int64, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return 0, err
	}
	b = append(b, '\n')
	n, err := w.Write(b)
	return int64(n), err
}

// Render returns the report's WriteTo bytes and the bytes of the same report
// under ZeroTimes — the two renderings a job serves (as recorded, and
// byte-comparable across runs). It leaves r zeroed.
func (r *Report) Render() (recorded, zeroed []byte, err error) {
	var a, z bytes.Buffer
	if _, err := r.WriteTo(&a); err != nil {
		return nil, nil, err
	}
	r.ZeroTimes()
	if _, err := r.WriteTo(&z); err != nil {
		return nil, nil, err
	}
	return a.Bytes(), z.Bytes(), nil
}

// ReportObserver assembles a Report from the pipeline's trace stream. Attach
// it with core.WithObserver, run, then call Finish with the run's result.
// Like every Observer it is driven from the single coordinating goroutine
// and needs no locking; one observer records one run (Reset between runs).
type ReportObserver struct {
	report Report
	// arenaBase is the arena's accounting when the run started (MarkArena);
	// zero for a fresh arena.
	arenaBase mem.ArenaStats
}

// NewReportObserver returns an observer recording graph shape and
// configuration immediately, with the event-driven sections filled during
// the run.
func NewReportObserver(g *graph.Graph, cfg core.Config) *ReportObserver {
	o := &ReportObserver{}
	o.init(g, cfg)
	return o
}

func (o *ReportObserver) init(g *graph.Graph, cfg core.Config) {
	o.arenaBase = mem.ArenaStats{}
	o.report = Report{
		Graph: GraphReport{Nodes: g.NumNodes(), Edges: g.NumEdges()},
		Config: ConfigReport{
			K:       cfg.K,
			Eps:     cfg.Eps,
			PEs:     cfg.NumPEs(),
			Workers: cfg.Workers,
			Coarsen: cfg.Coarsen.String(),
			Seed:    cfg.Seed,
		},
		// Non-nil so the JSON sections render as [] rather than null even
		// for degenerate runs with no levels or refinement.
		Levels: []LevelReport{},
		Refine: []RefineReport{},
		Phases: []PhaseReport{},
	}
}

// OnTrace implements core.Observer.
func (o *ReportObserver) OnTrace(ev core.TraceEvent) {
	_, row := TraceRow(ev)
	switch row := row.(type) {
	case LevelReport:
		o.report.Levels = append(o.report.Levels, row)
	case InitReport:
		o.report.Init = row
	case RefineReport:
		o.report.Refine = append(o.report.Refine, row)
	case PhaseReport:
		o.report.Phases = append(o.report.Phases, row)
	}
}

// TraceRow renders a trace event as its kind ("level", "init", "refine" or
// "phase") and its report row (a LevelReport, InitReport, RefineReport or
// PhaseReport). It is the one rendering of trace events: the run report
// collects the rows, and the job service streams them as SSE payloads under
// the kind as event type.
func TraceRow(ev core.TraceEvent) (string, any) {
	switch e := ev.(type) {
	case core.LevelEvent:
		return "level", LevelReport{
			Level:           e.Level,
			Nodes:           e.Nodes,
			Edges:           e.Edges,
			Seconds:         e.Time.Seconds(),
			MatchSeconds:    e.Match.Seconds(),
			ContractSeconds: e.Contract.Seconds(),
		}
	case core.InitEvent:
		return "init", InitReport{Cut: e.Cut, Seconds: e.Time.Seconds()}
	case core.RefineEvent:
		return "refine", RefineReport{Level: e.Level, Iteration: e.Iteration, Gain: e.Gain}
	case core.PhaseEvent:
		return "phase", PhaseReport{Phase: e.Phase.String(), Seconds: e.Time.Seconds()}
	}
	return "", nil
}

// Reset clears the event-driven sections so the observer can record another
// run of the same graph and configuration.
func (o *ReportObserver) Reset(g *graph.Graph, cfg core.Config) { o.init(g, cfg) }

// MarkArena records a's accounting as the run's starting point, so Finish
// reports only this run's arena activity: a pooled arena reused across runs
// then reports exactly what a fresh per-run arena would. Call it before the
// run; without it Finish reports a's totals, which for a fresh arena are the
// same thing.
func (o *ReportObserver) MarkArena(a *mem.Arena) { o.arenaBase = a.Stats() }

// Finish stamps the run's result and returns the assembled report. Optional
// transport stats and the arena's activity since MarkArena are folded in
// when non-nil.
func (o *ReportObserver) Finish(res core.Result, stats *dist.TransportStats, arena *mem.Arena) *Report {
	o.report.Result = ResultReport{Cut: res.Cut, Balance: res.Balance, Levels: res.Levels}
	if stats != nil {
		o.report.Transport = transportSection(stats)
	}
	if arena != nil {
		st, base := arena.Stats(), o.arenaBase
		o.report.Arena = &ArenaReport{
			Borrows:        st.Borrows - base.Borrows,
			Reused:         st.Reused - base.Reused,
			Misses:         st.Misses - base.Misses,
			AllocatedBytes: st.AllocatedBytes - base.AllocatedBytes,
			LiveBytes:      st.LiveBytes,
			PooledBytes:    st.PooledBytes,
		}
	}
	return &o.report
}

// transportSection renders per-PE transport totals.
func transportSection(stats *dist.TransportStats) []PEReport {
	totals := stats.Snapshot()
	out := make([]PEReport, len(totals))
	for pe, t := range totals {
		out[pe] = PEReport{
			PE:             pe,
			MsgsSent:       t.MsgsSent,
			MsgsRecv:       t.MsgsRecv,
			BytesSent:      t.BytesSent,
			BytesRecv:      t.BytesRecv,
			FramesSent:     t.FramesSent,
			FramesRecv:     t.FramesRecv,
			Supersteps:     t.Supersteps,
			BarrierSeconds: float64(t.BarrierNanos) / 1e9,
		}
	}
	return out
}
