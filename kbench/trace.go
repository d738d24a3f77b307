package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
)

// span is one timed interval of the traced run. Spans of one request share
// its request id; parent is the id of the enclosing span, -1 for a root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Req    int     `json:"req"`
	Start  float64 `json:"start_s"` // seconds since the run began
	End    float64 `json:"end_s"`
}

// spanLog holds every span of the traced run in memory; write saves them
// when the run ends.
type spanLog struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

func (l *spanLog) add(parent int, name string, req int, start, end time.Time) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans)
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Name: name, Req: req,
		Start: start.Sub(l.origin).Seconds(), End: end.Sub(l.origin).Seconds(),
	})
	return id
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover (overlapping children count once).
func selfTimes(spans []span) []float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := 0.0, s.Start
		for _, c := range kids {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// spanSummary aggregates spans by name.
type spanSummary struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// write saves the spans and their per-name summary as JSON.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	self := selfTimes(l.spans)
	summary := make(map[string]*spanSummary)
	type out struct {
		span
		SelfS float64 `json:"self_s"`
	}
	all := make([]out, len(l.spans))
	for i, s := range l.spans {
		all[i] = out{s, self[i]}
		sum := summary[s.Name]
		if sum == nil {
			sum = &spanSummary{}
			summary[s.Name] = sum
		}
		sum.Count++
		sum.TotalS += s.End - s.Start
		sum.SelfS += self[i]
	}
	data, err := json.MarshalIndent(struct {
		Summary map[string]*spanSummary `json:"summary"`
		Spans   []out                   `json:"spans"`
	}{summary, all}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// timedEvent is a pipeline trace event with the time it reached the
// benchmark.
type timedEvent struct {
	ev core.TraceEvent
	at time.Time
}

// reqTrace collects one traced request: the pipeline's trace events as they
// arrive and the intervals of the benchmark's own distributor calls.
type reqTrace struct {
	mu      sync.Mutex
	events  []timedEvent
	assigns [][2]time.Time
}

// OnTrace implements core.Observer.
func (t *reqTrace) OnTrace(ev core.TraceEvent) { t.record(ev, time.Now()) }

func (t *reqTrace) record(ev core.TraceEvent, at time.Time) {
	t.mu.Lock()
	t.events = append(t.events, timedEvent{ev, at})
	t.mu.Unlock()
}

// timedDistributor is the benchmark's Distributor stage: it calls
// dist.Assign exactly as the default stage does and times each call.
type timedDistributor struct{ t *reqTrace }

func (d timedDistributor) Distribute(ctx context.Context, g *graph.Graph, cfg *core.Config, pes int) ([]int32, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	blocks := dist.Assign(g, cfg.Distribution, pes)
	end := time.Now()
	d.t.mu.Lock()
	d.t.assigns = append(d.t.assigns, [2]time.Time{start, end})
	d.t.mu.Unlock()
	return blocks, nil
}

// layers accumulates the per-layer figures of the traced requests.
type layers struct {
	mu sync.Mutex

	requests   int
	rootS      float64 // summed request span durations
	coarsenS   float64
	initS      float64
	refineS    float64
	assignS    float64
	assignN    int
	matchS     float64
	contractS  float64
	otherS     float64
	levels     int
	coarsest   int
	initCuts   []float64
	iterations int
	useful     int
	gain       int64
	finestS    float64
	tailS      float64

	// Figures the workloads add from outside the pipeline trace.
	arenaBorrows, arenaReused, arenaAlloc int64
	supersteps, bytes                     int64
	workerFailures, levelRetries, streams int64
	svcQueue, svcRun, svcOverhead         []float64
	rejected                              int
}

// with runs f under the lock, for workloads adding their own figures.
func (l *layers) with(f func(l *layers)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	f(l)
}

// absorb turns one traced request into spans under a root span and adds its
// figures.
func (l *layers) absorb(log *spanLog, t *reqTrace, o outcome, req int) {
	start, end := o.start, o.end
	t.mu.Lock()
	events := append([]timedEvent(nil), t.events...)
	assigns := append([][2]time.Time(nil), t.assigns...)
	t.mu.Unlock()

	rootID := log.add(-1, o.root, req, start, end)
	for _, c := range o.children {
		log.add(rootID, c.name, req, c.start, c.end)
	}
	phaseID := map[core.Phase]int{}
	phaseStart := map[core.Phase]time.Time{}
	// Phase spans come first so level and iteration spans can name them
	// as parents.
	for _, te := range events {
		if e, ok := te.ev.(core.PhaseEvent); ok && e.Phase != core.PhaseTotal {
			s := te.at.Add(-e.Time)
			phaseStart[e.Phase] = s
			phaseID[e.Phase] = log.add(rootID, "core."+e.Phase.String(), req, s, te.at)
		}
	}
	parentOf := func(p core.Phase) int {
		if id, ok := phaseID[p]; ok {
			return id
		}
		return rootID
	}

	var r layers
	if o.g != nil {
		r.coarsest = o.g.NumNodes()
	}
	ai := 0
	prevLevelEnd := start
	refineMark, hasRefineMark := phaseStart[core.PhaseRefine]
	if !hasRefineMark {
		refineMark = start
	}
	var lastRefine time.Time
	refineLevel := -1
	maxLevel := -1
	var finestStart time.Time
	for _, te := range events {
		switch e := te.ev.(type) {
		case core.LevelEvent:
			ls := te.at.Add(-e.Time)
			id := log.add(parentOf(core.PhaseCoarsen), "coarsen.level", req, ls, te.at)
			cursor := ls
			var assigned time.Duration
			for ai < len(assigns) && !assigns[ai][1].After(te.at) {
				a := assigns[ai]
				if !a[0].Before(prevLevelEnd) {
					log.add(id, "dist.assign", req, a[0], a[1])
					assigned += a[1].Sub(a[0])
					cursor = a[1]
				}
				ai++
			}
			log.add(id, "matching.match", req, cursor, cursor.Add(e.Match))
			log.add(id, "coarsen.contract", req, cursor.Add(e.Match), cursor.Add(e.Match+e.Contract))
			r.matchS += e.Match.Seconds()
			r.contractS += e.Contract.Seconds()
			r.otherS += (e.Time - e.Match - e.Contract - assigned).Seconds()
			r.levels++
			r.coarsest = e.Nodes
			prevLevelEnd = te.at
		case core.InitEvent:
			r.initCuts = append(r.initCuts, float64(e.Cut))
		case core.RefineEvent:
			if e.Level != refineLevel {
				if refineLevel >= 0 {
					log.add(parentOf(core.PhaseRefine), "refine.level", req, refineMark, lastRefine)
					refineMark = lastRefine
				}
				refineLevel = e.Level
			}
			if e.Level > maxLevel {
				maxLevel = e.Level
				finestStart = refineMark
			}
			r.iterations++
			if e.Gain > 0 {
				r.useful++
			}
			r.gain += e.Gain
			lastRefine = te.at
		case core.PhaseEvent:
			switch e.Phase {
			case core.PhaseCoarsen:
				r.coarsenS += e.Time.Seconds()
			case core.PhaseInit:
				r.initS += e.Time.Seconds()
			case core.PhaseRefine:
				r.refineS += e.Time.Seconds()
				if refineLevel >= 0 {
					log.add(parentOf(core.PhaseRefine), "refine.level", req, refineMark, lastRefine)
					r.finestS += lastRefine.Sub(finestStart).Seconds()
					r.tailS += te.at.Sub(lastRefine).Seconds()
					log.add(parentOf(core.PhaseRefine), "refine.rebalance", req, lastRefine, te.at)
				}
			}
		}
	}
	for _, a := range assigns {
		r.assignS += a[1].Sub(a[0]).Seconds()
	}
	r.assignN = len(assigns)

	l.mu.Lock()
	defer l.mu.Unlock()
	l.requests++
	l.rootS += end.Sub(start).Seconds()
	l.coarsenS += r.coarsenS
	l.initS += r.initS
	l.refineS += r.refineS
	l.assignS += r.assignS
	l.assignN += r.assignN
	l.matchS += r.matchS
	l.contractS += r.contractS
	l.otherS += r.otherS
	l.levels += r.levels
	l.coarsest += r.coarsest
	l.initCuts = append(l.initCuts, r.initCuts...)
	l.iterations += r.iterations
	l.useful += r.useful
	l.gain += r.gain
	l.finestS += r.finestS
	l.tailS += r.tailS
}
