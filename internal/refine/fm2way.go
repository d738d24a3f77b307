// Package refine implements the refinement phase of §5: band-limited
// two-way FM local search between pairs of blocks (the paper's parallel
// refinement unit), the queue selection strategies of §5.2 (TopGain,
// TopGainMaxLoad, MaxLoad, Alternate), and the greedy k-way refinement and
// rebalancing used by the Metis-style baselines.
//
// Pair searches run against a Workspace holding the band arrays and the two
// gain queues; reusing one Workspace across the pairs, levels and global
// iterations a goroutine processes makes the inner loop allocation-free
// (see RefinePair). Results are byte-identical with fresh and reused
// workspaces.
package refine

import (
	"fmt"
	"sync/atomic"

	"repro/internal/part"
	"repro/internal/pq"
	"repro/internal/rng"
)

// viewGet and viewSet access the shared block-membership view atomically.
// During parallel refinement every pair owns the entries of its two blocks:
// it is the only writer, and concurrent readers from other pairs only test
// membership against *their* blocks, for which any value in {a, b} of the
// writing pair is equivalent. Atomics make this access pattern well defined
// under the Go memory model.
func viewGet(view []int32, v int32) int32 { return atomic.LoadInt32(&view[v]) }

func viewSet(view []int32, v, b int32) { atomic.StoreInt32(&view[v], b) }

// Strategy selects which of the two FM priority queues yields the next move.
type Strategy int

const (
	// TopGain uses the queue promising the larger gain, falling back to
	// MaxLoad when a block is overloaded. The paper's default: ~3.2% better
	// than MaxLoad.
	TopGain Strategy = iota
	// TopGainMaxLoad is TopGain with ties broken toward the heavier block.
	TopGainMaxLoad
	// MaxLoad always moves a node out of the heavier block.
	MaxLoad
	// Alternate alternates between the two blocks (the original FM rule).
	Alternate
)

// String returns the paper's name for the strategy.
func (s Strategy) String() string {
	switch s {
	case TopGain:
		return "TopGain"
	case TopGainMaxLoad:
		return "TopGainMaxLoad"
	case MaxLoad:
		return "MaxLoad"
	case Alternate:
		return "Alternate"
	default:
		return fmt.Sprintf("refine.Strategy(%d)", int(s))
	}
}

// TwoWayConfig controls one pairwise local search.
type TwoWayConfig struct {
	Strategy  Strategy
	Patience  float64 // α: abort after α·min(|A|,|B|) fruitless moves (on the band)
	BandDepth int     // BFS depth from the boundary (Table 2: 1 / 5 / 20)
}

// Workspace owns the reusable storage of pairwise FM searches: the
// global-size band membership and local-id tables, the band-size side/move
// arrays, the two gain queues, the queue-seeding permutation, and the move
// logs of the two seeded runs. One goroutine reuses one Workspace across
// every pair it refines, on every level and global iteration; the arrays
// grow to the finest graph once and stay there. A Workspace must not be
// shared between concurrent searches.
type Workspace struct {
	inBand  []bool  // global-size; all false between searches
	localID []int32 // global-size; valid only where inBand

	band   []int32
	side   []byte
	moved  []bool
	qa, qb pq.GainQueue
	perm   []int
	movesA []int32
	movesB []int32
}

// NewWorkspace returns an empty workspace; it grows lazily to the graphs it
// refines.
func NewWorkspace() *Workspace { return &Workspace{} }

// growGlobal sizes the global-node-indexed tables for a graph of n nodes.
// New inBand cells are zero (false) by construction; recycled cells were
// cleaned by the previous search's release.
func (ws *Workspace) growGlobal(n int) {
	if cap(ws.inBand) < n {
		ws.inBand = make([]bool, n)
		ws.localID = make([]int32, n)
	}
	ws.inBand = ws.inBand[:n]
	ws.localID = ws.localID[:n]
}

// pairSearch is the working state of one two-way FM search. It never mutates
// the partition: both seeded searches of a block pair run on copies and the
// better result is applied afterwards (§5: "the better partitioning of the
// two blocks is adopted").
type pairSearch struct {
	p      *part.Partition
	ws     *Workspace
	view   []int32 // block membership snapshot for reads outside the pair
	a, b   int32
	band   []int32 // global ids of band nodes
	side   []byte  // 0 = in a, 1 = in b (current, local copy)
	moved  []bool
	qa, qb *pq.GainQueue
	cA, cB int64
	cut    int64 // current cut between a and b
}

// result describes the outcome of one seeded search: the move prefix to
// apply and the value it achieves.
type result struct {
	moves     []int32 // local ids, in order; prefix up to bestLen is applied
	bestLen   int
	imbalance int64
	cut       int64
}

// buildBand collects the nodes of blocks a and b within depth BFS steps of
// the a↔b boundary (§5.2, Figure 2: only a small band around the boundary is
// exchanged and searched) into ws.band, marking them in ws.inBand. Block
// membership is read from view, which may be a snapshot taken before
// concurrent pair refinements started; entries for blocks a and b are only
// ever written by this pair's owner, so the snapshot is exact where it
// matters. The BFS frontier of each depth is the band segment appended
// during the previous depth, so no separate frontier storage is needed.
//
//kappa:hotpath
func buildBand(p *part.Partition, ws *Workspace, view []int32, a, b int32, depth int) []int32 {
	g := p.G
	inBand := ws.inBand
	band := ws.band[:0]
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		bv := viewGet(view, v)
		if bv != a && bv != b {
			continue
		}
		other := a
		if bv == a {
			other = b
		}
		for _, u := range g.Adj(v) {
			if viewGet(view, u) == other {
				//kappa:allow hotalloc amortized growth of the reusable workspace band
				band = append(band, v)
				inBand[v] = true
				break
			}
		}
	}
	frontLo, frontHi := 0, len(band)
	for d := 1; d < depth; d++ {
		for fi := frontLo; fi < frontHi; fi++ {
			v := band[fi]
			bv := viewGet(view, v)
			for _, u := range g.Adj(v) {
				if viewGet(view, u) == bv && !inBand[u] {
					inBand[u] = true
					//kappa:allow hotalloc amortized growth of the reusable workspace band
					band = append(band, u)
				}
			}
		}
		if len(band) == frontHi {
			break
		}
		frontLo, frontHi = frontHi, len(band)
	}
	ws.band = band
	return band
}

func newPairSearch(p *part.Partition, ws *Workspace, view []int32, a, b int32, cfg TwoWayConfig) *pairSearch {
	depth := cfg.BandDepth
	if depth < 1 {
		depth = 1
	}
	ws.growGlobal(p.G.NumNodes())
	band := buildBand(p, ws, view, a, b, depth)
	if cap(ws.side) < len(band) {
		ws.side = make([]byte, len(band))
		ws.moved = make([]bool, len(band))
	}
	ws.side = ws.side[:len(band)]
	ws.moved = ws.moved[:len(band)]
	s := &pairSearch{
		p: p, ws: ws, view: view, a: a, b: b,
		band:  band,
		side:  ws.side,
		moved: ws.moved,
		cA:    p.BlockWeight(a),
		cB:    p.BlockWeight(b),
	}
	for li, v := range band {
		ws.localID[v] = int32(li)
		s.moved[li] = false
		if viewGet(view, v) == b {
			s.side[li] = 1
		} else {
			s.side[li] = 0
		}
	}
	// The pair cut counts every a↔b edge once (from the a side). Both
	// endpoints of a cut edge are boundary nodes, hence in the band.
	g := p.G
	for li, v := range band {
		if s.side[li] != 0 {
			continue
		}
		for i, u := range g.Adj(v) {
			if viewGet(view, u) == b {
				s.cut += g.AdjWeights(v)[i]
			}
		}
	}
	return s
}

// release cleans the workspace's global tables for the next search.
func (s *pairSearch) release() {
	inBand := s.ws.inBand
	for _, v := range s.band {
		inBand[v] = false
	}
}

// gain computes the current gain of moving band node li to the other block:
// w(v→other) − w(v→own), counting only edges inside the pair (edges to third
// blocks stay cut either way).
func (s *pairSearch) gain(li int32) int64 {
	v := s.band[li]
	g := s.p.G
	adj := g.Adj(v)
	ws := g.AdjWeights(v)
	inBand, localID := s.ws.inBand, s.ws.localID
	var wOwn, wOther int64
	for i, u := range adj {
		var uSide byte
		if inBand[u] {
			uSide = s.side[localID[u]]
		} else {
			switch viewGet(s.view, u) {
			case s.a:
				uSide = 0
			case s.b:
				uSide = 1
			default:
				continue
			}
		}
		if uSide == s.side[li] {
			wOwn += ws[i]
		} else {
			wOther += ws[i]
		}
	}
	return wOther - wOwn
}

func (s *pairSearch) imbalance() int64 {
	lmax := s.p.Lmax()
	im := int64(0)
	if d := s.cA - lmax; d > im {
		im = d
	}
	if d := s.cB - lmax; d > im {
		im = d
	}
	return im
}

// run executes one seeded FM search and returns the best prefix found,
// logging moves into the moves buffer (whose possibly-regrown backing array
// is returned via result.moves). It restores s.side/s.moved/s.cA/s.cB/s.cut
// before returning so the search can be repeated with another seed.
func (s *pairSearch) run(cfg TwoWayConfig, r *rng.RNG, moves []int32) result {
	n := len(s.band)
	ws := s.ws
	ws.qa.Reset(n)
	ws.qb.Reset(n)
	s.qa, s.qb = &ws.qa, &ws.qb
	// "The queues are initialized in random order with the nodes at the
	// partition boundary" — we seed them with the whole band (depth-1 bands
	// are exactly the boundary).
	if cap(ws.perm) < n {
		ws.perm = make([]int, n)
	}
	perm := ws.perm[:n]
	r.PermInto(perm)
	var sizeA, sizeB int
	for _, li := range perm {
		l := int32(li)
		if s.side[l] == 0 {
			s.qa.Push(l, s.gain(l), uint32(r.Uint64()))
			sizeA++
		} else {
			s.qb.Push(l, s.gain(l), uint32(r.Uint64()))
			sizeB++
		}
	}
	minSide := sizeA
	if sizeB < minSide {
		minSide = sizeB
	}
	patienceLimit := int(cfg.Patience * float64(minSide))
	if patienceLimit < 1 {
		patienceLimit = 1
	}

	res := result{moves: moves[:0], imbalance: s.imbalance(), cut: s.cut}
	startCut := res.cut
	startCA, startCB := s.cA, s.cB
	fruitless := 0
	alternateNext := byte(0)

	for !s.qa.Empty() || !s.qb.Empty() {
		q := s.chooseQueue(cfg.Strategy, alternateNext, r)
		alternateNext = 1 - alternateNext
		if q == nil {
			break
		}
		li, g := q.PopMax()
		v := s.band[li]
		w := s.p.G.NodeWeight(v)
		// Feasibility: a move may enter the target only if it stays under
		// Lmax, or if it strictly reduces an overload of the source.
		var from, to *int64
		if s.side[li] == 0 {
			from, to = &s.cA, &s.cB
		} else {
			from, to = &s.cB, &s.cA
		}
		if *to+w > s.p.Lmax() && !(*from > s.p.Lmax() && *to+w < *from) {
			continue // discard: infeasible move
		}
		// Execute the move on the local state.
		*from -= w
		*to += w
		s.side[li] = 1 - s.side[li]
		s.moved[li] = true
		s.cut -= g
		res.moves = append(res.moves, li)
		// Update queued neighbors: +2ω for neighbors left behind, −2ω for
		// neighbors in the block v joined.
		adj := s.p.G.Adj(v)
		wts := s.p.G.AdjWeights(v)
		inBand, localID := ws.inBand, ws.localID
		for i, u := range adj {
			if !inBand[u] {
				continue
			}
			ul := localID[u]
			if s.moved[ul] {
				continue
			}
			delta := 2 * wts[i]
			if s.side[ul] == s.side[li] {
				delta = -delta
			}
			s.qa.AdjustBy(ul, delta)
			s.qb.AdjustBy(ul, delta)
		}
		// Track the lexicographically best (imbalance, cut) state.
		imb := s.imbalance()
		if imb < res.imbalance || (imb == res.imbalance && s.cut < res.cut) {
			res.imbalance, res.cut = imb, s.cut
			res.bestLen = len(res.moves)
			fruitless = 0
		} else {
			fruitless++
			if fruitless > patienceLimit {
				break
			}
		}
	}

	// Restore local state for a potential second seeded run.
	for _, li := range res.moves {
		s.side[li] = 1 - s.side[li]
		s.moved[li] = false
	}
	s.cA, s.cB = startCA, startCB
	s.cut = startCut
	return res
}

// chooseQueue implements the queue selection strategies of §5.2.
func (s *pairSearch) chooseQueue(st Strategy, alternateNext byte, r *rng.RNG) *pq.GainQueue {
	qa, qb := s.qa, s.qb
	if qa.Empty() && qb.Empty() {
		return nil
	}
	if qa.Empty() {
		return qb
	}
	if qb.Empty() {
		return qa
	}
	heavier := qa
	if s.cB > s.cA || (s.cA == s.cB && r.Bool()) {
		heavier = qb
	}
	switch st {
	case MaxLoad:
		return heavier
	case Alternate:
		if alternateNext == 0 {
			return qa
		}
		return qb
	case TopGain, TopGainMaxLoad:
		// Overload exception: without resolving to MaxLoad in an overloaded
		// situation the balance constraint cannot be met (§5.2).
		if s.cA > s.p.Lmax() || s.cB > s.p.Lmax() {
			return heavier
		}
		_, ga := qa.Max()
		_, gb := qb.Max()
		if ga > gb {
			return qa
		}
		if gb > ga {
			return qb
		}
		if st == TopGainMaxLoad {
			return heavier
		}
		if r.Bool() {
			return qa
		}
		return qb
	default:
		//kappa:allow panicfree the strategy enum is internal to the refiner and exhaustive
		panic("refine: unknown strategy")
	}
}

// RefinePairOutcome reports what a pairwise refinement achieved.
type RefinePairOutcome struct {
	Gain     int64 // cut decrease between the pair (can be negative only if imbalance improved)
	Moves    int
	BandSize int
}

// RefinePair refines the partition between blocks a and b with two
// independently seeded FM searches, adopting the better result (§5). It
// mutates p only by applying the winning move prefix.
//
// Reads of block membership go through view. During parallel refinement,
// disjoint pairs run concurrently; each goroutine passes a snapshot of the
// block array taken before the round so that reads of *foreign* blocks
// never race with other pairs' writes. For nodes of blocks a and b the
// snapshot is exact, because only this pair may move them. A sequential
// caller passes p.Block.
//
// The search runs against the reusable Workspace ws; the pipeline obtains
// workspaces from a per-run pool. The outcome is byte-identical to a fresh
// workspace.
func RefinePair(ws *Workspace, p *part.Partition, view []int32, a, b int32, cfg TwoWayConfig, seedA, seedB uint64) RefinePairOutcome {
	s := newPairSearch(p, ws, view, a, b, cfg)
	if len(s.band) == 0 {
		s.release()
		return RefinePairOutcome{}
	}
	r1 := s.run(cfg, rng.New(seedA), ws.movesA)
	ws.movesA = r1.moves
	r2 := s.run(cfg, rng.New(seedB), ws.movesB)
	ws.movesB = r2.moves
	best := r1
	if r2.imbalance < best.imbalance || (r2.imbalance == best.imbalance && r2.cut < best.cut) {
		best = r2
	}
	startCut := s.cut
	// Apply the winning prefix to the real partition.
	for i := 0; i < best.bestLen; i++ {
		li := best.moves[i]
		v := s.band[li]
		to := s.b
		if s.side[li] == 1 { // side arrays were restored: side is the ORIGINAL side
			to = s.a
		}
		// A node may appear once in the move list; its original side tells
		// us the direction.
		p.Move(v, to)
		if &s.view[0] != &p.Block[0] {
			viewSet(s.view, v, to) // keep the caller's snapshot exact for this pair
		}
		s.side[li] = 1 - s.side[li]
	}
	out := RefinePairOutcome{
		Gain:     startCut - best.cut,
		Moves:    best.bestLen,
		BandSize: len(s.band),
	}
	s.release()
	return out
}
