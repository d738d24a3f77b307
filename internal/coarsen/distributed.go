package coarsen

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/rating"
)

// PEContraction is what one PE contributes to the stitched coarse graph: the
// coarse nodes it owns (weights, coordinates) and its share of the coarse
// edges, all in coarse *global* ids. The fields are exported because the
// value crosses process boundaries in the out-of-process backend
// (internal/wire encodes it; the coordinator stitches the decoded parts).
type PEContraction struct {
	FirstCoarse int32   // global id of this PE's first coarse node
	Weights     []int64 // per owned coarse node, in id order
	CX, CY, CZ  []float64
	EdgeU       []int32 // coarse edge contributions (deterministic order)
	EdgeV       []int32
	EdgeW       []int64
	FineGlobal  []int32 // owned fine nodes (global ids) ...
	FineCoarse  []int32 // ... and their coarse global ids, parallel
}

// LevelParams are the inputs one PE's contraction level takes besides its
// shard and the Transport: the rating function, the matching algorithm, the
// level's seed, the cluster-weight cap and whether the boundary (gap graph)
// is matched. Every PE of a level runs with the same parameters.
type LevelParams struct {
	Rating   rating.Func
	Matcher  matching.Algorithm
	Seed     uint64
	MaxPair  int64
	Boundary bool
}

// PELevel is one PE's outcome of a contraction level: how many of its owned
// nodes matched, its matching and contraction kernel times, and — unless no
// PE matched — its contraction contribution. The per-PE program that fills
// it lives in internal/core (it reads the clock, which this package does
// not); the out-of-process backend ships it inside wire.Result.
type PELevel struct {
	PE            int
	Matched       int
	MatchNanos    int64
	ContractNanos int64
	Part          *PEContraction // nil when the level's matching was empty
}

// Gather folds the per-PE outcomes of one contraction level, ordered by PE,
// into the next-level graph: when no PE matched it returns a nil graph (the
// graph cannot shrink further); otherwise it stitches the parts. The
// reported kernel times are the slowest PE's, since every PE waits for the
// slowest at the superstep barriers. The error is Stitch's.
func Gather(g *graph.Graph, levels []PELevel) (*graph.Graph, []int32, time.Duration, time.Duration, error) {
	parts := make([]*PEContraction, len(levels))
	var matchNanos, contractNanos int64
	matched := false
	for pe, l := range levels {
		parts[pe] = l.Part
		matched = matched || l.Matched > 0
		matchNanos = max(matchNanos, l.MatchNanos)
		contractNanos = max(contractNanos, l.ContractNanos)
	}
	if !matched {
		return nil, nil, time.Duration(matchNanos), 0, nil
	}
	cg, f2c, err := Stitch(g, parts)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	return cg, f2c, time.Duration(matchNanos), time.Duration(contractNanos), nil
}

// StitchError reports per-PE contraction parts that do not fit together
// into a coarse graph of the fine graph they claim to contract. PE names the
// offending part (-1 when no single part is to blame: a fine node no part
// covers).
type StitchError struct {
	PE  int
	Err error
}

func (e *StitchError) Error() string {
	if e.PE < 0 {
		return fmt.Sprintf("coarsen: stitch: %v", e.Err)
	}
	return fmt.Sprintf("coarsen: stitch: PE %d: %v", e.PE, e.Err)
}

func (e *StitchError) Unwrap() error { return e.Err }

// Stitch assembles the per-PE contraction contributions into the next-level
// global coarse graph and the fine→coarse map. Parts must be ordered by PE;
// every per-PE list is deterministic, so the assembled graph is too.
//
// Parts may come from other processes, so Stitch checks them before building
// anything and returns a *StitchError instead of panicking when they are
// inconsistent: coarse ids must number the parts contiguously in PE order,
// parallel arrays must have equal lengths, every coarse id and edge endpoint
// must lie in [0, total), edge weights must be positive, every fine node
// must be covered by exactly one part, and every coarse node's weight must
// equal the summed weight of its fine members.
func Stitch(g *graph.Graph, parts []*PEContraction) (*graph.Graph, []int32, error) {
	n := g.NumNodes()
	total := 0
	for pe, p := range parts {
		if p == nil {
			return nil, nil, &StitchError{pe, errors.New("missing contraction")}
		}
		if int(p.FirstCoarse) != total {
			return nil, nil, &StitchError{pe, fmt.Errorf("first coarse id %d, want %d", p.FirstCoarse, total)}
		}
		total += len(p.Weights)
		if total > n {
			return nil, nil, &StitchError{pe, fmt.Errorf("%d coarse nodes exceed the %d fine nodes", total, n)}
		}
	}
	coarseWeight := make([]int64, total)
	fine2coarse := make([]int32, n)
	for i := range fine2coarse {
		fine2coarse[i] = -1
	}
	coords := g.CoordDims()
	for pe, p := range parts {
		nc := len(p.Weights)
		if coords > 0 && (len(p.CX) != nc || len(p.CY) != nc || coords == 3 && len(p.CZ) != nc) {
			return nil, nil, &StitchError{pe, fmt.Errorf("coordinate arrays do not match %d coarse nodes", nc)}
		}
		if len(p.EdgeV) != len(p.EdgeU) || len(p.EdgeW) != len(p.EdgeU) {
			return nil, nil, &StitchError{pe, fmt.Errorf("edge arrays have lengths %d/%d/%d", len(p.EdgeU), len(p.EdgeV), len(p.EdgeW))}
		}
		for i := range p.EdgeU {
			u, v, w := p.EdgeU[i], p.EdgeV[i], p.EdgeW[i]
			if u < 0 || int(u) >= total || v < 0 || int(v) >= total || w <= 0 {
				return nil, nil, &StitchError{pe, fmt.Errorf("edge {%d,%d} weight %d invalid for %d coarse nodes", u, v, w, total)}
			}
		}
		if len(p.FineCoarse) != len(p.FineGlobal) {
			return nil, nil, &StitchError{pe, fmt.Errorf("%d fine nodes but %d coarse ids", len(p.FineGlobal), len(p.FineCoarse))}
		}
		for i, gv := range p.FineGlobal {
			c := p.FineCoarse[i]
			switch {
			case gv < 0 || int(gv) >= n:
				return nil, nil, &StitchError{pe, fmt.Errorf("fine node %d out of range [0, %d)", gv, n)}
			case fine2coarse[gv] >= 0:
				return nil, nil, &StitchError{pe, fmt.Errorf("fine node %d covered twice", gv)}
			case c < 0 || int(c) >= total:
				return nil, nil, &StitchError{pe, fmt.Errorf("fine node %d maps to coarse id %d outside [0, %d)", gv, c, total)}
			}
			fine2coarse[gv] = c
			coarseWeight[c] += g.NodeWeight(gv)
		}
	}
	for v, c := range fine2coarse {
		if c < 0 {
			return nil, nil, &StitchError{-1, fmt.Errorf("fine node %d covered by no part", v)}
		}
	}
	b := graph.NewBuilder(total)
	for pe, p := range parts {
		for i, w := range p.Weights {
			c := p.FirstCoarse + int32(i)
			if w != coarseWeight[c] {
				return nil, nil, &StitchError{pe, fmt.Errorf("coarse node %d has weight %d, its fine members %d", c, w, coarseWeight[c])}
			}
			b.SetNodeWeight(c, w)
		}
		if coords == 3 {
			for i := range p.Weights {
				b.SetCoord3(p.FirstCoarse+int32(i), p.CX[i], p.CY[i], p.CZ[i])
			}
		} else if coords == 2 {
			for i := range p.Weights {
				b.SetCoord(p.FirstCoarse+int32(i), p.CX[i], p.CY[i])
			}
		}
		for i := range p.EdgeU {
			b.AddEdge(p.EdgeU[i], p.EdgeV[i], p.EdgeW[i])
		}
	}
	return b.Build(), fine2coarse, nil
}

// ContractSubgraph is the contraction half of one PE's level program: the
// superstep sequence ONE processing element executes to contract its shard
// (core.RunPE runs it after matching). The contraction of a pair matched
// across a cut is owned by the PE owning the endpoint with the smaller
// global id; each cut edge is contributed by exactly one side (again the
// smaller-global-id endpoint's owner), so once Gather stitches the parts,
// coarse edge weights come out identical to a shared-memory contraction of
// the same matching.
func ContractSubgraph(sg *dist.Subgraph, m matching.Matching, ex dist.Transport, pe int) *PEContraction {
	g := sg.Local
	owned := sg.NumOwned
	p := &PEContraction{}

	// Step 1: decide, for every owned node, which coarse node it joins and
	// who owns that coarse node. Owned nodes are stored in ascending global
	// id order, so "smaller local id" and "smaller global id" agree for
	// owned–owned pairs.
	const remote = int32(-2) // coarse id owned by the partner's PE, arrives in step 3
	cLocal := make([]int32, owned)
	nOwn := int32(0)
	for lv := int32(0); lv < int32(owned); lv++ {
		lu := m[lv]
		switch {
		case lu < 0: // unmatched: singleton coarse node
			cLocal[lv] = nOwn
			nOwn++
		case int(lu) < owned: // matched inside the PE
			if lu > lv {
				cLocal[lv] = nOwn
				nOwn++
			} else {
				cLocal[lv] = cLocal[lu]
			}
		default: // matched across a cut: smaller global id owns the pair
			if sg.ToGlobal(lv) < sg.ToGlobal(lu) {
				cLocal[lv] = nOwn
				nOwn++
			} else {
				cLocal[lv] = remote
			}
		}
	}

	// Step 2: prefix-sum the per-PE coarse-node counts for the global
	// numbering.
	countOut := make([][]dist.Msg, ex.PEs())
	for q := range countOut {
		countOut[q] = []dist.Msg{{Kind: dist.MsgCount, W: int64(nOwn)}}
	}
	base := int32(0)
	for i, msg := range ex.Exchange(pe, countOut) {
		if i < pe {
			base += int32(msg.W)
		}
	}
	p.FirstCoarse = base

	// Owned coarse node weights and coordinates: the pair partner — even a
	// ghost one — has its weight and coordinates copied into the subgraph,
	// so both are computable locally.
	p.Weights = make([]int64, nOwn)
	hasCoords := g.HasCoords()
	if hasCoords {
		p.CX = make([]float64, nOwn)
		p.CY = make([]float64, nOwn)
		if g.CoordDims() == 3 {
			p.CZ = make([]float64, nOwn)
		}
	}
	members := make([]int32, nOwn) // member count per owned coarse node
	for lv := int32(0); lv < int32(owned); lv++ {
		c := cLocal[lv]
		if c == remote {
			continue
		}
		addMember(p, g, c, lv, members, hasCoords)
		// A cut pair's ghost member is visible only to the owning side.
		if lu := m[lv]; lu >= 0 && int(lu) >= owned {
			addMember(p, g, c, lu, members, hasCoords)
		}
	}
	for c := int32(0); c < nOwn; c++ {
		if hasCoords && members[c] > 0 {
			p.CX[c] /= float64(members[c])
			p.CY[c] /= float64(members[c])
			if p.CZ != nil {
				p.CZ[c] /= float64(members[c])
			}
		}
	}

	// Step 3: send the coarse global id of every cut-matched pair to the
	// partner's owner, so the non-owning side learns where its node went.
	crossOut := make([][]dist.Msg, ex.PEs())
	for lv := int32(0); lv < int32(owned); lv++ {
		lu := m[lv]
		if lu >= 0 && int(lu) >= owned && cLocal[lv] != remote {
			q := sg.GhostOwner[int(lu)-owned]
			crossOut[q] = append(crossOut[q], dist.Msg{
				Kind: dist.MsgCoarseID, A: sg.ToGlobal(lu), B: base + cLocal[lv],
			})
		}
	}
	cGlobal := make([]int32, owned)
	for lv := range cGlobal {
		if cLocal[lv] == remote {
			cGlobal[lv] = -1
		} else {
			cGlobal[lv] = base + cLocal[lv]
		}
	}
	for _, msg := range ex.Exchange(pe, crossOut) {
		if msg.Kind != dist.MsgCoarseID {
			continue
		}
		if lv, ok := sg.ToLocal(msg.A); ok && int(lv) < owned {
			cGlobal[lv] = msg.B
		}
	}

	// Step 4: publish the coarse id of every boundary node to the PEs that
	// hold it as a ghost, and collect the same for this PE's ghosts.
	bcastOut := make([][]dist.Msg, ex.PEs())
	for lv, peers := range sg.BoundaryPeers() {
		for _, q := range peers {
			bcastOut[q] = append(bcastOut[q], dist.Msg{
				Kind: dist.MsgCoarseID, A: sg.ToGlobal(int32(lv)), B: cGlobal[lv],
			})
		}
	}
	ghostCoarse := make([]int32, sg.NumGhosts())
	for i := range ghostCoarse {
		ghostCoarse[i] = -1
	}
	for _, msg := range ex.Exchange(pe, bcastOut) {
		if msg.Kind != dist.MsgCoarseID {
			continue
		}
		if lu, ok := sg.ToLocal(msg.A); ok && int(lu) >= owned {
			ghostCoarse[int(lu)-owned] = msg.B
		}
	}

	// Step 5: coarse edge contributions. Each fine edge is contributed once,
	// by the owner of its smaller-global-id endpoint; edges internal to a
	// coarse node vanish.
	for lv := int32(0); lv < int32(owned); lv++ {
		gv := sg.ToGlobal(lv)
		adj, ws := g.Adj(lv), g.AdjWeights(lv)
		for i, lu := range adj {
			var cu int32
			if int(lu) < owned {
				if lu < lv {
					continue
				}
				cu = cGlobal[lu]
			} else {
				if sg.ToGlobal(lu) < gv {
					continue
				}
				cu = ghostCoarse[int(lu)-owned]
			}
			if cu == cGlobal[lv] || cu < 0 {
				continue
			}
			p.EdgeU = append(p.EdgeU, cGlobal[lv])
			p.EdgeV = append(p.EdgeV, cu)
			p.EdgeW = append(p.EdgeW, ws[i])
		}
	}

	p.FineGlobal = make([]int32, owned)
	p.FineCoarse = make([]int32, owned)
	for lv := int32(0); lv < int32(owned); lv++ {
		p.FineGlobal[lv] = sg.ToGlobal(lv)
		p.FineCoarse[lv] = cGlobal[lv]
	}
	return p
}

// addMember folds fine node lv into owned coarse node c.
func addMember(p *PEContraction, g *graph.Graph, c, lv int32, members []int32, hasCoords bool) {
	p.Weights[c] += g.NodeWeight(lv)
	if hasCoords {
		x, y, z := g.Coord3(lv)
		p.CX[c] += x
		p.CY[c] += y
		if p.CZ != nil {
			p.CZ[c] += z
		}
	}
	members[c]++
}
