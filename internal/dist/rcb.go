package dist

import "sort"

// RCB is recursive coordinate bisection (§3.3) over any number of
// coordinate dimensions: the current node set is split at the weighted
// median of its widest dimension (the one with the largest extent; the
// lowest dimension index wins ties), the two halves recurse on the two
// halves of the PE group. Non-power-of-two PE counts are handled by
// splitting a p-PE group into ⌊p/2⌋ and ⌈p/2⌉ PEs and placing the cut at
// the matching weight fraction. w == nil means unit weights. The result is
// deterministic: ties in coordinates are broken by node id. With two
// dimensions this is exactly the classic 2D RCB; 3D instances (e.g. Grid3D)
// get real geometric bisection instead of an index-range fallback.
//
//kappa:invariant the distributor only selects RCB for graphs that carry coordinates
func RCB(dims [][]float64, w []int64, pes int) []int32 {
	if len(dims) == 0 {
		panic("dist: RCB needs at least one coordinate dimension")
	}
	n := len(dims[0])
	assign := make([]int32, n)
	if pes <= 1 || n == 0 {
		return assign
	}
	wt := func(v int32) int64 {
		if w == nil {
			return 1
		}
		return w[v]
	}
	nodes := make([]int32, n)
	var total int64
	for v := range nodes {
		nodes[v] = int32(v)
		total += wt(int32(v))
	}
	var rec func(nodes []int32, weight int64, pe0, p int)
	rec = func(nodes []int32, weight int64, pe0, p int) {
		if p <= 1 || len(nodes) <= 1 {
			for _, v := range nodes {
				assign[v] = int32(pe0)
			}
			return
		}
		pl := p / 2
		pr := p - pl

		// Widest dimension of the bounding box of the current set.
		coord, widest := dims[0], extent(dims[0], nodes)
		for _, c := range dims[1:] {
			if e := extent(c, nodes); e > widest {
				coord, widest = c, e
			}
		}
		sort.Slice(nodes, func(i, j int) bool {
			a, b := nodes[i], nodes[j]
			if coord[a] != coord[b] {
				return coord[a] < coord[b]
			}
			return a < b
		})

		// Weighted median at fraction pl/p: the split index s is the first
		// position whose prefix weight reaches weight·pl/p; an all-zero
		// subset splits by node count instead. Clamping keeps both sides
		// non-empty so no PE starves while nodes remain.
		s, leftWeight := 0, int64(0)
		if weight == 0 {
			s = len(nodes) * pl / p
		} else {
			target := weight * int64(pl) / int64(p)
			for s < len(nodes) && leftWeight+wt(nodes[s])/2 < target {
				leftWeight += wt(nodes[s])
				s++
			}
		}
		lo, hi := minSide(pl, len(nodes), pr), len(nodes)-minSide(pr, len(nodes), pl)
		for s < lo {
			leftWeight += wt(nodes[s])
			s++
		}
		for s > hi {
			s--
			leftWeight -= wt(nodes[s])
		}
		rec(nodes[:s], leftWeight, pe0, pl)
		rec(nodes[s:], weight-leftWeight, pe0+pl, pr)
	}
	rec(nodes, total, 0, pes)
	return assign
}

// extent returns the coordinate spread of the node set along one dimension.
func extent(c []float64, nodes []int32) float64 {
	lo, hi := c[nodes[0]], c[nodes[0]]
	for _, v := range nodes[1:] {
		if c[v] < lo {
			lo = c[v]
		}
		if c[v] > hi {
			hi = c[v]
		}
	}
	return hi - lo
}

// minSide returns the minimum number of nodes the p-PE side of a split must
// receive so that no PE stays empty while nodes remain: p when the set is
// large enough, otherwise whatever is left after the other side took its
// share.
func minSide(p, n, otherP int) int {
	if n >= p+otherP {
		return p
	}
	if n > otherP {
		return n - otherP
	}
	return 0
}
