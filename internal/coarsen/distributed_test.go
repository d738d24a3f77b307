package coarsen

import (
	"errors"
	"testing"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/rating"
)

// distContract runs the full distributed coarsening step (extract, match,
// contract, stitch) and returns its products plus the merged global
// matching.
func distContract(t *testing.T, g *graph.Graph, pes int, seed uint64) (*graph.Graph, []int32, matching.Matching) {
	return distContractOver(t, g, dist.NewExchanger(pes), pes, seed)
}

// distContractOver is distContract over an explicit Transport, so the
// equivalence tests can run against any message-passing backend.
func distContractOver(t *testing.T, g *graph.Graph, ex dist.Transport, pes int, seed uint64) (*graph.Graph, []int32, matching.Matching) {
	t.Helper()
	assign := dist.Assign(g, dist.StrategyAuto, pes)
	sgs := dist.ExtractAll(g, assign, pes)
	ms := matching.Distributed(sgs, ex, rating.ExpansionStar2, matching.GPA, seed, 0, true)
	gm := matching.GlobalFromSubgraphs(g.NumNodes(), sgs, ms)
	if err := gm.Validate(g); err != nil {
		t.Fatalf("matching invalid: %v", err)
	}
	cg, f2c, err := ContractDistributed(g, sgs, ms, ex)
	if err != nil {
		t.Fatal(err)
	}
	return cg, f2c, gm
}

// TestContractDistributedMatchesShared stitches the PE-local contractions
// and checks them against a shared-memory contraction of the *same* global
// matching: identical coarse node count, identical member groups, and
// identical coarse edge weights between corresponding groups.
func TestContractDistributedMatchesShared(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		pes  int
	}{
		{"grid", gen.Grid2D(16, 16), 4},
		{"rgg", gen.RGG(9, 5), 5},
		{"road", gen.Road(600, 4, 6), 3},
	} {
		cg, f2c, gm := distContract(t, tc.g, tc.pes, 17)
		sg, sf2c := Contract(tc.g, gm)

		if cg.NumNodes() != sg.NumNodes() {
			t.Fatalf("%s: %d coarse nodes distributed vs %d shared", tc.name, cg.NumNodes(), sg.NumNodes())
		}
		if err := cg.Validate(); err != nil {
			t.Fatalf("%s: stitched graph invalid: %v", tc.name, err)
		}
		if cg.TotalNodeWeight() != tc.g.TotalNodeWeight() {
			t.Fatalf("%s: node weight not conserved: %d vs %d", tc.name, cg.TotalNodeWeight(), tc.g.TotalNodeWeight())
		}

		// The two contractions may number coarse nodes differently; relate
		// them through any fine member node.
		n := tc.g.NumNodes()
		d2s := make([]int32, cg.NumNodes())
		for i := range d2s {
			d2s[i] = -1
		}
		for v := 0; v < n; v++ {
			dc, sc := f2c[v], sf2c[v]
			if d2s[dc] >= 0 && d2s[dc] != sc {
				t.Fatalf("%s: fine node %d splits coarse node %d across %d and %d", tc.name, v, dc, d2s[dc], sc)
			}
			d2s[dc] = sc
		}
		for dc := int32(0); dc < int32(cg.NumNodes()); dc++ {
			sc := d2s[dc]
			if cg.NodeWeight(dc) != sg.NodeWeight(sc) {
				t.Fatalf("%s: coarse node %d weight %d vs shared %d", tc.name, dc, cg.NodeWeight(dc), sg.NodeWeight(sc))
			}
			if cg.Degree(dc) != sg.Degree(sc) {
				t.Fatalf("%s: coarse node %d degree %d vs shared %d", tc.name, dc, cg.Degree(dc), sg.Degree(sc))
			}
			adj, ws := cg.Adj(dc), cg.AdjWeights(dc)
			for i, du := range adj {
				if w := sg.EdgeWeightTo(sc, d2s[du]); w != ws[i] {
					t.Fatalf("%s: coarse edge {%d,%d} weight %d vs shared %d", tc.name, dc, du, ws[i], w)
				}
			}
		}
	}
}

// TestContractDistributedDeterminism reruns the whole distributed level and
// expects byte-identical products.
func TestContractDistributedDeterminism(t *testing.T) {
	g := gen.DelaunayX(9, 4)
	cg1, f2c1, _ := distContract(t, g, 6, 23)
	cg2, f2c2, _ := distContract(t, g, 6, 23)
	if cg1.NumNodes() != cg2.NumNodes() || cg1.NumEdges() != cg2.NumEdges() {
		t.Fatalf("coarse shape differs across runs: %d/%d vs %d/%d",
			cg1.NumNodes(), cg1.NumEdges(), cg2.NumNodes(), cg2.NumEdges())
	}
	for v := range f2c1 {
		if f2c1[v] != f2c2[v] {
			t.Fatalf("fine2coarse differs at node %d: %d vs %d", v, f2c1[v], f2c2[v])
		}
	}
	for v := int32(0); v < int32(cg1.NumNodes()); v++ {
		a1, a2 := cg1.Adj(v), cg2.Adj(v)
		w1, w2 := cg1.AdjWeights(v), cg2.AdjWeights(v)
		if len(a1) != len(a2) {
			t.Fatalf("degree differs at coarse node %d", v)
		}
		for i := range a1 {
			if a1[i] != a2[i] || w1[i] != w2[i] {
				t.Fatalf("adjacency differs at coarse node %d", v)
			}
		}
	}
}

// TestContractDistributedTransportSwap runs the whole distributed level
// over the barrier-based LockstepTransport and expects products
// byte-identical to the channel Exchanger's — distributed coarsening must
// depend only on the Transport contract, not on the Exchanger's machinery.
func TestContractDistributedTransportSwap(t *testing.T) {
	g := gen.DelaunayX(9, 4)
	const pes, seed = 6, 23
	cg1, f2c1, gm1 := distContract(t, g, pes, seed)
	cg2, f2c2, gm2 := distContractOver(t, g, dist.NewLockstepTransport(pes), pes, seed)
	if cg1.NumNodes() != cg2.NumNodes() || cg1.NumEdges() != cg2.NumEdges() {
		t.Fatalf("coarse shape differs across transports: %d/%d vs %d/%d",
			cg1.NumNodes(), cg1.NumEdges(), cg2.NumNodes(), cg2.NumEdges())
	}
	for v := range gm1 {
		if gm1[v] != gm2[v] {
			t.Fatalf("global matching differs at node %d: %d vs %d", v, gm1[v], gm2[v])
		}
	}
	for v := range f2c1 {
		if f2c1[v] != f2c2[v] {
			t.Fatalf("fine2coarse differs at node %d: %d vs %d", v, f2c1[v], f2c2[v])
		}
	}
	for v := int32(0); v < int32(cg1.NumNodes()); v++ {
		a1, a2 := cg1.Adj(v), cg2.Adj(v)
		w1, w2 := cg1.AdjWeights(v), cg2.AdjWeights(v)
		if len(a1) != len(a2) {
			t.Fatalf("degree differs at coarse node %d", v)
		}
		for i := range a1 {
			if a1[i] != a2[i] || w1[i] != w2[i] {
				t.Fatalf("adjacency differs at coarse node %d", v)
			}
		}
	}
}

// TestContractDistributedEmptyPE contracts with an assignment that leaves
// one PE without any nodes; the exchange rounds must not deadlock and the
// stitched result must still be consistent.
func TestContractDistributedEmptyPE(t *testing.T) {
	g := gen.Grid2D(6, 6)
	assign := make([]int32, g.NumNodes())
	for v := range assign {
		assign[v] = int32(v % 2 * 2) // PEs 0 and 2 own everything, PE 1 nothing
	}
	sgs := dist.ExtractAll(g, assign, 3)
	ex := dist.NewExchanger(3)
	ms := matching.Distributed(sgs, ex, rating.ExpansionStar2, matching.GPA, 9, 0, true)
	cg, f2c, err := ContractDistributed(g, sgs, ms, ex)
	if err != nil {
		t.Fatal(err)
	}
	if err := cg.Validate(); err != nil {
		t.Fatalf("stitched graph invalid: %v", err)
	}
	if cg.TotalNodeWeight() != g.TotalNodeWeight() {
		t.Fatal("node weight not conserved")
	}
	for v, c := range f2c {
		if c < 0 || int(c) >= cg.NumNodes() {
			t.Fatalf("fine2coarse[%d] = %d out of range", v, c)
		}
	}
}

// TestStitchRejectsInconsistentParts feeds Stitch worker-style parts that do
// not describe a contraction of the fine graph. Each must come back as a
// *StitchError naming the offending PE instead of panicking in the builder
// or indexing past the fine→coarse map.
func TestStitchRejectsInconsistentParts(t *testing.T) {
	g := gen.Grid2D(2, 2) // 4 nodes, unit weights, 2D coordinates
	// valid contracts nodes {0,1} into coarse 0 and {2,3} into coarse 1,
	// PE 0 owning coarse 0 and PE 1 owning coarse 1.
	valid := func() []*PEContraction {
		return []*PEContraction{
			{FirstCoarse: 0, Weights: []int64{2}, CX: []float64{0}, CY: []float64{0},
				EdgeU: []int32{0}, EdgeV: []int32{1}, EdgeW: []int64{2},
				FineGlobal: []int32{0, 1}, FineCoarse: []int32{0, 0}},
			{FirstCoarse: 1, Weights: []int64{2}, CX: []float64{1}, CY: []float64{1},
				FineGlobal: []int32{2, 3}, FineCoarse: []int32{1, 1}},
		}
	}
	cg, f2c, err := Stitch(g, valid())
	if err != nil {
		t.Fatalf("valid parts rejected: %v", err)
	}
	if cg.NumNodes() != 2 || cg.NumEdges() != 1 || len(f2c) != 4 {
		t.Fatalf("valid parts stitched to %d nodes, %d edges", cg.NumNodes(), cg.NumEdges())
	}

	cases := []struct {
		name   string
		pe     int
		mutate func(ps []*PEContraction)
	}{
		{"fine node out of range", 0, func(ps []*PEContraction) { ps[0].FineGlobal = []int32{99}; ps[0].FineCoarse = []int32{0} }},
		{"fine node covered twice", 1, func(ps []*PEContraction) { ps[1].FineGlobal[0] = 1 }},
		{"fine node uncovered", -1, func(ps []*PEContraction) {
			ps[1].FineGlobal, ps[1].FineCoarse = ps[1].FineGlobal[:1], ps[1].FineCoarse[:1]
		}},
		{"coarse id out of range", 1, func(ps []*PEContraction) { ps[1].FineCoarse[1] = 2 }},
		{"edge endpoint out of range", 0, func(ps []*PEContraction) { ps[0].EdgeV[0] = -1 }},
		{"non-positive edge weight", 0, func(ps []*PEContraction) { ps[0].EdgeW[0] = 0 }},
		{"edge arrays mismatched", 0, func(ps []*PEContraction) { ps[0].EdgeW = nil }},
		{"fine arrays mismatched", 1, func(ps []*PEContraction) { ps[1].FineCoarse = ps[1].FineCoarse[:1] }},
		{"coordinates mismatched", 1, func(ps []*PEContraction) { ps[1].CY = nil }},
		{"first coarse id gap", 1, func(ps []*PEContraction) { ps[1].FirstCoarse = 2 }},
		{"missing part", 1, func(ps []*PEContraction) { ps[1] = nil }},
		{"weight not conserved", 0, func(ps []*PEContraction) { ps[0].Weights[0] = 3 }},
	}
	for _, tc := range cases {
		ps := valid()
		tc.mutate(ps)
		_, _, err := Stitch(g, ps)
		var se *StitchError
		if !errors.As(err, &se) {
			t.Errorf("%s: got %v, want a *StitchError", tc.name, err)
			continue
		}
		if se.PE != tc.pe {
			t.Errorf("%s: blamed PE %d, want %d (%v)", tc.name, se.PE, tc.pe, err)
		}
	}
}
