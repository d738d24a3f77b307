package coarsen_test

import (
	"testing"
	"time"

	"repro/internal/coarsen"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/rating"
)

// distContract runs one full distributed contraction level — the per-PE
// level program on goroutine PEs, gathered into the next-level graph — and
// returns its products plus the merged global matching.
func distContract(t *testing.T, g *graph.Graph, pes int, seed uint64) (*graph.Graph, []int32, matching.Matching) {
	return distContractOver(t, g, dist.NewExchanger(pes), dist.Assign(g, dist.StrategyAuto, pes), seed)
}

// distContractOver is distContract over an explicit Transport and node-to-PE
// assignment, so the equivalence tests can run against any message-passing
// backend. The global matching is recomputed by the in-process reference
// matcher, matching.Distributed, over the same transport: matching is
// deterministic for a fixed seed, so it is the matching the level
// contracted.
func distContractOver(t *testing.T, g *graph.Graph, tr dist.Transport, assign []int32, seed uint64) (*graph.Graph, []int32, matching.Matching) {
	t.Helper()
	cfg := core.Config{Rating: rating.ExpansionStar2, Matcher: matching.GPA, Seed: seed, GapMatching: true}
	cg, f2c, _, _, err := core.DistributedLevel(g, &cfg, assign, tr, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cg == nil {
		t.Fatal("no PE matched")
	}
	sgs := dist.ExtractAll(g, assign, tr.PEs())
	ms := matching.Distributed(sgs, tr, cfg.Rating, cfg.Matcher, seed, 0, true)
	gm := matching.GlobalFromSubgraphs(g.NumNodes(), sgs, ms)
	if err := gm.Validate(g); err != nil {
		t.Fatalf("matching invalid: %v", err)
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
		sg, sf2c := coarsen.Contract(tc.g, gm)

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
	cg2, f2c2, gm2 := distContractOver(t, g, dist.NewLockstepTransport(pes), dist.Assign(g, dist.StrategyAuto, pes), seed)
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
	cg, f2c, _ := distContractOver(t, g, dist.NewExchanger(3), assign, 9)
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

// TestGatherEmptyAndSlowest pins Gather's fold: no matched PE means no
// coarse graph (and no stitching, so the missing parts are fine), and the
// reported kernel times are the slowest PE's.
func TestGatherEmptyAndSlowest(t *testing.T) {
	g := gen.Grid2D(2, 2)
	cg, f2c, mt, _, err := coarsen.Gather(g, []coarsen.PELevel{{PE: 0, MatchNanos: 5}, {PE: 1, MatchNanos: 9}})
	if cg != nil || f2c != nil || err != nil || mt != 9 {
		t.Fatalf("empty level gathered to %v, %v, match %v, %v", cg, f2c, mt, err)
	}
	parts := []*coarsen.PEContraction{
		{FirstCoarse: 0, Weights: []int64{2}, CX: []float64{0}, CY: []float64{0},
			EdgeU: []int32{0}, EdgeV: []int32{1}, EdgeW: []int64{2},
			FineGlobal: []int32{0, 1}, FineCoarse: []int32{0, 0}},
		{FirstCoarse: 1, Weights: []int64{2}, CX: []float64{1}, CY: []float64{1},
			FineGlobal: []int32{2, 3}, FineCoarse: []int32{1, 1}},
	}
	cg, _, mt, ct, err := coarsen.Gather(g, []coarsen.PELevel{
		{PE: 0, Matched: 2, MatchNanos: 7, ContractNanos: 3, Part: parts[0]},
		{PE: 1, Matched: 0, MatchNanos: 4, ContractNanos: 8, Part: parts[1]},
	})
	if err != nil || cg == nil || cg.NumNodes() != 2 {
		t.Fatalf("matched level gathered to %v, %v", cg, err)
	}
	if mt != 7*time.Nanosecond || ct != 8*time.Nanosecond {
		t.Fatalf("kernel times %v/%v, want the slowest PE's 7ns/8ns", mt, ct)
	}
}
