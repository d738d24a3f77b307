package matching

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rating"
)

// runDistributed extracts subgraphs for assign, runs the distributed
// matcher, and returns the merged global matching.
func runDistributed(t *testing.T, g *graph.Graph, assign []int32, pes int, rf rating.Func, alg Algorithm, seed uint64, maxPair int64, boundary bool) Matching {
	t.Helper()
	sgs := dist.ExtractAll(g, assign, pes)
	ex := dist.NewExchanger(pes)
	ms := Distributed(sgs, ex, rf, alg, seed, maxPair, boundary)
	gm := GlobalFromSubgraphs(g.NumNodes(), sgs, ms)
	if err := gm.Validate(g); err != nil {
		t.Fatalf("distributed matching invalid: %v", err)
	}
	return gm
}

// TestDistributedMutualProposal builds the worked example of the two-phase
// boundary resolution: a cut edge that is the best edge of both endpoints,
// so both PEs propose it to each other in the same round; the mutual
// proposals must be accepted and the lighter local matches dissolved.
func TestDistributedMutualProposal(t *testing.T) {
	// PE 0 owns {0,1}, PE 1 owns {2,3}. Edge weights: 0-1 and 2-3 are light
	// internal edges (weight 1); the cut edge 1-2 is heavy (weight 10).
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 10)
	b.AddEdge(2, 3, 1)
	g := b.Build()
	assign := []int32{0, 0, 1, 1}

	gm := runDistributed(t, g, assign, 2, rating.Weight, GPA, 7, 0, true)
	if gm[1] != 2 || gm[2] != 1 {
		t.Fatalf("cut edge {1,2} not matched: m[1]=%d m[2]=%d", gm[1], gm[2])
	}
	if gm[0] != -1 || gm[3] != -1 {
		t.Fatalf("local matches not dissolved: m[0]=%d m[3]=%d", gm[0], gm[3])
	}

	// Without the boundary phase the cut edge must stay unmatched and the
	// internal edges win.
	gm = runDistributed(t, g, assign, 2, rating.Weight, GPA, 7, 0, false)
	if gm[0] != 1 || gm[2] != 3 {
		t.Fatalf("boundary=false: want internal matches, got %v", gm)
	}
}

// TestDistributedEmptySubgraph gives one PE no nodes at all: the exchange
// rounds must stay in lockstep (no deadlock) and the result must still be a
// valid matching.
func TestDistributedEmptySubgraph(t *testing.T) {
	g := gen.Grid2D(8, 8)
	assign := make([]int32, g.NumNodes())
	for v := range assign {
		// PEs 0 and 2 share the nodes; PE 1 owns nothing.
		assign[v] = int32(v%2) * 2
	}
	gm := runDistributed(t, g, assign, 3, rating.ExpansionStar2, GPA, 3, 0, true)
	if gm.Size() == 0 {
		t.Fatal("expected a non-empty matching")
	}
}

// TestDistributedBothEndpointsPropose covers the degenerate two-node-per-PE
// star where several boundary nodes compete for the same ghost: only mutual
// proposals may match, and the result must stay a valid matching.
func TestDistributedContestedGhost(t *testing.T) {
	// PEs 0,1,2 each own one spoke; PE 3 owns the hub. All spokes' best edge
	// is the hub, but the hub proposes to exactly one spoke per round.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 3, 5)
	b.AddEdge(1, 3, 5)
	b.AddEdge(2, 3, 5)
	g := b.Build()
	gm := runDistributed(t, g, []int32{0, 1, 2, 3}, 4, rating.Weight, GPA, 11, 0, true)
	if gm.Size() != 1 {
		t.Fatalf("hub can match exactly one spoke, got %d pairs", gm.Size())
	}
}

// TestDistributedDeterminism reruns the distributed matcher on identical
// inputs: the result must be byte-identical, for every algorithm, including
// when the number of worker PEs exceeds GOMAXPROCS.
func TestDistributedDeterminism(t *testing.T) {
	g := gen.RGG(10, 42)
	for _, alg := range []Algorithm{GPA, SHEM, Greedy} {
		for _, pes := range []int{2, 7} {
			assign := dist.Assign(g, dist.StrategyRCB, pes)
			ref := runDistributed(t, g, assign, pes, rating.ExpansionStar2, alg, 99, 8, true)
			for rep := 0; rep < 3; rep++ {
				got := runDistributed(t, g, assign, pes, rating.ExpansionStar2, alg, 99, 8, true)
				for v := range ref {
					if got[v] != ref[v] {
						t.Fatalf("%v/pes=%d: node %d matched to %d, then %d", alg, pes, v, ref[v], got[v])
					}
				}
			}
		}
	}
}

// TestDistributedRespectsMaxPair checks the cluster-weight cap across the
// cut: a heavy cut edge whose endpoints together exceed the cap must not be
// matched, even though its rating would win.
func TestDistributedRespectsMaxPair(t *testing.T) {
	b := graph.NewBuilder(4)
	b.SetNodeWeight(1, 5)
	b.SetNodeWeight(2, 5)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 100)
	b.AddEdge(2, 3, 1)
	g := b.Build()
	gm := runDistributed(t, g, []int32{0, 0, 1, 1}, 2, rating.Weight, GPA, 1, 7, true)
	if gm[1] == 2 {
		t.Fatal("cut pair {1,2} exceeds maxPair=7 but was matched")
	}
}
