package dist

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestExtractGhostRoundTrip(t *testing.T) {
	g := gen.Grid2D(16, 16)
	assign := IndexRanges(g.NumNodes(), 4)
	for _, s := range ExtractAll(g, assign, 4) {
		if s.Local.NumNodes() == 0 {
			t.Fatalf("PE %d: empty subgraph", s.PE)
		}
		if err := s.Local.Validate(); err != nil {
			t.Fatalf("PE %d: invalid local graph: %v", s.PE, err)
		}
		for li := int32(0); int(li) < s.Local.NumNodes(); li++ {
			global := s.ToGlobal(li)
			back, ok := s.ToLocal(global)
			if !ok || back != li {
				t.Fatalf("PE %d: round trip %d -> %d -> (%d,%v)", s.PE, li, global, back, ok)
			}
			if s.IsGhost(li) != (assign[global] != s.PE) {
				t.Fatalf("PE %d: ghost flag wrong for local %d (global %d)", s.PE, li, global)
			}
			if s.Local.NodeWeight(li) != g.NodeWeight(global) {
				t.Fatalf("PE %d: node weight mismatch at local %d", s.PE, li)
			}
		}
		for gi, owner := range s.GhostOwner {
			global := s.ToGlobal(int32(s.NumOwned + gi))
			if assign[global] != owner {
				t.Fatalf("PE %d: ghost %d owner recorded %d, assignment says %d", s.PE, gi, owner, assign[global])
			}
			if owner == s.PE {
				t.Fatalf("PE %d: ghost %d owned by itself", s.PE, gi)
			}
		}
	}
}

// TestExtractEdgeConservation: every global edge appears in the subgraph of
// each endpoint's owner — internal edges in exactly one subgraph, cut edges
// in exactly two (once per side) — and no subgraph carries ghost–ghost edges.
func TestExtractEdgeConservation(t *testing.T) {
	g := gen.RGG(10, 5)
	pes := 5
	x, y := g.Coords()
	assign := RCB([][]float64{x, y}, nil, pes)
	internal := g.NumEdges() - int(countCut(g, assign))
	cut := int(countCut(g, assign))

	totalLocal, totalCross := 0, 0
	for _, s := range ExtractAll(g, assign, pes) {
		for v := int32(0); int(v) < s.Local.NumNodes(); v++ {
			for _, u := range s.Local.Adj(v) {
				if u <= v {
					continue
				}
				if s.IsGhost(v) && s.IsGhost(u) {
					t.Fatalf("PE %d: ghost-ghost edge {%d,%d}", s.PE, v, u)
				}
				gv, gu := s.ToGlobal(v), s.ToGlobal(u)
				if w := g.EdgeWeightTo(gv, gu); w == 0 {
					t.Fatalf("PE %d: local edge {%d,%d} has no global counterpart", s.PE, v, u)
				}
				if s.IsGhost(v) || s.IsGhost(u) {
					totalCross++
				} else {
					totalLocal++
				}
			}
		}
	}
	if totalLocal != internal {
		t.Errorf("internal edges: subgraphs carry %d, global graph has %d", totalLocal, internal)
	}
	if totalCross != 2*cut {
		t.Errorf("cut edges: subgraphs carry %d halves, want %d", totalCross, 2*cut)
	}
}

// countCut counts cross-PE undirected edges (unweighted).
func countCut(g *graph.Graph, assign []int32) int64 {
	var cut int64
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		for _, u := range g.Adj(v) {
			if u > v && assign[v] != assign[u] {
				cut++
			}
		}
	}
	return cut
}

func TestExtractCoordsAndEmptyPE(t *testing.T) {
	g := gen.Grid2D(8, 8)
	// Assign everything to PE 0: PE 1's subgraph is empty but well-formed.
	assign := make([]int32, g.NumNodes())
	subs := ExtractAll(g, assign, 2)
	if subs[0].Local.NumNodes() != g.NumNodes() || subs[0].NumGhosts() != 0 {
		t.Errorf("PE 0 should own the whole graph")
	}
	if subs[0].Local.NumEdges() != g.NumEdges() {
		t.Errorf("PE 0 has %d edges, want %d", subs[0].Local.NumEdges(), g.NumEdges())
	}
	if !subs[0].Local.HasCoords() {
		t.Errorf("coordinates must survive extraction")
	}
	if subs[1].Local.NumNodes() != 0 {
		t.Errorf("PE 1 should be empty, has %d nodes", subs[1].Local.NumNodes())
	}
}
