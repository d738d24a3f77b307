package coarsen

import (
	"errors"
	"testing"

	"repro/internal/gen"
)

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
