// Package dist distributes graph nodes over processing elements (PEs), the
// prepartitioning layer of §3.3 of the paper ("Engineering a Scalable High
// Quality Graph Partitioner", Holtgrewe, Sanders, Schulz, IPDPS 2010).
//
// Before the parallel coarsening phase can match in parallel, every node must
// live on some PE; the quality of that assignment decides how much of the
// matching work is PE-local (cheap) versus in the cross-PE gap graph
// (expensive). The package implements the paper's two assignments and one
// cheaper geometric alternative:
//
//   - IndexRanges / WeightedRanges — contiguous index ranges, the fallback of
//     §3.3 when no geometry is available. Zero-cost, balance is exact, but
//     edge locality is whatever the input numbering happens to provide.
//   - RCB — recursive coordinate bisection over node
//     coordinates, the paper's choice for geometric instances (rgg, Delaunay,
//     street networks): recursively split the longest axis at the weighted
//     median. Handles non-power-of-two PE counts by splitting PE groups
//     proportionally.
//   - Hilbert / Morton — space-filling-curve orderings, a cheaper geometric
//     alternative not in the paper: sort nodes along the curve once and cut
//     the order into weighted ranges. One sort instead of a sort per
//     bisection level, locality close to RCB on mesh-like inputs.
//
// Strategy and Assign select between them; EdgeLocality and Imbalance make
// the strategies comparable; ExtractAll materializes each PE's local subgraph
// plus its ghost (halo) layer with local↔global ID maps; and Exchanger is
// the channel-backed bulk-synchronous message layer (one mailbox per PE)
// over which the PEs trade ghost-node state during distributed coarsening —
// together the building blocks of the PE-local contraction phase in
// internal/matching and internal/coarsen.
package dist

import (
	"fmt"
	"strings"

	"repro/internal/graph"
)

// Strategy names a node-to-PE distribution strategy.
type Strategy int

const (
	// StrategyAuto picks RCB when the graph carries coordinates and
	// weighted index ranges otherwise — the paper's §3.3 behavior.
	StrategyAuto Strategy = iota
	// StrategyRanges assigns contiguous, node-weight-balanced index ranges.
	StrategyRanges
	// StrategyRCB is recursive coordinate bisection (requires coordinates;
	// falls back to ranges without them).
	StrategyRCB
	// StrategySFC orders nodes along a Hilbert space-filling curve and cuts
	// the order into weighted ranges (requires coordinates; falls back to
	// ranges without them).
	StrategySFC
)

// String returns the flag-level name of the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyAuto:
		return "auto"
	case StrategyRanges:
		return "ranges"
	case StrategyRCB:
		return "rcb"
	case StrategySFC:
		return "sfc"
	default:
		return fmt.Sprintf("dist.Strategy(%d)", int(s))
	}
}

// ParseStrategy parses a flag-level strategy name, case-insensitively.
func ParseStrategy(name string) (Strategy, error) {
	switch strings.ToLower(name) {
	case "auto", "":
		return StrategyAuto, nil
	case "ranges", "index":
		return StrategyRanges, nil
	case "rcb":
		return StrategyRCB, nil
	case "sfc", "hilbert":
		return StrategySFC, nil
	default:
		return StrategyAuto, fmt.Errorf("dist: unknown strategy %q (want auto|ranges|rcb|sfc)", name)
	}
}

// Assign distributes the nodes of g over pes PEs with the given strategy and
// returns the PE of every node. Geometric strategies fall back to weighted
// index ranges when g has no coordinates, so Assign never fails. Node weights
// are respected by every strategy.
func Assign(g *graph.Graph, s Strategy, pes int) []int32 {
	n := g.NumNodes()
	if pes <= 1 {
		return make([]int32, n)
	}
	switch s {
	case StrategyRCB, StrategyAuto:
		if g.HasCoords() {
			// All available dimensions: real 3D bisection for 3D inputs.
			return RCB(g.CoordSlices(), nodeWeights(g), pes)
		}
	case StrategySFC:
		if g.CoordDims() == 3 {
			x, y, z := g.Coords3()
			return Hilbert3D(x, y, z, nodeWeights(g), pes)
		}
		if g.HasCoords() {
			x, y := g.Coords()
			return Hilbert(x, y, nodeWeights(g), pes)
		}
	}
	return WeightedRanges(nodeWeights(g), pes)
}

// nodeWeights copies the node weights of g into a slice.
func nodeWeights(g *graph.Graph) []int64 {
	w := make([]int64, g.NumNodes())
	for v := range w {
		w[v] = g.NodeWeight(int32(v))
	}
	return w
}
