package dist

import (
	"fmt"
	"sync"

	"repro/internal/graph"
)

// Subgraph is one PE's share of a distributed graph: the nodes assigned to
// the PE ("owned", local ids [0, NumOwned)), followed by the ghost (halo)
// layer — every foreign node adjacent to an owned node — with both directions
// of the id mapping. Edges between two ghost nodes are not materialized; they
// belong to other PEs. This is the building block a genuinely distributed
// coarsening phase exchanges: each PE coarsens its owned nodes and reads
// ghost state written by the owners.
type Subgraph struct {
	PE    int32        // the PE this subgraph belongs to
	Local *graph.Graph // owned nodes then ghosts, weights and coords copied

	NumOwned      int     // owned nodes are local ids [0, NumOwned)
	LocalToGlobal []int32 // len = Local.NumNodes()
	GhostOwner    []int32 // owner PE of each ghost, parallel to local ids NumOwned...

	globalToLocal map[int32]int32
}

// NewSubgraph reassembles a Subgraph from its parts — the constructor the
// wire codec uses after shipping a shard to another process. local's nodes
// must be ordered owned-first; localToGlobal must have one entry per local
// node and ghostOwner one per ghost. The global→local index is rebuilt here.
func NewSubgraph(pe int32, local *graph.Graph, numOwned int, localToGlobal, ghostOwner []int32) (*Subgraph, error) {
	if numOwned < 0 || numOwned > local.NumNodes() {
		return nil, fmt.Errorf("dist: owned count %d out of range [0, %d]", numOwned, local.NumNodes())
	}
	if len(localToGlobal) != local.NumNodes() {
		return nil, fmt.Errorf("dist: id map has %d entries for %d local nodes", len(localToGlobal), local.NumNodes())
	}
	if len(ghostOwner) != local.NumNodes()-numOwned {
		return nil, fmt.Errorf("dist: ghost owner list has %d entries for %d ghosts", len(ghostOwner), local.NumNodes()-numOwned)
	}
	s := &Subgraph{
		PE:            pe,
		Local:         local,
		NumOwned:      numOwned,
		LocalToGlobal: localToGlobal,
		GhostOwner:    ghostOwner,
		globalToLocal: make(map[int32]int32, len(localToGlobal)),
	}
	for lv, gv := range localToGlobal {
		if _, dup := s.globalToLocal[gv]; dup {
			return nil, fmt.Errorf("dist: global id %d appears twice in shard", gv)
		}
		s.globalToLocal[gv] = int32(lv)
	}
	return s, nil
}

// NumGhosts returns the size of the halo layer.
func (s *Subgraph) NumGhosts() int { return s.Local.NumNodes() - s.NumOwned }

// IsGhost reports whether the local id names a halo node.
func (s *Subgraph) IsGhost(local int32) bool { return int(local) >= s.NumOwned }

// ToGlobal maps a local id (owned or ghost) to the global node id.
func (s *Subgraph) ToGlobal(local int32) int32 { return s.LocalToGlobal[local] }

// ToLocal maps a global id to the local id; ok is false when the node is
// neither owned by this PE nor in its ghost layer.
func (s *Subgraph) ToLocal(global int32) (local int32, ok bool) {
	local, ok = s.globalToLocal[global]
	return local, ok
}

// BoundaryPeers returns, for every owned node, the distinct owner PEs of
// its ghost neighbors in ascending order (nil for interior nodes) — the PEs
// that hold the node as a ghost and therefore must receive its state during
// ghost exchange.
func (s *Subgraph) BoundaryPeers() [][]int32 {
	peers := make([][]int32, s.NumOwned)
	for lv := int32(0); lv < int32(s.NumOwned); lv++ {
		for _, lu := range s.Local.Adj(lv) {
			if int(lu) < s.NumOwned {
				continue
			}
			q := s.GhostOwner[int(lu)-s.NumOwned]
			found := false
			for _, p := range peers[lv] {
				if p == q {
					found = true
					break
				}
			}
			if !found {
				peers[lv] = append(peers[lv], q)
			}
		}
		// Insertion sort: peer lists are a handful of PEs long.
		p := peers[lv]
		for i := 1; i < len(p); i++ {
			for j := i; j > 0 && p[j] < p[j-1]; j-- {
				p[j], p[j-1] = p[j-1], p[j]
			}
		}
	}
	return peers
}

// ExtractOwned builds PE pe's local subgraph from the global graph, a
// node-to-PE assignment and the PE's owned-node list (in ascending global id
// order, as one bucketing pass over assign produces it). All edges incident
// to an owned node are kept — owned–owned edges once, owned–ghost edges once
// — so cut edges appear in the subgraphs of both endpoint owners. Taking the
// owned list lets a caller that extracts many PEs sequentially — the shard
// store writer, which bounds how many subgraphs are alive at once — pay the
// O(n) ownership scan once instead of once per PE, while producing bytes
// identical to ExtractAll.
func ExtractOwned(g *graph.Graph, assign []int32, pe int32, owned []int32) *Subgraph {
	s := &Subgraph{PE: pe, globalToLocal: make(map[int32]int32, len(owned))}

	// Owned nodes first, in global id order for determinism.
	for _, v := range owned {
		s.globalToLocal[v] = int32(len(s.LocalToGlobal))
		s.LocalToGlobal = append(s.LocalToGlobal, v)
	}
	s.NumOwned = len(s.LocalToGlobal)

	// Ghost layer: foreign neighbors of owned nodes, in discovery order
	// (owned nodes are scanned in global id order, so this too is
	// deterministic).
	for li := 0; li < s.NumOwned; li++ {
		for _, u := range g.Adj(s.LocalToGlobal[li]) {
			if assign[u] != pe {
				if _, seen := s.globalToLocal[u]; !seen {
					s.globalToLocal[u] = int32(len(s.LocalToGlobal))
					s.LocalToGlobal = append(s.LocalToGlobal, u)
					s.GhostOwner = append(s.GhostOwner, assign[u])
				}
			}
		}
	}

	b := graph.NewBuilder(len(s.LocalToGlobal))
	for li, v := range s.LocalToGlobal {
		b.SetNodeWeight(int32(li), g.NodeWeight(v))
	}
	if g.CoordDims() == 3 {
		for li, v := range s.LocalToGlobal {
			cx, cy, cz := g.Coord3(v)
			b.SetCoord3(int32(li), cx, cy, cz)
		}
	} else if g.HasCoords() {
		for li, v := range s.LocalToGlobal {
			cx, cy := g.Coord(v)
			b.SetCoord(int32(li), cx, cy)
		}
	}
	for li := 0; li < s.NumOwned; li++ {
		v := s.LocalToGlobal[li]
		adj, wts := g.Adj(v), g.AdjWeights(v)
		for i, u := range adj {
			lu := s.globalToLocal[u]
			// Add owned–owned edges from the smaller endpoint only; an
			// owned–ghost edge is seen exactly once (from the owned side).
			if int(lu) < s.NumOwned && lu <= int32(li) {
				continue
			}
			b.AddEdge(int32(li), lu, wts[i])
		}
	}
	s.Local = b.Build()
	return s
}

// ExtractAll extracts every PE's subgraph concurrently. Ownership lists are
// bucketed in one shared pass so the total cost is O(n + Σ local work), not
// pes full scans.
func ExtractAll(g *graph.Graph, assign []int32, pes int) []*Subgraph {
	ownedOf := make([][]int32, pes)
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		ownedOf[assign[v]] = append(ownedOf[assign[v]], v)
	}
	out := make([]*Subgraph, pes)
	var wg sync.WaitGroup
	for pe := 0; pe < pes; pe++ {
		wg.Add(1)
		go func(pe int) {
			defer wg.Done()
			out[pe] = ExtractOwned(g, assign, int32(pe), ownedOf[pe])
		}(pe)
	}
	wg.Wait()
	return out
}
