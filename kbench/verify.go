package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"repro/internal/graph"
	"repro/internal/part"
)

// claim is what the program reported for one partition request.
type claim struct {
	k       int
	eps     float64
	blocks  []int32
	cut     int64
	balance float64
}

// verify checks a returned partition against the graph it was computed
// for, without trusting anything the program computed: every node has a
// block in [0,k), the cut recomputed from the blocks equals the reported
// cut, the reported balance is the recomputed one, and the heaviest block
// respects the balance bound Lmax of the paper's §2.
func verify(g *graph.Graph, c claim) error {
	if len(c.blocks) != g.NumNodes() {
		return fmt.Errorf("partition has %d entries, graph has %d nodes", len(c.blocks), g.NumNodes())
	}
	for v, b := range c.blocks {
		if b < 0 || int(b) >= c.k {
			return fmt.Errorf("node %d is in block %d, outside [0,%d)", v, b, c.k)
		}
	}
	p := part.FromBlocks(g, c.k, c.eps, c.blocks)
	if cut := p.Cut(); cut != c.cut {
		return fmt.Errorf("reported cut %d, recomputed cut %d", c.cut, cut)
	}
	if bal := p.Imbalance(); bal != c.balance {
		return fmt.Errorf("reported balance %v, recomputed balance %v", c.balance, bal)
	}
	if w, lmax := p.MaxBlockWeight(), part.ComputeLmax(g, c.k, c.eps); w > lmax {
		return fmt.Errorf("heaviest block weighs %d, bound Lmax is %d", w, lmax)
	}
	return nil
}

// digest hashes a block vector, so repeated same-seed requests can be
// compared without keeping their partitions.
func digest(blocks []int32) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, b := range blocks {
		binary.LittleEndian.PutUint32(buf[:], uint32(b))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// reference is the first verified outcome of one (instance, seed) request;
// every repetition must reproduce it exactly.
type reference struct {
	digest  uint64
	cut     int64
	balance float64
}

func (r reference) same(o reference) error {
	if r != o {
		return fmt.Errorf("repeated request differs: digest %016x cut %d balance %v, first run gave digest %016x cut %d balance %v",
			o.digest, o.cut, o.balance, r.digest, r.cut, r.balance)
	}
	return nil
}
