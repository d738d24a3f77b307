package dist

import "sort"

// sfcOrder is the quantization depth of the space-filling curves: coordinates
// are snapped to a 2^sfcOrder × 2^sfcOrder grid, giving 32-bit curve keys.
const sfcOrder = 16

// Hilbert sorts the nodes by their position along a Hilbert curve
// through the bounding box and cuts the sorted order into pes node-weight
// balanced ranges. Compared to RCB this needs a single sort instead of one
// per bisection level, and the curve's locality keeps most mesh edges inside
// a range; it is the "cheap geometric" alternative to §3.3's RCB. w == nil
// means unit weights. Deterministic: key ties break by node id.
func Hilbert(x, y []float64, w []int64, pes int) []int32 {
	return sfcAssign(x, y, w, pes, hilbertKey)
}

// Morton is like Hilbert but orders by Morton (Z-order) keys: marginally
// cheaper per node, slightly worse locality at the quadrant seams. Kept as a
// comparison point for the SFC family.
func Morton(x, y []float64, pes int) []int32 {
	return sfcAssign(x, y, nil, pes, mortonKey)
}

// sfcAssign quantizes coordinates, sorts node ids by curve key, and reuses
// the weighted-range splitter on the curve order.
func sfcAssign(x, y []float64, w []int64, pes int, key func(qx, qy uint32) uint64) []int32 {
	n := len(x)
	assign := make([]int32, n)
	if pes <= 1 || n == 0 {
		return assign
	}
	qx := quantize(x)
	qy := quantize(y)
	keys := make([]uint64, n)
	order := make([]int32, n)
	for v := 0; v < n; v++ {
		keys[v] = key(qx[v], qy[v])
		order[v] = int32(v)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if keys[a] != keys[b] {
			return keys[a] < keys[b]
		}
		return a < b
	})
	ow := make([]int64, n)
	for i, v := range order {
		if w == nil {
			ow[i] = 1
		} else {
			ow[i] = w[v]
		}
	}
	ranges := WeightedRanges(ow, pes)
	for i, v := range order {
		assign[v] = ranges[i]
	}
	return assign
}

// quantize maps coordinates linearly onto the [0, 2^sfcOrder) integer grid.
// A degenerate axis (all values equal) maps to 0.
func quantize(c []float64) []uint32 {
	lo, hi := c[0], c[0]
	for _, v := range c[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	q := make([]uint32, len(c))
	if hi == lo {
		return q
	}
	scale := float64((uint32(1)<<sfcOrder)-1) / (hi - lo)
	for i, v := range c {
		q[i] = uint32((v - lo) * scale)
	}
	return q
}

// hilbertKey converts grid coordinates to the distance along the Hilbert
// curve of order sfcOrder (the classical rotate-and-flip formulation).
func hilbertKey(qx, qy uint32) uint64 {
	var d uint64
	for s := uint32(1) << (sfcOrder - 1); s > 0; s >>= 1 {
		var rx, ry uint32
		if qx&s > 0 {
			rx = 1
		}
		if qy&s > 0 {
			ry = 1
		}
		d += uint64(s) * uint64(s) * uint64((3*rx)^ry)
		// Rotate the quadrant so the curve stays continuous.
		if ry == 0 {
			if rx == 1 {
				const n = uint32(1) << sfcOrder
				qx = n - 1 - qx
				qy = n - 1 - qy
			}
			qx, qy = qy, qx
		}
	}
	return d
}

// mortonKey interleaves the bits of the grid coordinates (Z-order).
func mortonKey(qx, qy uint32) uint64 {
	return spreadBits(qx) | spreadBits(qy)<<1
}

// spreadBits inserts a zero bit between consecutive bits of the low 32 bits.
func spreadBits(v uint32) uint64 {
	x := uint64(v)
	x = (x | x<<16) & 0x0000ffff0000ffff
	x = (x | x<<8) & 0x00ff00ff00ff00ff
	x = (x | x<<4) & 0x0f0f0f0f0f0f0f0f
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}
