package kernels

// PairPad is how many elements past the last point the coordinate and
// count slices of PairCount and PairFill must hold, and how many slots
// past its last pair each row of PairFill must have: the vector path
// reads and writes 4 lanes at a time, masking the ones past b1 and
// storing the ones that are not pairs past the row's end.
const PairPad = 4

// PairCount counts the close pairs of a block against a span of one
// coordinate layout: for every i in [a0, a1) and every j in
// [max(b0, i+1), b1) whose float64 squared distance is ≤ r2, it adds
// one to fwd[i] and one to back[j]. The distance is geom.Point3.Dist2's
// bits for the two points: ((dx²+dy²)+dz²), each operation rounded,
// never fused; a NaN is never ≤ r2. Each unordered pair is seen once:
// a span that starts at the block (b0 = a0) pairs the block with
// itself, i < j.
//
// a0 ≤ a1 and b0 ≤ b1; xs, ys, zs, fwd and back hold at least
// max(a1, b1)+PairPad elements, the pad lanes' values being arbitrary.
func PairCount(fwd, back []int64, xs, ys, zs []float64, a0, a1, b0, b1 int, r2 float64) {
	checkPairs(min(len(fwd), len(back)), xs, ys, zs, a0, a1, b0, b1)
	if a0 == a1 || b0 == b1 {
		return
	}
	if vectorized {
		pairCountAVX(&fwd[0], &back[0], &xs[0], &ys[0], &zs[0], a0, a1, b0, b1, r2)
		return
	}
	for i := a0; i < a1; i++ {
		n := int64(0)
		for j := max(b0, i+1); j < b1; j++ {
			if pairDist2(xs, ys, zs, i, j) <= r2 {
				n++
				back[j]++
			}
		}
		fwd[i] += n
	}
}

// PairFill writes one half of a block's pairs with a span into the
// block's rows: for each i in [a0, a1) and j in [max(b0, i+1), b1) —
// or, with lower, in [b0, min(b1, i)) — whose squared distance d is
// ≤ r2, computed as PairCount computes it, it stores j and d at slot
// end[i] of nbr and dist and advances end[i]. A row lists its pairs in
// ascending j, and may be filled over several spans, in order. The
// forward pairs of i over the spans PairCount counted are its fwd[i];
// its lower pairs over the mirrored spans, its back[i].
//
// The vector path stores four lanes a step and advances past the pairs
// among them, so it may write up to PairPad slots past a row's last
// pair: each row needs that pad after the room for its pairs. The
// vector path does not bounds-check nbr and dist.
func PairFill(end []int64, nbr []int32, dist []float64, xs, ys, zs []float64, a0, a1, b0, b1 int, r2 float64, lower bool) {
	checkPairs(len(end), xs, ys, zs, a0, a1, b0, b1)
	if a0 == a1 || b0 == b1 {
		return
	}
	if len(nbr) == 0 || len(dist) < len(nbr) {
		panic("kernels: PairFill needs as many distance slots as neighbour slots")
	}
	if vectorized {
		pairFillAVX(&end[0], &nbr[0], &dist[0], &xs[0], &ys[0], &zs[0], a0, a1, b0, b1, r2, lower)
		return
	}
	for i := a0; i < a1; i++ {
		e := end[i]
		j0, j1 := max(b0, i+1), b1
		if lower {
			j0, j1 = b0, min(b1, i)
		}
		for j := j0; j < j1; j++ {
			if d := pairDist2(xs, ys, zs, i, j); d <= r2 {
				nbr[e], dist[e] = int32(j), d
				e++
			}
		}
		end[i] = e
	}
}

// pairDist2 is geom.Point3.Dist2 of points i and j, in its association
// and with its explicit roundings, so no architecture fuses it.
func pairDist2(xs, ys, zs []float64, i, j int) float64 {
	dx, dy, dz := xs[i]-xs[j], ys[i]-ys[j], zs[i]-zs[j]
	return float64(float64(dx*dx)+float64(dy*dy)) + float64(dz*dz)
}

func checkPairs(n int, xs, ys, zs []float64, a0, a1, b0, b1 int) {
	if a0 < 0 || a0 > a1 || b0 < 0 || b0 > b1 {
		panic("kernels: pair ranges need 0 ≤ a0 ≤ a1 and 0 ≤ b0 ≤ b1")
	}
	m := max(a1, b1) + PairPad
	if len(xs) < m || len(ys) < m || len(zs) < m || n < m {
		panic("kernels: pair slices need max(a1, b1)+PairPad elements")
	}
}

// MaskLE sets bit k%64 of bits[k/64] when d[k] ≤ t and clears it
// otherwise, for every k < len(d); the bits past len(d) in the last word
// are cleared. A NaN is never ≤ t. bits holds at least (len(d)+63)/64
// words.
func MaskLE(bits []uint64, d []float64, t float64) {
	words := (len(d) + 63) / 64
	if len(bits) < words {
		panic("kernels: MaskLE needs a bit for every distance")
	}
	full := len(d) / 64
	if vectorized && full > 0 {
		maskLE64AVX(&bits[0], &d[0], full, t)
	} else {
		full = 0
	}
	for w := full; w < words; w++ {
		var b uint64
		for k, v := range d[w*64 : min(w*64+64, len(d))] {
			if v <= t {
				b |= 1 << k
			}
		}
		bits[w] = b
	}
}
