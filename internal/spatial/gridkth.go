package spatial

import (
	"math"
	"math/bits"

	"hawccc/internal/geom"
	"hawccc/internal/geom/kernels"
)

// kthStackCap bounds the k for which KthDist2 runs entirely on the
// stack; the adaptive ε curve asks for k = MinPts+1 ≈ 5, far below it.
const kthStackCap = 64

// KthFast reports whether KthDist2(·, k) runs the vectorized span scan.
// When it returns false the method still answers correctly, but via a
// ring-based kNN that allocates its neighbor buffer — callers holding
// their own scratch (the adaptive ε curve) do better querying KNNInto
// themselves in that case.
func (g *Grid) KthFast(k int) bool {
	return g.vec && k <= kthStackCap
}

// KthDist2 returns the exact squared distance from q to its k-th
// nearest point, the value KNNInto's last element reports — k is
// clamped to Len, and an empty grid or k ≤ 0 yields 0.
//
// The ε-curve of adaptive DBSCAN asks exactly this question once per
// point and discards the neighbor identities, so the vectorized grid
// answers it without the ring machinery: contiguous CSR span scans with
// the 8-wide prefilter keep the k smallest exact distances in a
// value-only max-heap. The k-th smallest distance is a property of the
// point multiset — scanning more of the cloud never changes it, every
// real point folded in only tightens the heap, the only hazard is
// offering one point twice — so every path (either scan here, the
// scalar ring kNN, the k-d tree) computes the identical float64 value.
// The common dense case needs a single pass over the ±1-cell
// neighborhood: if the k-th distance found there is at most the
// distance from q to the nearest face of the scanned box beyond which
// cells exist, no outside point can compete. Sparse queries keep their
// heap and grow the box by doubling, each round scanning only the
// complement of the rows already seen.
//
// Grids without the vector mirror delegate to the ring-based kNN: the
// span scan's win comes from the prefilter discarding candidates before
// their exact distance is computed, which a scalar scan cannot do.
func (g *Grid) KthDist2(q geom.Point3, k int) float64 {
	n := g.Len()
	if n == 0 || k <= 0 {
		return 0
	}
	if k > n {
		k = n
	}
	if !g.vec || k > kthStackCap {
		var nbuf [kthStackCap]Neighbor
		buf := nbuf[:0]
		if k > kthStackCap {
			buf = nil
		}
		nn := g.KNNInto(buf, q, k)
		return nn[len(nn)-1].Dist2
	}

	var s kthSearch
	s.g, s.k = g, k
	s.t0 = math.Inf(1)
	return s.run(q)
}

// KthDist2All fills dst[i] with KthDist2 of point i for every indexed
// point — the whole adaptive ε curve in one call. Requires KthFast(k)
// (the vectorized span scan); values equal per-point KthDist2 exactly.
// Queries walk the points in CSR order, so consecutive queries share
// their neighborhood's cache lines, and the (stack) search state is
// zeroed once instead of once per point.
func (g *Grid) KthDist2All(dst []float64, k int) {
	n := g.Len()
	if k > n {
		k = n
	}
	if !g.KthFast(k) {
		panic("spatial: KthDist2All requires KthFast")
	}
	if n == 0 || k <= 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	var s kthSearch
	s.g, s.k = g, k
	s.t0 = math.Inf(1)
	var prev geom.Point3
	var prevD float64
	for i, id := range g.ids[:n] {
		p := g.pts[id]
		if i > 0 {
			// Seed the query's bound from its predecessor: by the
			// triangle inequality the k nearest of prev sit within
			// dist(p, prev) + kth(prev) of p, so that radius is a
			// certified upper bound on kth(p). In CSR order consecutive
			// queries share a cell or a neighborhood, so the bound is
			// tight and the prefilter bites from the very first span
			// instead of only after the heap fills. The relative nudge
			// absorbs the rounding of the square roots.
			d := math.Sqrt(p.Dist2(prev)) + prevD
			s.t0 = d * d * (1 + 1e-9)
		}
		dst[id] = s.run(p)
		prev, prevD = p, math.Sqrt(dst[id])
	}
}

// run answers one k-th-distance query, reusing the search's buffers.
func (s *kthSearch) run(q geom.Point3) float64 {
	g := s.g
	k := s.k
	s.q = q
	s.qx, s.qy, s.qz = float32(q.X), float32(q.Y), float32(q.Z)
	s.hn = 0
	s.top = math.NaN()

	// A non-finite query defeats the cell arithmetic below; its k-th
	// distance is still well defined (usually +Inf), so take it from one
	// scan of the whole CSR array.
	if f := q.X + q.Y + q.Z; math.IsNaN(f) || math.IsInf(f, 0) {
		s.span(0, g.Len())
		return s.hbuf[0]
	}

	// Fast path: scan the ±1-cell neighborhood of the query's cell —
	// each ix row fused into one contiguous CSR span (a superset of the
	// box; see radiusVec) so the sensor's sparse cells still yield
	// kernel-sized spans. The query's own column goes first to fill the
	// heap with the tightest distances, and the row containing it splits
	// around that column so no point is offered twice. The box is
	// clamped into the lattice on both sides: for a far-outside query it
	// degenerates to boundary cells, which only seeds the heap earlier.
	cx := ifloor((q.X - g.min.X) * g.inv)
	cy := ifloor((q.Y - g.min.Y) * g.inv)
	cz := ifloor((q.Z - g.min.Z) * g.inv)
	bx0, bx1 := clampHi(clampLo(cx-1), g.nx), clampLo(clampHi(cx+1, g.nx))
	by0, by1 := clampHi(clampLo(cy-1), g.ny), clampLo(clampHi(cy+1, g.ny))
	bz0, bz1 := clampHi(clampLo(cz-1), g.nz), clampLo(clampHi(cz+1, g.nz))
	center := cx >= bx0 && cx <= bx1 && cy >= by0 && cy <= by1
	var cLo, cHi int
	if center {
		col := (cx*g.ny + cy) * g.nz
		cLo, cHi = int(g.start[col+bz0]), int(g.start[col+bz1+1])
		s.span(cLo, cHi)
	}
	for ix := bx0; ix <= bx1; ix++ {
		lo := int(g.start[(ix*g.ny+by0)*g.nz+bz0])
		hi := int(g.start[(ix*g.ny+by1)*g.nz+bz1+1])
		if center && ix == cx {
			s.span(lo, cLo)
			s.span(cHi, hi)
			continue
		}
		s.span(lo, hi)
	}
	if s.hn == k {
		if bd := g.faceDist(q, bx0, bx1, by0, by1, bz0, bz1); bd >= 0 && s.hbuf[0] <= bd*bd {
			return s.hbuf[0]
		}
	}

	// General path: keep the heap and grow the box by doubling its cell
	// half-width. Each round the rows already inside the previous box
	// have been scanned as one contiguous CSR subrange, so the new scan
	// covers exactly its complement — no point is visited twice and no
	// overlapping rescan is paid. Termination: once the box covers the
	// lattice every point within t0 has been offered, and at least k
	// points are (t0 certifies that many; k ≤ n when t0 is +Inf), so the
	// heap is full and holds the true k-th distance. The w cap is
	// unreachable for any sane lattice; it bounds the loop if cell
	// arithmetic ever degenerates.
	for w := 2; ; w *= 2 {
		nx0, nx1 := clampHi(clampLo(cx-w), g.nx), clampLo(clampHi(cx+w, g.nx))
		ny0, ny1 := clampHi(clampLo(cy-w), g.ny), clampLo(clampHi(cy+w, g.ny))
		nz0, nz1 := clampHi(clampLo(cz-w), g.nz), clampLo(clampHi(cz+w, g.nz))
		for ix := nx0; ix <= nx1; ix++ {
			lo := int(g.start[(ix*g.ny+ny0)*g.nz+nz0])
			hi := int(g.start[(ix*g.ny+ny1)*g.nz+nz1+1])
			if ix >= bx0 && ix <= bx1 {
				pLo := int(g.start[(ix*g.ny+by0)*g.nz+bz0])
				pHi := int(g.start[(ix*g.ny+by1)*g.nz+bz1+1])
				s.span(lo, pLo)
				s.span(pHi, hi)
				continue
			}
			s.span(lo, hi)
		}
		if nx0 == 0 && nx1 == g.nx-1 && ny0 == 0 && ny1 == g.ny-1 && nz0 == 0 && nz1 == g.nz-1 {
			return s.hbuf[0]
		}
		if s.hn == k {
			if bd := g.faceDist(q, nx0, nx1, ny0, ny1, nz0, nz1); bd >= 0 && s.hbuf[0] <= bd*bd {
				return s.hbuf[0]
			}
		}
		if w > 1<<40 {
			s.hn, s.top = 0, math.NaN()
			s.span(0, g.Len())
			return s.hbuf[0]
		}
		bx0, bx1, by0, by1, bz0, bz1 = nx0, nx1, ny0, ny1, nz0, nz1
	}
}

// faceDist returns the distance from q to the nearest face of the cell
// box that has lattice cells on its far side — the certificate bound:
// every unscanned point lies beyond such a face, so a full heap whose
// k-th distance is within it is provably final. The margin shaves
// ~1000 ulps off the distance to stay conservative against the rounding
// of the binning arithmetic; it is vanishingly small next to any real
// cell.
func (g *Grid) faceDist(q geom.Point3, bx0, bx1, by0, by1, bz0, bz1 int) float64 {
	bd := math.Inf(1)
	if bx0 > 0 {
		if v := q.X - (g.min.X + float64(bx0)*g.cell); v < bd {
			bd = v
		}
	}
	if bx1 < g.nx-1 {
		if v := g.min.X + float64(bx1+1)*g.cell - q.X; v < bd {
			bd = v
		}
	}
	if by0 > 0 {
		if v := q.Y - (g.min.Y + float64(by0)*g.cell); v < bd {
			bd = v
		}
	}
	if by1 < g.ny-1 {
		if v := g.min.Y + float64(by1+1)*g.cell - q.Y; v < bd {
			bd = v
		}
	}
	if bz0 > 0 {
		if v := q.Z - (g.min.Z + float64(bz0)*g.cell); v < bd {
			bd = v
		}
	}
	if bz1 < g.nz-1 {
		if v := g.min.Z + float64(bz1+1)*g.cell - q.Z; v < bd {
			bd = v
		}
	}
	return bd - 1e-12*(g.maxAbs+1)
}

// kthSearch accumulates the k smallest exact squared distances to q in
// hbuf[:hn], a value max-heap. The buffers are value fields (as in
// knnScan) so the whole search lives on KthDist2's stack.
type kthSearch struct {
	g          *Grid
	q          geom.Point3
	qx, qy, qz float32
	k, hn      int
	t0         float64 // certified upper bound on the answer (+Inf if none)
	top        float64 // memoized filterBounds key; NaN forces a compute
	hiF        float32
	hbuf       [kthStackCap]float64
	mHi, mLo   [vecChunk / 8]uint8
}

// kthMinVecSpan is the kth scan's vector threshold. It sits below the
// radius paths' minVecSpan because the seeded bound t0 lets the
// prefilter discard most of even a short span before any exact
// distance is computed, which a radius scan (whose every survivor is
// output) cannot.
const kthMinVecSpan = 8

// span folds the CSR id range [lo, hi) into the heap. While the heap
// is short of k, candidates at most t0 — the certified upper bound on
// the answer — are admitted (anything beyond t0 provably is not among
// the k nearest); once full, only candidates below the retained k-th
// distance. Both thresholds feed the 8-wide prefilter, so with a tight
// seed most candidates are discarded before any exact distance is
// computed. Short spans stay scalar.
func (s *kthSearch) span(lo, hi int) {
	g := s.g
	if hi-lo < kthMinVecSpan {
		for _, id := range g.ids[lo:hi] {
			d2 := s.q.Dist2(g.pts[id])
			if s.hn < s.k {
				if d2 <= s.t0 {
					s.offer(d2)
				}
			} else if d2 < s.hbuf[0] {
				s.offer(d2)
			}
		}
		return
	}
	// The mask kernel takes whole 8-lane blocks; the ragged tail joins
	// the scalar loop below.
	vecEnd := lo + (hi-lo)&^7
	for lo < vecEnd {
		m := vecEnd - lo
		if m > vecChunk {
			m = vecChunk
		}
		t := s.t0
		if s.hn == s.k {
			t = s.hbuf[0]
		}
		if t != s.top {
			_, s.hiF = g.filterBounds(s.q, t)
			s.top = t
		}
		// If the heap fills mid-chunk the memoized threshold is the
		// stale, larger of the two — skipping beyond it remains safe and
		// the next chunk tightens. Survivors always pay the exact float64
		// distance (the heap needs it), so only the candidate mask is
		// used here.
		nb := m / 8
		kernels.MaskDist2LE(s.mHi[:nb], s.mLo[:nb], g.gx[lo:lo+m], g.gy[lo:lo+m], g.gz[lo:lo+m], s.qx, s.qy, s.qz, s.hiF, s.hiF)
		for b := 0; b < nb; b++ {
			h := s.mHi[b]
			base := lo + b*8
			for h != 0 {
				j := bits.TrailingZeros8(h)
				h &= h - 1
				d2 := s.q.Dist2(g.pts[g.ids[base+j]])
				if s.hn < s.k {
					if d2 <= s.t0 {
						s.offer(d2)
					}
				} else if d2 < s.hbuf[0] {
					s.offer(d2)
				}
			}
		}
		lo += m
	}
	for _, id := range g.ids[lo:hi] {
		d2 := s.q.Dist2(g.pts[id])
		if s.hn < s.k {
			if d2 <= s.t0 {
				s.offer(d2)
			}
		} else if d2 < s.hbuf[0] {
			s.offer(d2)
		}
	}
}

// offer keeps the k smallest values seen in the max-heap hbuf[:hn]:
// values grow the heap until it holds k, then only values below the
// current k-th replace the top.
func (s *kthSearch) offer(v float64) {
	h := s.hbuf[:s.hn]
	if s.hn < s.k {
		h = append(h, v)
		s.hn++
		for i := s.hn - 1; i > 0; {
			p := (i - 1) / 2
			if h[p] >= h[i] {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
		return
	}
	if v >= h[0] {
		return
	}
	h[0] = v
	for i := 0; ; {
		c := 2*i + 1
		if c >= s.hn {
			break
		}
		if r := c + 1; r < s.hn && h[r] > h[c] {
			c = r
		}
		if h[i] >= h[c] {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
