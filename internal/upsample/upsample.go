// Package upsample standardizes variable-sized cluster point clouds to the
// fixed input size CNNs require (Section V). The paper's noise-controlled
// up-sampling draws padding points from a pool of "Object" data (scenes
// without humans) instead of synthetic Gaussian noise; both methods are
// implemented here, Gaussian as the Table III ablation baseline.
//
// Pool padding draws whole object *patterns* at their captured positions:
// campus objects line the walkway edges, so — exactly as the paper's
// Figure 6 histograms show — the noise occupies coordinate and height
// distributions markedly different from human returns, which is what
// keeps it from confusing the classifier.
package upsample

import (
	"math"
	"math/rand"
	"slices"
	"sync"

	"hawccc/internal/geom"
)

// TargetSize returns the paper's N′max: the smallest perfect square that
// is at least nMax, so the padded cloud reshapes into a √N′max-square
// image.
func TargetSize(nMax int) int {
	if nMax <= 0 {
		return 0
	}
	d := int(math.Ceil(math.Sqrt(float64(nMax))))
	return d * d
}

// Side returns the image side length D = √target for a target produced by
// TargetSize. It panics if target is not a perfect square.
func Side(target int) int {
	d := int(math.Sqrt(float64(target)))
	if d*d != target {
		panic("upsample: target is not a perfect square")
	}
	return d
}

// Pool holds the "Object" captures used as controlled padding noise
// (Section V, Figure 5).
type Pool struct {
	clouds []geom.Cloud
	total  int
}

// NewPool retains the given object clouds (empty clouds are dropped).
func NewPool(objectClouds []geom.Cloud) *Pool {
	p := &Pool{}
	for _, c := range objectClouds {
		if len(c) > 0 {
			p.clouds = append(p.clouds, c.Clone())
			p.total += len(c)
		}
	}
	return p
}

// Len returns the total number of pooled points.
func (p *Pool) Len() int { return p.total }

// Draw appends to dst, and returns, n noise points assembled from
// randomly chosen object captures at their original positions (all
// "Object" data is pooled together and the deficit is sampled from the
// pool, Section V). It panics on an empty pool.
func (p *Pool) Draw(dst geom.Cloud, rng *rand.Rand, n int) geom.Cloud {
	if len(p.clouds) == 0 {
		panic("upsample: drawing from empty object pool")
	}
	perm := permPool.Get().(*[]int)
	defer permPool.Put(perm)
	for want := len(dst) + n; len(dst) < want; {
		src := p.clouds[rng.Intn(len(p.clouds))]
		// Take the pattern's points in random order until n is reached.
		for _, i := range permInto(perm, rng, len(src)) {
			if len(dst) == want {
				break
			}
			dst = append(dst, src[i])
		}
	}
	return dst
}

// permPool recycles the permutation buffers of permInto.
var permPool = sync.Pool{New: func() any { return new([]int) }}

// permInto is rng.Perm(n) into *buf: the same draws, the same
// permutation, without allocating one per call once buf has grown.
func permInto(buf *[]int, rng *rand.Rand, n int) []int {
	m := slices.Grow((*buf)[:0], n)[:n]
	*buf = m
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

// FromPool pads cloud to target points with object-data noise (the
// paper's noise-controlled up-sampling). Clouds already at or above the
// target are randomly down-sampled to exactly target so the output size
// is always fixed — the deployment equivalent of a cluster larger than
// anything seen in training. The result is written over dst's storage
// (nil for a new cloud), so a caller that keeps its buffer pads without
// allocating.
func FromPool(dst geom.Cloud, rng *rand.Rand, cloud geom.Cloud, pool *Pool, target int) geom.Cloud {
	dst, deficit := pad(dst, rng, cloud, target)
	if deficit == 0 {
		return dst
	}
	return pool.Draw(dst, rng, deficit)
}

// GaussianCenter is the fixed mean of Gaussian up-sampling noise: the
// middle of the ROI at mid-body height (the paper samples noise with a
// fixed mean μ = 0 in its normalized frame; this is the equivalent point
// in the sensor frame).
var GaussianCenter = geom.P(23.5, 0, -2)

// Gaussian pads cloud to target points with fixed-mean Gaussian noise of
// the given standard deviation — the Table III baseline (σ ∈ {3, 5, 7}).
// Like FromPool, it writes over dst's storage.
func Gaussian(dst geom.Cloud, rng *rand.Rand, cloud geom.Cloud, sigma float64, target int) geom.Cloud {
	dst, deficit := pad(dst, rng, cloud, target)
	for i := 0; i < deficit; i++ {
		dst = append(dst, geom.P(
			GaussianCenter.X+rng.NormFloat64()*sigma,
			GaussianCenter.Y+rng.NormFloat64()*sigma,
			GaussianCenter.Z+rng.NormFloat64()*sigma,
		))
	}
	return dst
}

// pad writes cloud, randomly subsampled without replacement when it holds
// target points or more, over dst's storage, with capacity for target
// points, and returns it with the number of points still missing.
func pad(dst geom.Cloud, rng *rand.Rand, cloud geom.Cloud, target int) (geom.Cloud, int) {
	if target <= 0 {
		return dst[:0], 0
	}
	dst = slices.Grow(dst[:0], target)
	if len(cloud) >= target {
		perm := permPool.Get().(*[]int)
		defer permPool.Put(perm)
		for _, j := range permInto(perm, rng, len(cloud))[:target] {
			dst = append(dst, cloud[j])
		}
		return dst, 0
	}
	return append(dst, cloud...), target - len(cloud)
}

// Clouds exposes the pooled object captures (for serialization). The
// returned slices share storage with the pool; callers must not mutate.
func (p *Pool) Clouds() []geom.Cloud { return p.clouds }

// ContentSeed derives a deterministic RNG seed from a cloud's points, so
// up-sampling noise depends only on the cluster content: the same cluster
// pads identically whether it is classified first or last, sequentially or
// on any of N workers. The per-point FNV-1a hashes are combined with a
// commutative sum, making the seed invariant to point order, and the sum
// is finalized with a splitmix64-style avalanche so near-identical clouds
// still land on well-separated seeds.
func ContentSeed(cloud geom.Cloud) int64 {
	const (
		offset64 uint64 = 14695981039346656037
		prime64  uint64 = 1099511628211
	)
	var sum uint64
	for _, p := range cloud {
		h := offset64
		for _, f := range [3]float64{p.X, p.Y, p.Z} {
			b := math.Float64bits(f)
			for i := 0; i < 64; i += 8 {
				h ^= (b >> i) & 0xff
				h *= prime64
			}
		}
		sum += h
	}
	sum ^= sum >> 30
	sum *= 0xbf58476d1ce4e5b9
	sum ^= sum >> 27
	sum *= 0x94d049bb133111eb
	sum ^= sum >> 31
	return int64(sum)
}
