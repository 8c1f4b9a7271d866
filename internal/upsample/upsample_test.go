package upsample

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hawccc/internal/geom"
)

func TestTargetSize(t *testing.T) {
	tests := []struct{ in, want int }{
		{0, 0}, {-3, 0}, {1, 1}, {2, 4}, {4, 4}, {5, 9}, {83, 100}, {100, 100}, {324, 324}, {325, 361},
	}
	for _, tt := range tests {
		if got := TargetSize(tt.in); got != tt.want {
			t.Errorf("TargetSize(%d) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestSide(t *testing.T) {
	if got := Side(324); got != 18 {
		t.Errorf("Side(324) = %d, want 18", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Side should panic on non-square")
		}
	}()
	Side(10)
}

func TestTargetSizeSideProperty(t *testing.T) {
	f := func(n int) bool {
		if n < 1 {
			n = -n + 1
		}
		n = n%5000 + 1
		target := TargetSize(n)
		d := Side(target)
		return target >= n && d*d == target && TargetSize(target) == target
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// makePool builds a pool with two object captures: a low flat pattern at
// x=20 and a single point at x=25.
func makePool() *Pool {
	return NewPool([]geom.Cloud{
		{geom.P(20, 1, -2), geom.P(20, 1.1, -2.1), geom.P(20.1, 1, -2.2)},
		{geom.P(25, -1, -1.8)},
	})
}

func TestPoolCounts(t *testing.T) {
	p := makePool()
	if p.Len() != 4 {
		t.Errorf("Len = %d, want 4", p.Len())
	}
	if len(p.clouds) != 2 {
		t.Errorf("pooled clouds = %d, want 2", len(p.clouds))
	}
	// Empty clouds dropped.
	p2 := NewPool([]geom.Cloud{nil, {}})
	if len(p2.clouds) != 0 {
		t.Error("empty clouds should be dropped")
	}
}

func TestDrawFromPool(t *testing.T) {
	p := makePool()
	rng := rand.New(rand.NewSource(1))
	pts := p.Draw(nil, rng, 50)
	if len(pts) != 50 {
		t.Fatalf("drew %d points", len(pts))
	}
	// Every drawn point must be one of the pooled points at its original
	// position.
	valid := map[geom.Point3]bool{
		geom.P(20, 1, -2): true, geom.P(20, 1.1, -2.1): true,
		geom.P(20.1, 1, -2.2): true, geom.P(25, -1, -1.8): true,
	}
	for _, pt := range pts {
		if !valid[pt] {
			t.Fatalf("drawn point %v not from pool", pt)
		}
	}
}

func TestDrawEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPool(nil).Draw(nil, rand.New(rand.NewSource(1)), 1)
}

func TestFromPoolPadsToTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pool := makePool()
	cloud := geom.Cloud{geom.P(15, 0, -1), geom.P(15.1, 0, -1.2)}
	up := FromPool(nil, rng, cloud, pool, 9)
	if len(up) != 9 {
		t.Fatalf("padded size = %d, want 9", len(up))
	}
	// Original points must be preserved in order at the front.
	if up[0] != cloud[0] || up[1] != cloud[1] {
		t.Error("original points not preserved")
	}
}

func TestFromPoolDownsamples(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pool := makePool()
	cloud := make(geom.Cloud, 30)
	for i := range cloud {
		cloud[i] = geom.P(float64(i), 0, -1)
	}
	down := FromPool(nil, rng, cloud, pool, 16)
	if len(down) != 16 {
		t.Fatalf("downsampled size = %d, want 16", len(down))
	}
	// No duplicates: sampling without replacement.
	seen := map[geom.Point3]bool{}
	for _, p := range down {
		if seen[p] {
			t.Fatal("downsample introduced duplicates")
		}
		seen[p] = true
	}
}

func TestFromPoolDoesNotMutateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pool := makePool()
	cloud := geom.Cloud{geom.P(1, 2, 3)}
	orig := cloud.Clone()
	_ = FromPool(nil, rng, cloud, pool, 4)
	if cloud[0] != orig[0] || len(cloud) != 1 {
		t.Error("input cloud mutated")
	}
}

func TestPoolIsolatedFromSource(t *testing.T) {
	src := []geom.Cloud{{geom.P(1, 1, 1)}}
	p := NewPool(src)
	src[0][0] = geom.P(99, 99, 99)
	pts := p.Draw(nil, rand.New(rand.NewSource(1)), 1)
	if pts[0].Z != 1 {
		t.Error("pool must copy source clouds")
	}
}

func TestGaussianPadding(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cloud := geom.Cloud{geom.P(20, 0, -1), geom.P(20.2, 0.1, -1.3)}
	up := Gaussian(nil, rng, cloud, 3, 16)
	if len(up) != 16 {
		t.Fatalf("size = %d", len(up))
	}
	// Noise points center on the fixed GaussianCenter: their mean should
	// land within a few σ/√n of it.
	var mean geom.Point3
	for _, p := range up[2:] {
		mean = mean.Add(p)
	}
	mean = mean.Scale(1.0 / 14)
	if mean.Dist(GaussianCenter) > 4 {
		t.Errorf("Gaussian noise mean %v far from %v", mean, GaussianCenter)
	}
}

func TestZeroTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	if got := FromPool(nil, rng, geom.Cloud{geom.P(1, 1, 1)}, makePool(), 0); len(got) != 0 {
		t.Error("target 0 should yield empty cloud")
	}
	if got := Gaussian(nil, rng, geom.Cloud{geom.P(1, 1, 1)}, 1, -1); len(got) != 0 {
		t.Error("negative target should yield empty cloud")
	}
}

func TestContentSeedDeterministicAndOrderInvariant(t *testing.T) {
	cloud := geom.Cloud{
		geom.P(20.1, 0.4, -1.2), geom.P(20.3, 0.5, -0.9),
		geom.P(19.8, 0.2, -2.1), geom.P(20.0, 0.1, -1.5),
	}
	seed := ContentSeed(cloud)
	if seed != ContentSeed(cloud) {
		t.Fatal("ContentSeed not deterministic")
	}
	shuffled := cloud.Clone()
	rng := rand.New(rand.NewSource(3))
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	if ContentSeed(shuffled) != seed {
		t.Error("ContentSeed must be invariant to point order")
	}
}

func TestContentSeedSeparatesNearbyClouds(t *testing.T) {
	a := geom.Cloud{geom.P(20, 0, -1), geom.P(21, 1, -1)}
	b := geom.Cloud{geom.P(20, 0, -1), geom.P(21, 1, -1.0000001)}
	if ContentSeed(a) == ContentSeed(b) {
		t.Error("distinct clouds should map to distinct seeds")
	}
	// Duplicated points must not cancel out (sum, not xor, combination).
	dup := geom.Cloud{geom.P(20, 0, -1), geom.P(20, 0, -1)}
	single := geom.Cloud{}
	if ContentSeed(dup) == ContentSeed(single) {
		t.Error("duplicate points cancelled out of the seed")
	}
}

// TestPermIntoMatchesPerm pins the pooled permutation to rand.Perm: the
// same permutation from the same stream, and the stream left in the same
// state, so pooled padding draws exactly the noise a fresh one did.
func TestPermIntoMatchesPerm(t *testing.T) {
	var buf []int
	for _, n := range []int{0, 1, 2, 7, 64, 300} {
		want, got := rand.New(rand.NewSource(int64(n))), rand.New(rand.NewSource(int64(n)))
		wp, gp := want.Perm(n), permInto(&buf, got, n)
		if len(gp) != n {
			t.Fatalf("n=%d: permInto returned %d elements", n, len(gp))
		}
		for i := range wp {
			if gp[i] != wp[i] {
				t.Fatalf("n=%d: [%d] = %d, rand.Perm %d", n, i, gp[i], wp[i])
			}
		}
		if want.Int63() != got.Int63() {
			t.Fatalf("n=%d: streams diverge after the permutation", n)
		}
	}
}

// TestPaddingIntoBufferMatchesFresh pins that padding over a reused
// buffer gives the cloud a fresh one does: pool and Gaussian noise,
// clouds below and above the target.
func TestPaddingIntoBufferMatchesFresh(t *testing.T) {
	pool := makePool()
	var buf geom.Cloud
	for _, n := range []int{1, 5, 16, 40} {
		cloud := make(geom.Cloud, n)
		for i := range cloud {
			cloud[i] = geom.P(float64(i), float64(-i), 0.5)
		}
		for _, gauss := range []bool{false, true} {
			up := func(dst geom.Cloud, seed int64) geom.Cloud {
				rng := rand.New(rand.NewSource(seed))
				if gauss {
					return Gaussian(dst, rng, cloud, 3, 16)
				}
				return FromPool(dst, rng, cloud, pool, 16)
			}
			want := up(nil, int64(n))
			buf = up(buf, int64(n))
			if len(buf) != len(want) {
				t.Fatalf("n=%d gauss=%v: %d points, want %d", n, gauss, len(buf), len(want))
			}
			for i := range want {
				if buf[i] != want[i] {
					t.Fatalf("n=%d gauss=%v: point %d = %v, fresh %v", n, gauss, i, buf[i], want[i])
				}
			}
		}
	}
}
