package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPointArithmetic(t *testing.T) {
	p := Point3{1, 2, 3}
	q := Point3{4, -5, 6}

	if got := p.Add(q); got != (Point3{5, -3, 9}) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != (Point3{-3, 7, -3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != (Point3{2, 4, 6}) {
		t.Errorf("Scale = %v", got)
	}
	if got := p.Dot(q); got != 1*4+2*-5+3*6 {
		t.Errorf("Dot = %v", got)
	}
}

func TestDistMatchesDist2(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		// Constrain magnitudes to avoid overflow-driven false negatives.
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 1e6)
		}
		p := Point3{clamp(ax), clamp(ay), clamp(az)}
		q := Point3{clamp(bx), clamp(by), clamp(bz)}
		d := p.Dist(q)
		return math.Abs(d*d-p.Dist2(q)) <= 1e-6*(1+p.Dist2(q))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCoordPanicsOnBadAxis(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for axis 3")
		}
	}()
	Point3{}.Coord(3)
}

func TestCentroid(t *testing.T) {
	tests := []struct {
		name  string
		cloud Cloud
		want  Point3
	}{
		{"empty", nil, Point3{}},
		{"single", Cloud{{1, 2, 3}}, Point3{1, 2, 3}},
		{"symmetric", Cloud{{-1, 0, 0}, {1, 0, 0}, {0, -2, 4}, {0, 2, -4}}, Point3{0, 0, 0}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := tt.cloud.Centroid()
			if !almostEqual(got.X, tt.want.X) || !almostEqual(got.Y, tt.want.Y) || !almostEqual(got.Z, tt.want.Z) {
				t.Errorf("Centroid() = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestCloneIsDeep(t *testing.T) {
	c := Cloud{{1, 1, 1}}
	d := c.Clone()
	d[0] = Point3{9, 9, 9}
	if c[0] != (Point3{1, 1, 1}) {
		t.Error("Clone shares storage with original")
	}
}

func TestBounds(t *testing.T) {
	c := Cloud{{1, 5, -2}, {-3, 2, 7}, {0, 0, 0}}
	b := c.Bounds()
	if b.Min != (Point3{-3, 0, -2}) || b.Max != (Point3{1, 5, 7}) {
		t.Errorf("Bounds = %+v", b)
	}
	if Cloud(nil).Bounds().IsEmpty() != true {
		t.Error("empty cloud should produce empty box")
	}
}

func TestEmptyBoxAndExtend(t *testing.T) {
	b := EmptyBox()
	if !b.IsEmpty() {
		t.Fatal("EmptyBox not empty")
	}
	b = b.Extend(Point3{1, 1, 1})
	if b.IsEmpty() || b.Min != (Point3{1, 1, 1}) || b.Max != (Point3{1, 1, 1}) {
		t.Fatalf("Extend failed to create degenerate box: %+v", b)
	}
	b = b.Extend(Point3{-1, 2, 0})
	if b.Min != (Point3{-1, 1, 0}) || b.Max != (Point3{1, 2, 1}) {
		t.Errorf("Extend = %+v", b)
	}
}

func TestBoxUnion(t *testing.T) {
	a := Box{Min: Point3{0, 0, 0}, Max: Point3{1, 1, 1}}
	b := Box{Min: Point3{2, 2, 2}, Max: Point3{3, 3, 3}}
	u := a.Union(b)
	if u.Min != (Point3{0, 0, 0}) || u.Max != (Point3{3, 3, 3}) {
		t.Errorf("Union = %+v", u)
	}
	if got := EmptyBox().Union(a); got != a {
		t.Errorf("empty union a = %+v", got)
	}
	if got := a.Union(EmptyBox()); got != a {
		t.Errorf("a union empty = %+v", got)
	}
}

func TestBoxSize(t *testing.T) {
	b := Box{Min: Point3{0, -2, 1}, Max: Point3{4, 2, 3}}
	if b.Size() != (Point3{4, 4, 2}) {
		t.Errorf("Size = %v", b.Size())
	}
	if EmptyBox().Size() != (Point3{}) {
		t.Error("empty box size should be zero")
	}
}

func TestFilterAndBounds(t *testing.T) {
	c := Cloud{{0, 0, -3}, {0, 0, -1}, {0, 0, 2}}
	kept := c.Filter(func(p Point3) bool { return p.Z >= -2.6 })
	if len(kept) != 2 {
		t.Fatalf("Filter kept %d points, want 2", len(kept))
	}
	if b := c.Bounds(); b.Min.Z != -3 || b.Max.Z != 2 {
		t.Errorf("Bounds z = [%v, %v], want [-3, 2]", b.Min.Z, b.Max.Z)
	}
}

func randCloud(rng *rand.Rand, n int) Cloud {
	c := make(Cloud, n)
	for i := range c {
		c[i] = Point3{
			X: rng.Float64()*60 - 30,
			Y: rng.Float64()*60 - 30,
			Z: rng.Float64() * 3,
		}
	}
	return c
}

// TestAppendTranslated checks the fused translate+append against a
// point-by-point append, and pins its allocation behavior: exactly one
// allocation from nil, zero into spare capacity.
func TestAppendTranslated(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	src := randCloud(rng, 128)
	d := P(2.5, -1.25, 0.5)

	want := Cloud{{X: 9}}
	for _, p := range src {
		want = append(want, p.Add(d))
	}
	got := AppendTranslated(Cloud{{X: 9}}, src, d)
	if len(got) != len(want) {
		t.Fatalf("len %d != %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("point %d: %v != %v", i, got[i], want[i])
		}
	}

	if allocs := testing.AllocsPerRun(50, func() {
		_ = AppendTranslated(nil, src, d)
	}); allocs != 1 {
		t.Fatalf("AppendTranslated(nil, ...) allocs = %.1f, want 1", allocs)
	}
	buf := make(Cloud, 0, 2*len(src))
	if allocs := testing.AllocsPerRun(50, func() {
		buf = AppendTranslated(buf[:0], src, d)
	}); allocs != 0 {
		t.Fatalf("AppendTranslated into spare capacity allocs = %.1f, want 0", allocs)
	}
}
