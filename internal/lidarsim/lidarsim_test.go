package lidarsim

import (
	"math"
	"math/rand"
	"testing"

	"hawccc/internal/geom"
)

func TestSphereIntersection(t *testing.T) {
	s := Sphere{Center: geom.P(10, 0, 0), Radius: 1}
	tests := []struct {
		name    string
		origin  geom.Point3
		dir     geom.Point3
		wantT   float64
		wantHit bool
	}{
		{"head on", geom.P(0, 0, 0), geom.P(1, 0, 0), 9, true},
		{"miss", geom.P(0, 0, 0), geom.P(0, 1, 0), 0, false},
		{"behind", geom.P(20, 0, 0), geom.P(1, 0, 0), 0, false},
		{"from inside", geom.P(10, 0, 0), geom.P(1, 0, 0), 1, true},
		{"tangent-ish", geom.P(0, 1, 0), geom.P(1, 0, 0), 10, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, hit := s.IntersectRay(tt.origin, tt.dir)
			if hit != tt.wantHit {
				t.Fatalf("hit = %v, want %v", hit, tt.wantHit)
			}
			if hit && math.Abs(got-tt.wantT) > 1e-9 {
				t.Errorf("t = %v, want %v", got, tt.wantT)
			}
		})
	}
	if _, hit := s.IntersectRay(geom.P(0, 0, 0), geom.Point3{}); hit {
		t.Error("zero direction should not hit")
	}
}

func TestEllipsoidIntersection(t *testing.T) {
	e := Ellipsoid{Center: geom.P(5, 0, 0), Semi: geom.P(1, 2, 3)}
	// Along x: surface at x = 4.
	tt, hit := e.IntersectRay(geom.P(0, 0, 0), geom.P(1, 0, 0))
	if !hit || math.Abs(tt-4) > 1e-9 {
		t.Errorf("x-axis hit t = %v, hit = %v, want 4", tt, hit)
	}
	// Along y from (5, -10, 0): surface at y = -2 → t = 8.
	tt, hit = e.IntersectRay(geom.P(5, -10, 0), geom.P(0, 1, 0))
	if !hit || math.Abs(tt-8) > 1e-9 {
		t.Errorf("y-axis hit t = %v, want 8", tt)
	}
	// A ray passing x at height z=2.9 < 3 must hit; z=3.1 must miss.
	if _, hit = e.IntersectRay(geom.P(0, 0, 2.9), geom.P(1, 0, 0)); !hit {
		t.Error("ray at z=2.9 should hit semi-z=3 ellipsoid")
	}
	if _, hit = e.IntersectRay(geom.P(0, 0, 3.1), geom.P(1, 0, 0)); hit {
		t.Error("ray at z=3.1 should miss")
	}
}

func TestVCylinderIntersection(t *testing.T) {
	c := VCylinder{Base: geom.P(10, 0, -3), Radius: 0.5, Height: 2}
	// Horizontal ray at z=-2 (inside height band): hits front at x=9.5.
	tt, hit := c.IntersectRay(geom.P(0, 0, -2), geom.P(1, 0, 0))
	if !hit || math.Abs(tt-9.5) > 1e-9 {
		t.Errorf("t = %v, hit = %v, want 9.5", tt, hit)
	}
	// Above the top (z=-0.5 > base+height=-1): miss.
	if _, hit = c.IntersectRay(geom.P(0, 0, -0.5), geom.P(1, 0, 0)); hit {
		t.Error("ray above cylinder top should miss")
	}
	// Vertical ray: side surface unreachable.
	if _, hit = c.IntersectRay(geom.P(10, 0, 5), geom.P(0, 0, -1)); hit {
		t.Error("vertical ray should not hit side surface")
	}
	// Slanted ray that crosses the band: first crossing of the infinite
	// cylinder is above the top, the second inside — must report the hit.
	tt, hit = c.IntersectRay(geom.P(0, 0, 0), geom.P(1, 0, -0.2))
	if !hit {
		t.Fatal("slanted ray should hit")
	}
	z := 0 + tt*-0.2
	if z < -3 || z > -1 {
		t.Errorf("hit z = %v outside cylinder band [-3, -1]", z)
	}
}

func TestBoxShapeIntersection(t *testing.T) {
	b := BoxShape{Box: geom.Box{Min: geom.P(5, -1, -1), Max: geom.P(6, 1, 1)}}
	tt, hit := b.IntersectRay(geom.P(0, 0, 0), geom.P(1, 0, 0))
	if !hit || math.Abs(tt-5) > 1e-9 {
		t.Errorf("t = %v, want 5", tt)
	}
	if _, hit = b.IntersectRay(geom.P(0, 5, 0), geom.P(1, 0, 0)); hit {
		t.Error("parallel offset ray should miss")
	}
	// Ray starting inside exits at far face.
	tt, hit = b.IntersectRay(geom.P(5.5, 0, 0), geom.P(1, 0, 0))
	if !hit || math.Abs(tt-0.5) > 1e-9 {
		t.Errorf("inside ray t = %v, want 0.5", tt)
	}
}

func TestGroupNearestHit(t *testing.T) {
	g := NewGroup(
		Sphere{Center: geom.P(10, 0, 0), Radius: 1},
		Sphere{Center: geom.P(5, 0, 0), Radius: 1},
	)
	tt, hit := g.IntersectRay(geom.P(0, 0, 0), geom.P(1, 0, 0))
	if !hit || math.Abs(tt-4) > 1e-9 {
		t.Errorf("group should report nearest hit: t = %v, want 4", tt)
	}
	if _, hit := g.IntersectRay(geom.P(0, 0, 0), geom.P(0, 0, 1)); hit {
		t.Error("group should miss")
	}
	b := g.Bounds()
	if b.Min.X != 4 || b.Max.X != 11 {
		t.Errorf("group bounds = %+v", b)
	}
}

func TestHumanGeometry(t *testing.T) {
	p := HumanParams{Position: geom.P(20, 0, 0), Height: 1.8, ShoulderWidth: 0.4}
	h := NewHuman(p)
	b := h.Bounds()
	// Feet on the ground, head near GroundZ + height.
	if math.Abs(b.Min.Z-GroundZ) > 1e-9 {
		t.Errorf("feet at z = %v, want %v", b.Min.Z, GroundZ)
	}
	if math.Abs(b.Max.Z-(GroundZ+1.8)) > 0.01 {
		t.Errorf("head top at z = %v, want ≈ %v", b.Max.Z, GroundZ+1.8)
	}
	// A horizontal ray at torso height must hit.
	if _, hit := h.IntersectRay(geom.P(0, 0, GroundZ+1.2), geom.P(1, 0, 0)); !hit {
		t.Error("torso-height ray should hit")
	}
	// A ray well above the head must miss.
	if _, hit := h.IntersectRay(geom.P(0, 0, GroundZ+2.5), geom.P(1, 0, 0)); hit {
		t.Error("ray above head should miss")
	}
}

func TestRandomHumanParamsClamped(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		p := RandomHumanParams(rng, 20, 0)
		if p.Height < 1.45 || p.Height > 2.05 {
			t.Fatalf("height %v out of clamp range", p.Height)
		}
	}
}

func TestObjectKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for k := ObjectKind(0); k < numObjectKinds; k++ {
		g := NewObject(k, rng, 20, 1)
		if len(g.Shapes) == 0 {
			t.Errorf("%v has no shapes", k)
		}
		if g.Bounds().IsEmpty() {
			t.Errorf("%v has empty bounds", k)
		}
		if k.String() == "" {
			t.Errorf("kind %d has empty name", k)
		}
	}
	if ObjectKind(99).String() != "ObjectKind(99)" {
		t.Error("unknown kind String")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewObject should panic on unknown kind")
		}
	}()
	NewObject(ObjectKind(99), rng, 0, 0)
}

func TestScanSinglePerson(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sensor := NewSensor(DefaultSensorConfig(), rng)
	scene := &Scene{}
	scene.AddHuman(NewHuman(RandomHumanParams(rng, 18, 0)))

	returns := sensor.Scan(scene)
	human, object, ground := SplitByKind(returns)
	if len(object) != 0 {
		t.Errorf("no objects in scene but %d object returns", len(object))
	}
	if len(human) < 20 {
		t.Fatalf("only %d human returns at 18 m; sensor fan too sparse", len(human))
	}
	if len(ground) == 0 {
		t.Error("expected some ground returns")
	}
	// Human returns must be near the body position and within body heights.
	for _, p := range human {
		if math.Abs(p.X-18) > 1.0 || math.Abs(p.Y) > 1.0 {
			t.Fatalf("human return far from body: %+v", p)
		}
		if p.Z < GroundZ-0.1 || p.Z > GroundZ+2.2 {
			t.Fatalf("human return outside body height band: %+v", p)
		}
	}
	// Density must decay with distance: a person at 30 m yields fewer
	// points than one at 14 m.
	near := &Scene{}
	near.AddHuman(NewHuman(HumanParams{Position: geom.P(14, 0, 0), Height: 1.72, ShoulderWidth: 0.4}))
	far := &Scene{}
	far.AddHuman(NewHuman(HumanParams{Position: geom.P(30, 0, 0), Height: 1.72, ShoulderWidth: 0.4}))
	nearHuman, _, _ := SplitByKind(sensor.Scan(near))
	farHuman, _, _ := SplitByKind(sensor.Scan(far))
	if len(farHuman) >= len(nearHuman) {
		t.Errorf("density should decay with distance: near=%d far=%d", len(nearHuman), len(farHuman))
	}
}

func TestScanOcclusion(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := DefaultSensorConfig()
	cfg.BaseDropout, cfg.RangeDropout = 0, 0 // deterministic visibility
	sensor := NewSensor(cfg, rng)

	// A wall between sensor and human: human must receive no returns.
	scene := &Scene{}
	scene.AddHuman(NewHuman(HumanParams{Position: geom.P(25, 0, 0), Height: 1.7, ShoulderWidth: 0.4}))
	scene.AddObject(NewGroup(BoxShape{Box: geom.Box{
		Min: geom.P(15, -5, GroundZ),
		Max: geom.P(15.3, 5, GroundZ+3),
	}}))
	human, object, _ := SplitByKind(sensor.Scan(scene))
	if len(human) != 0 {
		t.Errorf("occluded human received %d returns", len(human))
	}
	if len(object) == 0 {
		t.Error("wall should receive returns")
	}
}

func TestGroundReturnsStayInNoiseBand(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := DefaultSensorConfig()
	sensor := NewSensor(cfg, rng)
	_, _, ground := SplitByKind(sensor.Scan(&Scene{}))
	if len(ground) == 0 {
		t.Fatal("empty scene should still produce ground returns")
	}
	for _, p := range ground {
		// Range noise adds ±3σ along the beam on top of the upward shift.
		if p.Z < GroundZ-0.15 || p.Z > GroundZ+cfg.GroundNoiseMax+0.15 {
			t.Fatalf("ground return z = %v outside noise band", p.Z)
		}
	}
}

func TestCloudOf(t *testing.T) {
	rs := []Return{{Point: geom.P(1, 2, 3)}, {Point: geom.P(4, 5, 6)}}
	c := CloudOf(rs)
	if len(c) != 2 || c[0] != geom.P(1, 2, 3) {
		t.Errorf("CloudOf = %v", c)
	}
}

// TestCloudOfInto pins the pooled-buffer companion: CloudOfInto matches
// CloudOf and is allocation-free once its buffer has grown to frame
// size.
func TestCloudOfInto(t *testing.T) {
	rs := make([]Return, 100)
	for i := range rs {
		rs[i] = Return{Point: geom.P(float64(i), float64(2*i), 1.5)}
	}
	want := CloudOf(rs)

	buf := CloudOfInto(nil, rs)
	if len(buf) != len(want) {
		t.Fatalf("CloudOfInto len %d, want %d", len(buf), len(want))
	}
	for i := range want {
		if buf[i] != want[i] {
			t.Fatalf("point %d: %v != %v", i, buf[i], want[i])
		}
	}
	if allocs := testing.AllocsPerRun(50, func() {
		buf = CloudOfInto(buf[:0], rs)
	}); allocs != 0 {
		t.Fatalf("recycled CloudOfInto allocates: %.1f allocs/op", allocs)
	}
}

func TestSensorDeterminism(t *testing.T) {
	scene := &Scene{}
	scene.AddHuman(NewHuman(HumanParams{Position: geom.P(20, 1, 0), Height: 1.75, ShoulderWidth: 0.42}))
	a := NewSensor(DefaultSensorConfig(), rand.New(rand.NewSource(5))).Scan(scene)
	b := NewSensor(DefaultSensorConfig(), rand.New(rand.NewSource(5))).Scan(scene)
	if len(a) != len(b) {
		t.Fatalf("same seed produced %d vs %d returns", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("return %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestScanIntoMatchesScanAndRecycles(t *testing.T) {
	build := func() (*Sensor, *Scene) {
		rng := rand.New(rand.NewSource(77))
		scene := &Scene{}
		scene.AddHuman(NewHuman(RandomHumanParams(rng, 18, 0)))
		scene.AddHuman(NewHuman(RandomHumanParams(rng, 25, 1)))
		return NewSensor(DefaultSensorConfig(), rng), scene
	}

	// Same seed through either entry point: identical returns.
	s1, scene1 := build()
	want := s1.Scan(scene1)
	s2, scene2 := build()
	got := s2.ScanInto(scene2, nil)
	if len(got) != len(want) {
		t.Fatalf("ScanInto produced %d returns, Scan %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("return %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}

	// Recycling the buffer reuses its backing array once grown.
	s3, scene3 := build()
	buf := s3.ScanInto(scene3, nil)
	if len(buf) == 0 {
		t.Fatal("no returns to recycle")
	}
	backing := &buf[0]
	again := s3.ScanInto(scene3, buf)
	if len(again) == 0 || &again[0] != backing {
		t.Error("recycled ScanInto did not reuse the grown buffer")
	}
}
