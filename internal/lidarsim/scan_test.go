package lidarsim

import (
	"math"
	"math/rand"
	"testing"

	"hawccc/internal/geom"
)

// scanBrute is ScanInto without the azimuth broad phase: every ray is
// slab-tested against every box. It is the oracle the bucketed scan must
// equal bit for bit, RNG draws included.
func scanBrute(s *Sensor, scene *Scene) []Return {
	var out []Return
	origin := geom.Point3{}
	cfg := s.cfg

	humanBounds := make([]geom.Box, len(scene.Humans))
	for i, h := range scene.Humans {
		humanBounds[i] = h.Bounds()
	}
	objectBounds := make([]geom.Box, len(scene.Objects))
	for i, o := range scene.Objects {
		objectBounds[i] = o.Bounds()
	}

	for ch := range s.dirs {
		for _, dir := range s.dirs[ch] {
			bestT := math.Inf(1)
			bestKind := HitGround
			bestID := -1

			for i, h := range scene.Humans {
				if !rayHitsBox(origin, dir, humanBounds[i]) {
					continue
				}
				if t, ok := h.IntersectRay(origin, dir); ok && t < bestT {
					bestT, bestKind, bestID = t, HitHuman, i
				}
			}
			for i, o := range scene.Objects {
				if !rayHitsBox(origin, dir, objectBounds[i]) {
					continue
				}
				if t, ok := o.IntersectRay(origin, dir); ok && t < bestT {
					bestT, bestKind, bestID = t, HitObject, i
				}
			}

			if dir.Z < 0 {
				tg := (GroundZ - origin.Z) / dir.Z
				if tg > 0 && tg < bestT {
					bestT, bestKind, bestID = tg, HitGround, -1
				}
			}

			if math.IsInf(bestT, 1) || bestT > cfg.MaxRange {
				continue
			}

			drop := cfg.BaseDropout + cfg.RangeDropout*(bestT/cfg.MaxRange)
			if bestKind == HitGround {
				if s.rng.Float64() > cfg.GroundReturnProb {
					continue
				}
			} else if s.rng.Float64() < drop {
				continue
			}

			t := bestT + s.rng.NormFloat64()*cfg.RangeNoiseStd
			p := origin.Add(dir.Scale(t))
			if bestKind == HitGround {
				p.Z += s.rng.Float64() * cfg.GroundNoiseMax
			}
			out = append(out, Return{Point: p, Kind: bestKind, ID: bestID})
		}
	}
	return out
}

// crowdScene places people pedestrians on the walkway band and objects
// campus objects along its edges, at the ranges the deployment ROI sees.
func crowdScene(rng *rand.Rand, people, objects int) *Scene {
	scene := &Scene{}
	for i := 0; i < people; i++ {
		scene.AddHuman(NewHuman(RandomHumanParams(rng, 12+rng.Float64()*23, rng.Float64()*3.8-1.9)))
	}
	for i := 0; i < objects; i++ {
		scene.AddObject(NewObject(RandomObjectKindHard(rng), rng, 12+rng.Float64()*23, rng.Float64()*4.8-2.4))
	}
	return scene
}

// box is a one-box group spanning [min, max].
func box(min, max geom.Point3) *Group {
	return NewGroup(BoxShape{Box: geom.Box{Min: min, Max: max}})
}

// adversarialScenes are the layouts the broad phase's geometry argument
// has to survive: boxes behind the sensor, across x = 0, around the
// origin, on and past the sector's edges, ties, and degenerate groups.
func adversarialScenes() map[string]*Scene {
	scenes := map[string]*Scene{"empty": {}}

	behind := &Scene{}
	behind.AddHuman(NewHuman(HumanParams{Position: geom.P(-15, 0, 0), Height: 1.7, ShoulderWidth: 0.4}))
	behind.AddObject(box(geom.P(-20, -30, GroundZ), geom.P(-19, 30, 0)))
	behind.AddHuman(NewHuman(HumanParams{Position: geom.P(15, 1, 0), Height: 1.7, ShoulderWidth: 0.4}))
	scenes["behind"] = behind

	straddle := &Scene{}
	straddle.AddObject(box(geom.P(-1, 4, GroundZ), geom.P(1, 6, 1)))   // across x = 0 at +y
	straddle.AddObject(box(geom.P(-2, -9, GroundZ), geom.P(0, -3, 1))) // touching x = 0 at −y
	straddle.AddObject(box(geom.P(0, -40, GroundZ), geom.P(30, -39, 1)))
	straddle.AddObject(box(geom.P(1e-9, -5, GroundZ), geom.P(0.5, 5, 2))) // just past x = 0, ±90°
	straddle.AddHuman(NewHuman(HumanParams{Position: geom.P(20, 0, 0), Height: 1.8, ShoulderWidth: 0.4}))
	scenes["straddle x=0"] = straddle

	origin := &Scene{}
	origin.AddHuman(NewHuman(HumanParams{Position: geom.P(18, 0, 0), Height: 1.7, ShoulderWidth: 0.4}))
	origin.AddObject(box(geom.P(-1, -1, -1), geom.P(1, 1, 1)))
	scenes["contains origin"] = origin

	overhead := &Scene{}
	overhead.AddObject(box(geom.P(0.5, -1, 0.5), geom.P(3, 1, 4))) // reachable past vertical from behind
	overhead.AddHuman(NewHuman(HumanParams{Position: geom.P(14, 0, 0), Height: 1.7, ShoulderWidth: 0.4}))
	scenes["overhead"] = overhead

	ties := &Scene{}
	p := HumanParams{Position: geom.P(16, 0.5, 0), Height: 1.75, ShoulderWidth: 0.42}
	ties.AddHuman(NewHuman(p))
	ties.AddHuman(NewHuman(p)) // the same body twice: the first index must win
	ties.AddObject(NewHuman(p))
	wall := box(geom.P(25, -3, GroundZ), geom.P(25.2, 3, 0))
	ties.AddObject(wall)
	ties.AddObject(wall)
	ties.AddHuman(NewHuman(HumanParams{Position: geom.P(25.1, 0, 0), Height: 1.7, ShoulderWidth: 0.4}))
	scenes["tied hits"] = ties

	edges := &Scene{}
	edges.AddHuman(NewHuman(HumanParams{Position: geom.P(20, 20, 0), Height: 1.7, ShoulderWidth: 0.4}))   // on +45°
	edges.AddHuman(NewHuman(HumanParams{Position: geom.P(20, -20, 0), Height: 1.7, ShoulderWidth: 0.4}))  // on −45°
	edges.AddHuman(NewHuman(HumanParams{Position: geom.P(10, 17.3, 0), Height: 1.7, ShoulderWidth: 0.4})) // at 60°
	edges.AddObject(box(geom.P(1, -math.Inf(1), GroundZ), geom.P(2, math.Inf(1), 0)))                     // an infinite wall
	edges.AddObject(NewGroup())                                                                           // empty bounds
	edges.AddObject(&Group{Shapes: []Shape{Sphere{Center: geom.P(14, 2, -2), Radius: 0.5}}})              // unsealed
	scenes["edges and degenerate groups"] = edges
	return scenes
}

// grazingScene puts, at azimuths across s's sector, a pair of boxes
// whose footprints meet at a corner lying on a ray: one box holds that
// ray's azimuth as its smallest, the other as its largest. Whether the
// ray is cast at them is decided by rounding, which the broad phase's
// intervals have to cover.
func grazingScene(s *Sensor) *Scene {
	scene := &Scene{}
	for k := 0; k <= 16; k++ {
		for _, row := range s.dirs {
			d := row[(len(row)-1)*k/16]
			if d.X > 0 && d.Y > 0 {
				x, y := 20*d.X, 20*d.Y
				scene.AddObject(box(geom.P(x-0.5, y, -10), geom.P(x, y+0.5, 10)))
				scene.AddObject(box(geom.P(x, y-0.5, -10), geom.P(x+0.5, y, 10)))
				break
			}
		}
	}
	return scene
}

// TestScanMatchesBruteForce pins the azimuth broad phase to the
// all-boxes loop: on crowd scenes, adversarial scenes and adversarial
// sensor configurations, every return is bit-identical and the RNG is
// left in the same state.
func TestScanMatchesBruteForce(t *testing.T) {
	check := func(t *testing.T, cfg SensorConfig, seed int64, scenes ...*Scene) {
		t.Helper()
		// One sensor per side scans the scenes in turn, so broad-phase
		// scratch left by one scene is reused by the next.
		fast := NewSensor(cfg, rand.New(rand.NewSource(seed)))
		slow := NewSensor(cfg, rand.New(rand.NewSource(seed)))
		var buf []Return
		for i, scene := range scenes {
			buf = fast.ScanInto(scene, buf)
			want := scanBrute(slow, scene)
			if len(buf) != len(want) {
				t.Fatalf("scene %d: %d returns, brute force %d", i, len(buf), len(want))
			}
			for j := range want {
				g, w := buf[j], want[j]
				if math.Float64bits(g.Point.X) != math.Float64bits(w.Point.X) ||
					math.Float64bits(g.Point.Y) != math.Float64bits(w.Point.Y) ||
					math.Float64bits(g.Point.Z) != math.Float64bits(w.Point.Z) ||
					g.Kind != w.Kind || g.ID != w.ID {
					t.Fatalf("scene %d return %d: %+v, brute force %+v", i, j, g, w)
				}
			}
			if g, w := fast.rng.Int63(), slow.rng.Int63(); g != w {
				t.Fatalf("scene %d: next RNG draw %d, brute force %d", i, g, w)
			}
		}
	}

	t.Run("crowds", func(t *testing.T) {
		rng := rand.New(rand.NewSource(33))
		var scenes []*Scene
		for _, n := range []int{1, 6, 16, 32} {
			scenes = append(scenes, crowdScene(rng, n, 6))
		}
		check(t, DefaultSensorConfig(), 1, scenes...)
	})

	adversarial := adversarialScenes()
	for name, scene := range adversarial {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultSensorConfig()
			cfg.BaseDropout, cfg.RangeDropout, cfg.GroundReturnProb = 0, 0, 1 // every hit is a return
			check(t, cfg, 2, scene)
		})
	}
	t.Run("grazing", func(t *testing.T) {
		cfg := DefaultSensorConfig()
		cfg.BaseDropout, cfg.RangeDropout, cfg.GroundReturnProb = 0, 0, 1
		check(t, cfg, 2, grazingScene(NewSensor(cfg, nil)))
	})

	configs := map[string]func(*SensorConfig){
		"360° sector":       func(c *SensorConfig) { c.AzimuthMinDeg, c.AzimuthMaxDeg = -180, 180 },
		"sector past 180°":  func(c *SensorConfig) { c.AzimuthMinDeg, c.AzimuthMaxDeg = 0, 360 },
		"reversed sector":   func(c *SensorConfig) { c.AzimuthMinDeg, c.AzimuthMaxDeg = 45, -45 },
		"hairline sector":   func(c *SensorConfig) { c.AzimuthMinDeg, c.AzimuthMaxDeg = 2, 2+1e-13 },
		"zero-width sector": func(c *SensorConfig) { c.AzimuthMinDeg, c.AzimuthMaxDeg = 2, 2 },
		"1 step":            func(c *SensorConfig) { c.AzimuthSteps = 1 },
		"1 channel":         func(c *SensorConfig) { c.Channels = 1 },
		"elevations ±90°":   func(c *SensorConfig) { c.ElevationMinDeg, c.ElevationMaxDeg = -90, 90 },
		"elevations past 90°": func(c *SensorConfig) {
			c.ElevationMinDeg, c.ElevationMaxDeg = -100, 120
			c.AzimuthMinDeg, c.AzimuthMaxDeg = -180, 180
		},
	}
	for name, edit := range configs {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultSensorConfig()
			cfg.AzimuthSteps = 256
			cfg.BaseDropout, cfg.RangeDropout = 0, 0
			edit(&cfg)
			scenes := []*Scene{crowdScene(rand.New(rand.NewSource(4)), 12, 4), grazingScene(NewSensor(cfg, nil))}
			for _, name := range []string{"behind", "straddle x=0", "contains origin", "overhead", "tied hits", "edges and degenerate groups", "empty"} {
				scenes = append(scenes, adversarial[name])
			}
			check(t, cfg, 3, scenes...)
		})
	}
}

// TestScanIntoZeroAllocs pins the recycled scan allocation-free: the
// broad phase's bounds and buckets live on the Sensor, and the returns
// go into the caller's buffer.
func TestScanIntoZeroAllocs(t *testing.T) {
	cfg := DefaultSensorConfig()
	rng := rand.New(rand.NewSource(9))
	scene := crowdScene(rng, 32, 6)
	s := NewSensor(cfg, rng)
	buf := make([]Return, 0, cfg.Channels*cfg.AzimuthSteps) // one return per ray at most
	if allocs := testing.AllocsPerRun(20, func() {
		buf = s.ScanInto(scene, buf)
	}); allocs != 0 {
		t.Fatalf("recycled ScanInto allocates: %.1f allocs/op", allocs)
	}
}

// BenchmarkScan prices one scan of the deployment sensor: one
// pedestrian, and a crowd of 32 beside 6 objects.
func BenchmarkScan(b *testing.B) {
	for _, bc := range []struct {
		name            string
		people, objects int
	}{{"single", 1, 0}, {"crowd", 32, 6}} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(11))
			scene := crowdScene(rng, bc.people, bc.objects)
			s := NewSensor(DefaultSensorConfig(), rng)
			buf := s.ScanInto(scene, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = s.ScanInto(scene, buf)
			}
			b.ReportMetric(float64(len(buf)), "returns")
		})
	}
}
