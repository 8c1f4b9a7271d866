package lidarsim

import (
	"math"
	"math/rand"

	"hawccc/internal/geom"
)

// SensorConfig models a pole-mounted 32-channel spinning LiDAR restricted
// to the walkway sector (Section III: ~90° of azimuth instead of the full
// 360° scan).
type SensorConfig struct {
	// Channels is the number of laser beams in the vertical fan.
	Channels int
	// ElevationMinDeg/ElevationMaxDeg bound the fan. The defaults
	// concentrate the fan on the walkway band the deployment observes
	// (the OS0's full ±45° fan mostly stares at sky and pole shadow from
	// a 3 m mount; only the downward beams return walkway data).
	ElevationMinDeg, ElevationMaxDeg float64
	// AzimuthMinDeg/AzimuthMaxDeg bound the horizontal sector; x-forward
	// is 0°, positive toward +y.
	AzimuthMinDeg, AzimuthMaxDeg float64
	// AzimuthSteps is the number of horizontal samples across the sector.
	AzimuthSteps int
	// MaxRange is the maximum reliable return distance (m).
	MaxRange float64
	// RangeNoiseStd is the σ of Gaussian range noise (m).
	RangeNoiseStd float64
	// BaseDropout is the probability a valid return is lost at zero range;
	// dropout grows linearly to BaseDropout+RangeDropout at MaxRange,
	// reproducing the paper's weak-reflection point loss beyond ~35 m.
	BaseDropout, RangeDropout float64
	// GroundReturnProb is the probability a ground-plane hit produces a
	// return; ground returns carry extra upward noise (≤ ~0.4 m per the
	// paper's empirical observation).
	GroundReturnProb float64
	// GroundNoiseMax is the maximum upward displacement of ground returns.
	GroundNoiseMax float64
}

// DefaultSensorConfig returns the deployment configuration used throughout
// the experiments. The 32-beam fan is concentrated on the elevation band
// the ROI subtends from the 3 m mount (ground at 12 m is at −14°, heads at
// 35 m at −1.6°), and the azimuth resolution matches the sensor's fine
// horizontal mode; together these reproduce the paper's data regime of
// roughly 324-point single-person captures (each paper sample is 324×3).
func DefaultSensorConfig() SensorConfig {
	return SensorConfig{
		Channels:         32,
		ElevationMinDeg:  -16,
		ElevationMaxDeg:  -1,
		AzimuthMinDeg:    -45,
		AzimuthMaxDeg:    45,
		AzimuthSteps:     1024,
		MaxRange:         45,
		RangeNoiseStd:    0.02,
		BaseDropout:      0.05,
		RangeDropout:     0.45,
		GroundReturnProb: 0.04,
		GroundNoiseMax:   0.4,
	}
}

// Scene is a set of objects visible to the sensor. Objects are labeled so
// datasets can carry exact ground truth.
type Scene struct {
	// Humans are the pedestrian bodies in the scene.
	Humans []*Group
	// Objects are non-human structures.
	Objects []*Group
}

// AddHuman places a pedestrian and returns its index.
func (s *Scene) AddHuman(g *Group) int {
	s.Humans = append(s.Humans, g)
	return len(s.Humans) - 1
}

// AddObject places a non-human object and returns its index.
func (s *Scene) AddObject(g *Group) int {
	s.Objects = append(s.Objects, g)
	return len(s.Objects) - 1
}

// HitKind labels what a simulated return came from.
type HitKind int

// Return sources.
const (
	HitHuman HitKind = iota
	HitObject
	HitGround
)

// Return is one labeled LiDAR return.
type Return struct {
	Point geom.Point3
	Kind  HitKind
	// ID is the index of the human or object hit (−1 for ground).
	ID int
}

// Sensor scans scenes into labeled point clouds.
type Sensor struct {
	cfg SensorConfig
	rng *rand.Rand

	// Precomputed beam directions: dirs[ch][az].
	dirs [][]geom.Point3

	// wholeSector is set when some ray's azimuth does not bound what it
	// can reach (see azimuthRange), so every box goes in every bucket.
	wholeSector bool

	// Broad-phase scratch, rebuilt by every scan and kept so a recycled
	// scan does not allocate (the RNG already confines a Sensor to one
	// goroutine). bounds holds the scene's boxes, humans then objects,
	// and spans each box's azimuth-index interval. Bucket az lists the
	// boxes a ray at azimuth index az can reach, in bounds order:
	// bucketBoxes[bucketStart[az]:bucketStart[az+1]].
	bounds      []geom.Box
	spans       [][2]int
	bucketStart []int
	bucketBoxes []int
}

// nanoradian widens every azimuth interval beyond its one-step pad, so
// rounding stays covered even when a step is finer than float precision.
const nanoradian = 1e-9

// NewSensor builds a sensor with the given configuration; rng drives all
// stochastic effects (noise, dropout) and should be seeded per experiment
// for reproducibility.
func NewSensor(cfg SensorConfig, rng *rand.Rand) *Sensor {
	s := &Sensor{cfg: cfg, rng: rng}
	s.dirs = make([][]geom.Point3, cfg.Channels)
	s.bucketStart = make([]int, cfg.AzimuthSteps+1)
	lo, hi := min(cfg.AzimuthMinDeg, cfg.AzimuthMaxDeg), max(cfg.AzimuthMinDeg, cfg.AzimuthMaxDeg)
	s.wholeSector = cfg.AzimuthSteps < 2 || !(lo < hi) || lo < -180 || hi > 180
	for ch := 0; ch < cfg.Channels; ch++ {
		elev := cfg.ElevationMinDeg
		if cfg.Channels > 1 {
			elev += (cfg.ElevationMaxDeg - cfg.ElevationMinDeg) * float64(ch) / float64(cfg.Channels-1)
		}
		elevRad := elev * math.Pi / 180
		if !(math.Cos(elevRad) > 0) {
			s.wholeSector = true
		}
		row := make([]geom.Point3, cfg.AzimuthSteps)
		for az := 0; az < cfg.AzimuthSteps; az++ {
			azDeg := cfg.AzimuthMinDeg
			if cfg.AzimuthSteps > 1 {
				azDeg += (cfg.AzimuthMaxDeg - cfg.AzimuthMinDeg) * float64(az) / float64(cfg.AzimuthSteps-1)
			}
			azRad := azDeg * math.Pi / 180
			row[az] = geom.P(
				math.Cos(elevRad)*math.Cos(azRad),
				math.Cos(elevRad)*math.Sin(azRad),
				math.Sin(elevRad),
			)
		}
		s.dirs[ch] = row
	}
	return s
}

// Scan casts the full beam fan over the scene and returns the labeled
// returns. The origin is the sensor position (0,0,0).
func (s *Sensor) Scan(scene *Scene) []Return {
	return s.ScanInto(scene, nil)
}

// ScanInto is Scan appending into buf[:0], so a streaming capture loop
// can recycle one returns buffer across frames instead of allocating a
// fresh slice per sweep. The stochastic draws (noise, dropout) consume
// the sensor's RNG identically to Scan, so a given seed produces the
// same returns through either entry point.
//
// Each ray is cast only at the boxes in its azimuth bucket (see
// bucketScene). A box left out of a ray's bucket is one the ray's slab
// test would have rejected, so the returns, their tie-breaks and the RNG
// draws are those of casting every ray at every box.
func (s *Sensor) ScanInto(scene *Scene, buf []Return) []Return {
	out := buf[:0]
	origin := geom.Point3{}
	cfg := s.cfg
	s.bucketScene(scene)
	nh := len(scene.Humans)

	for ch := range s.dirs {
		for az, dir := range s.dirs[ch] {
			bestT := math.Inf(1)
			bestKind := HitGround
			bestID := -1

			for _, k := range s.bucketBoxes[s.bucketStart[az]:s.bucketStart[az+1]] {
				if !rayHitsBox(origin, dir, s.bounds[k]) {
					continue
				}
				if k < nh {
					if t, ok := scene.Humans[k].IntersectRay(origin, dir); ok && t < bestT {
						bestT, bestKind, bestID = t, HitHuman, k
					}
				} else if t, ok := scene.Objects[k-nh].IntersectRay(origin, dir); ok && t < bestT {
					bestT, bestKind, bestID = t, HitObject, k-nh
				}
			}

			// Ground plane z = GroundZ.
			if dir.Z < 0 {
				tg := (GroundZ - origin.Z) / dir.Z
				if tg > 0 && tg < bestT {
					bestT, bestKind, bestID = tg, HitGround, -1
				}
			}

			if math.IsInf(bestT, 1) || bestT > cfg.MaxRange {
				continue
			}

			// Dropout grows with range.
			drop := cfg.BaseDropout + cfg.RangeDropout*(bestT/cfg.MaxRange)
			if bestKind == HitGround {
				// Ground grazing angles return rarely.
				if s.rng.Float64() > cfg.GroundReturnProb {
					continue
				}
			} else if s.rng.Float64() < drop {
				continue
			}

			// Range noise along the beam.
			t := bestT + s.rng.NormFloat64()*cfg.RangeNoiseStd
			p := origin.Add(dir.Scale(t))
			if bestKind == HitGround {
				// Ground returns scatter upward (pulleys, grass, retro-
				// reflection): uniform in [0, GroundNoiseMax].
				p.Z += s.rng.Float64() * cfg.GroundNoiseMax
			}
			out = append(out, Return{Point: p, Kind: bestKind, ID: bestID})
		}
	}
	return out
}

// bucketScene rebuilds the broad phase for one scan: every box, humans
// then objects, goes into the bucket of each azimuth index in its
// azimuthRange, so a bucket lists its boxes in the order the all-boxes
// loop would visit them and ties on t break the same way.
func (s *Sensor) bucketScene(scene *Scene) {
	s.bounds = s.bounds[:0]
	for _, h := range scene.Humans {
		s.bounds = append(s.bounds, h.Bounds())
	}
	for _, o := range scene.Objects {
		s.bounds = append(s.bounds, o.Bounds())
	}

	start := s.bucketStart
	clear(start)
	s.spans = s.spans[:0]
	for _, b := range s.bounds {
		lo, hi := s.azimuthRange(b)
		s.spans = append(s.spans, [2]int{lo, hi})
		for az := lo; az <= hi; az++ {
			start[az+1]++
		}
	}
	for az := 1; az < len(start); az++ {
		start[az] += start[az-1]
	}
	total := start[len(start)-1]
	if cap(s.bucketBoxes) < total {
		s.bucketBoxes = make([]int, total)
	}
	s.bucketBoxes = s.bucketBoxes[:total]
	// Fill using start[az] as bucket az's cursor. That leaves start[az]
	// where bucket az+1 begins, so shift the offsets back one place.
	for k, sp := range s.spans {
		for az := sp[0]; az <= sp[1]; az++ {
			s.bucketBoxes[start[az]] = k
			start[az]++
		}
	}
	copy(start[1:], start[:len(start)-1])
	start[0] = 0
}

// azimuthRange returns the azimuth-index interval [lo, hi] of the rays
// that can reach box b; lo > hi when none can. The sensor is the origin,
// so when every beam has cos(elevation) > 0 and b's xy footprint lies in
// x > 0, a ray meets the footprint only along its own azimuth, which
// then lies between the azimuths of the footprint's corners. Those map
// to indices through NewSensor's index↔angle relation, padded by one
// step and a nanoradian against rounding. Where that geometry does not
// hold (a footprint reaching x ≤ 0, a beam at or past vertical, fewer
// than two steps, a zero-width sector, a sector wrapping past ±180°) it
// is the whole sector.
func (s *Sensor) azimuthRange(b geom.Box) (lo, hi int) {
	cfg := s.cfg
	last := cfg.AzimuthSteps - 1
	if s.wholeSector || !(min(b.Min.X, b.Max.X) > 0) {
		return 0, last
	}
	aLo, aHi := math.Inf(1), math.Inf(-1)
	for _, x := range [2]float64{b.Min.X, b.Max.X} {
		for _, y := range [2]float64{b.Min.Y, b.Max.Y} {
			a := math.Atan2(y, x)
			aLo, aHi = min(aLo, a), max(aHi, a)
		}
	}
	if math.IsNaN(aLo) || math.IsNaN(aHi) {
		return 0, last
	}
	// Invert azDeg = AzimuthMinDeg + (AzimuthMaxDeg−AzimuthMinDeg)·az/last;
	// a sector given max-first maps decreasingly, hence the sort.
	scale := float64(last) / (cfg.AzimuthMaxDeg - cfg.AzimuthMinDeg)
	fLo := ((aLo-nanoradian)*180/math.Pi - cfg.AzimuthMinDeg) * scale
	fHi := ((aHi+nanoradian)*180/math.Pi - cfg.AzimuthMinDeg) * scale
	fLo, fHi = min(fLo, fHi), max(fLo, fHi)
	lo = int(min(max(math.Floor(fLo)-1, 0), float64(last+1)))
	hi = int(max(min(math.Ceil(fHi)+1, float64(last)), -1))
	return lo, hi
}

// CloudOf extracts the bare point cloud from labeled returns.
func CloudOf(returns []Return) geom.Cloud {
	return CloudOfInto(make(geom.Cloud, 0, len(returns)), returns)
}

// CloudOfInto appends the bare points of returns to dst and returns the
// extended slice — CloudOf's pooled-buffer companion for per-frame
// callers (pass dst[:0] to reuse a frame buffer).
func CloudOfInto(dst geom.Cloud, returns []Return) geom.Cloud {
	if need := len(dst) + len(returns); cap(dst) < need {
		grown := make(geom.Cloud, len(dst), need)
		copy(grown, dst)
		dst = grown
	}
	for _, r := range returns {
		dst = append(dst, r.Point)
	}
	return dst
}

// SplitByKind partitions returns into human, object, and ground clouds.
func SplitByKind(returns []Return) (human, object, ground geom.Cloud) {
	for _, r := range returns {
		switch r.Kind {
		case HitHuman:
			human = append(human, r.Point)
		case HitObject:
			object = append(object, r.Point)
		default:
			ground = append(ground, r.Point)
		}
	}
	return human, object, ground
}
