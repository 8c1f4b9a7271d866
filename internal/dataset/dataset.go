// Package dataset generates and manages the labeled LiDAR datasets the
// evaluation needs. It mirrors the paper's two curated datasets
// (Section VII-A): a single-person dataset for detection accuracy, and a
// multi-person dataset for crowd counting, plus the object-only pool used
// both as the negative class and as the source of noise-controlled
// up-sampling points. Where the paper collected a year of campus captures,
// this package synthesizes scenes and scans them with internal/lidarsim
// (see DESIGN.md for the substitution argument).
package dataset

import (
	"fmt"
	"io"
	"math/rand"

	"hawccc/internal/geom"
	"hawccc/internal/ground"
	"hawccc/internal/lidarsim"
)

// Sample is one cluster-level labeled capture for the human/object
// classification task. The paper's annotators lasso-selected the human
// pattern from each capture; here the simulator's labels are exact.
type Sample struct {
	Cloud geom.Cloud
	Human bool
}

// Frame is one full-scene capture with a crowd-count ground truth, used
// for the counting task.
type Frame struct {
	Cloud geom.Cloud
	Count int
}

// MinVisiblePoints is how many post-ingestion returns a pedestrian must
// produce to be counted in a frame's ground truth. The paper's ground
// truth came from human annotators who can only label people that produce
// a visible pattern; five returns is the smallest pattern our annota-
// bility proxy accepts.
const MinVisiblePoints = 5

// Generator produces datasets from simulated scans. All randomness flows
// from the supplied rng so experiments are reproducible.
type Generator struct {
	// HardObjects widens the object population with the human-confusable
	// extension kinds (saplings, umbrellas, scooters, luggage) — a
	// robustness scenario beyond the paper's deployment data.
	HardObjects bool

	sensor *lidarsim.Sensor
	roi    ground.ROI
	rng    *rand.Rand
}

// NewGenerator builds a Generator with the deployment sensor configuration
// and ROI.
func NewGenerator(seed int64) *Generator {
	rng := rand.New(rand.NewSource(seed))
	return &Generator{
		sensor: lidarsim.NewSensor(lidarsim.DefaultSensorConfig(), rng),
		roi:    ground.DefaultROI(),
		rng:    rng,
	}
}

func (g *Generator) objectKind() lidarsim.ObjectKind {
	if g.HardObjects {
		return lidarsim.RandomObjectKindHard(g.rng)
	}
	return lidarsim.RandomObjectKind(g.rng)
}

// randomWalkwayPos picks a pedestrian position: anywhere along the ROI,
// biased to the center band of the walkway where people actually walk.
func (g *Generator) randomWalkwayPos() (x, y float64) {
	x = g.roi.XMin + 1 + g.rng.Float64()*(g.roi.XMax-g.roi.XMin-2)
	y = g.rng.Float64()*3.8 - 1.9 // center band ±1.9 m
	return x, y
}

// randomObjectPos picks an object position: campus objects (bushes,
// benches, signs, racks) line the walkway edges, with occasional ground
// clutter toward the center. This coordinate separation between the
// classes is the structure the paper's Figure 6 histograms show and what
// makes object-data noise "controlled" — statistically distinct from
// human returns.
func (g *Generator) randomObjectPos() (x, y float64) {
	x = g.roi.XMin + 1 + g.rng.Float64()*(g.roi.XMax-g.roi.XMin-2)
	side := 1.0
	if g.rng.Float64() < 0.5 {
		side = -1
	}
	if g.rng.Float64() < 0.75 {
		y = side * (1.3 + g.rng.Float64()*1.1) // edge band ±[1.3, 2.4] m
	} else {
		y = g.rng.Float64()*3.0 - 1.5 // occasional clutter near the center
	}
	return x, y
}

// SinglePerson generates n single-person samples: one pedestrian scanned
// alone, the cloud being the pedestrian's own returns after ingestion.
// Samples whose pedestrian is essentially invisible (fewer than
// MinVisiblePoints returns) are re-drawn, as the paper's dataset only
// contains annotated captures.
func (g *Generator) SinglePerson(n int) []Sample {
	out := make([]Sample, 0, n)
	for len(out) < n {
		x, y := g.randomWalkwayPos()
		scene := &lidarsim.Scene{}
		scene.AddHuman(lidarsim.NewHuman(lidarsim.RandomHumanParams(g.rng, x, y)))
		human, _, _ := lidarsim.SplitByKind(g.sensor.Scan(scene))
		cloud := ground.Ingest(human, g.roi)
		if len(cloud) < MinVisiblePoints {
			continue
		}
		out = append(out, Sample{Cloud: cloud, Human: true})
	}
	return out
}

// Objects generates n object-only samples: one random campus object
// scanned alone, the cloud being the object's returns after ingestion.
func (g *Generator) Objects(n int) []Sample {
	out := make([]Sample, 0, n)
	for len(out) < n {
		x, y := g.randomObjectPos()
		kind := g.objectKind()
		scene := &lidarsim.Scene{}
		scene.AddObject(lidarsim.NewObject(kind, g.rng, x, y))
		_, object, _ := lidarsim.SplitByKind(g.sensor.Scan(scene))
		cloud := ground.Ingest(object, g.roi)
		if len(cloud) < MinVisiblePoints {
			continue
		}
		out = append(out, Sample{Cloud: cloud, Human: false})
	}
	return out
}

// Classification builds a balanced single-person detection dataset of
// nPerClass humans and nPerClass objects, shuffled.
func (g *Generator) Classification(nPerClass int) []Sample {
	samples := append(g.SinglePerson(nPerClass), g.Objects(nPerClass)...)
	g.rng.Shuffle(len(samples), func(i, j int) {
		samples[i], samples[j] = samples[j], samples[i]
	})
	return samples
}

// CrowdFrames generates n full-scene frames each containing between
// minPeople and maxPeople pedestrians plus nObjects random objects. The
// frame cloud is every return (human, object, ground) before ingestion —
// the counting pipeline owns its own preprocessing — and Count is the
// number of pedestrians visible per MinVisiblePoints.
func (g *Generator) CrowdFrames(n, minPeople, maxPeople, nObjects int) []Frame {
	if maxPeople < minPeople {
		panic(fmt.Sprintf("dataset: maxPeople %d < minPeople %d", maxPeople, minPeople))
	}
	frames := make([]Frame, 0, n)
	var buf []lidarsim.Return
	for len(frames) < n {
		var f Frame
		f, buf = g.nextCrowdFrame(minPeople, maxPeople, nObjects, buf)
		frames = append(frames, f)
	}
	return frames
}

// nextCrowdFrame generates one crowd frame, scanning into buf (recycled
// across calls) and allocating only the retained frame cloud. It draws
// from the generator's RNG in exactly the order CrowdFrames historically
// did, so materialized and streamed datasets from the same seed are
// identical frame for frame.
func (g *Generator) nextCrowdFrame(minPeople, maxPeople, nObjects int, buf []lidarsim.Return) (Frame, []lidarsim.Return) {
	k := minPeople + g.rng.Intn(maxPeople-minPeople+1)
	scene := &lidarsim.Scene{}
	for i := 0; i < k; i++ {
		x, y := g.randomWalkwayPos()
		scene.AddHuman(lidarsim.NewHuman(lidarsim.RandomHumanParams(g.rng, x, y)))
	}
	for i := 0; i < nObjects; i++ {
		x, y := g.randomObjectPos()
		scene.AddObject(lidarsim.NewObject(g.objectKind(), g.rng, x, y))
	}
	returns := g.sensor.ScanInto(scene, buf)
	// Ground truth: pedestrians with a visible post-ingest pattern.
	perHuman := make(map[int]int)
	for _, r := range returns {
		if r.Kind == lidarsim.HitHuman && g.roi.Contains(r.Point) && r.Point.Z >= ground.DefaultZMin {
			perHuman[r.ID]++
		}
	}
	count := 0
	for _, c := range perHuman {
		if c >= MinVisiblePoints {
			count++
		}
	}
	return Frame{Cloud: lidarsim.CloudOf(returns), Count: count}, returns
}

// CrowdSource streams crowd frames one at a time — the FrameSource the
// pole node's streaming capture loop consumes. Unlike CrowdFrames it
// never materializes the frame set: each NextFrame call scans one fresh
// scene into a recycled returns buffer, so an arbitrarily long run holds
// one frame at a time. n bounds the stream (io.EOF after n frames);
// n < 0 streams forever. The source draws from the generator's RNG, so
// it must not be interleaved with other generation on the same
// Generator if reproducibility matters, and it is not safe for
// concurrent NextFrame calls.
type CrowdSource struct {
	g                              *Generator
	remaining                      int
	minPeople, maxPeople, nObjects int
	buf                            []lidarsim.Return
}

// CrowdSource returns a streaming generator of crowd frames with the
// same per-frame distribution as CrowdFrames(n, ...).
func (g *Generator) CrowdSource(n, minPeople, maxPeople, nObjects int) *CrowdSource {
	if maxPeople < minPeople {
		panic(fmt.Sprintf("dataset: maxPeople %d < minPeople %d", maxPeople, minPeople))
	}
	return &CrowdSource{
		g: g, remaining: n,
		minPeople: minPeople, maxPeople: maxPeople, nObjects: nObjects,
	}
}

// NextFrame yields the next frame, or io.EOF once the bounded stream is
// exhausted.
func (s *CrowdSource) NextFrame() (Frame, error) {
	if s.remaining == 0 {
		return Frame{}, io.EOF
	}
	if s.remaining > 0 {
		s.remaining--
	}
	var f Frame
	f, s.buf = s.g.nextCrowdFrame(s.minPeople, s.maxPeople, s.nObjects, s.buf)
	return f, nil
}

// MinSeparation is the minimum centroid distance between two synthetic
// pedestrians in high-density frames (meters): bodies cannot overlap, and
// neither LiDAR clustering nor the paper's human annotators can resolve
// coincident people.
const MinSeparation = 0.85

// HighDensityFrame composes a synthetic high-density frame following the
// paper's scalability methodology (Section VII-D): each of the
// numPedestrians single-person clouds keeps its captured walkway position
// and receives a uniform offset in [−5, 5] m on x and y, so the synthetic
// crowd spans 7 m (12−5) to 40 m (35+5) from the sensor exactly as the
// paper describes; object clouds are mixed in at one per two pedestrians.
// Placements closer than MinSeparation to an already-placed pedestrian
// are re-drawn (bounded attempts). The ground truth equals numPedestrians.
func HighDensityFrame(rng *rand.Rand, pool []Sample, objectPool []Sample, numPedestrians int) Frame {
	if len(pool) == 0 {
		panic("dataset: empty single-person pool")
	}
	var cloud geom.Cloud
	placed := make([]geom.Point3, 0, numPedestrians)
	for i := 0; i < numPedestrians; i++ {
		src := pool[rng.Intn(len(pool))].Cloud
		base := src.Centroid()
		var offX, offY float64
		for attempt := 0; attempt < 50; attempt++ {
			offX = rng.Float64()*10 - 5
			offY = rng.Float64()*10 - 5
			ok := true
			for _, q := range placed {
				dx := base.X + offX - q.X
				dy := base.Y + offY - q.Y
				if dx*dx+dy*dy < MinSeparation*MinSeparation {
					ok = false
					break
				}
			}
			if ok {
				break
			}
		}
		placed = append(placed, geom.P(base.X+offX, base.Y+offY, 0))
		cloud = geom.AppendTranslated(cloud, src, geom.P(offX, offY, 0))
	}
	if len(objectPool) > 0 {
		for i := 0; i < numPedestrians/2; i++ {
			src := objectPool[rng.Intn(len(objectPool))].Cloud
			base := src.Centroid()
			var offX, offY float64
			// Objects keep clear of the placed pedestrians too: a bush
			// leaning on a person would merge their returns into one
			// cluster no annotator could separate either.
			for attempt := 0; attempt < 50; attempt++ {
				offX = rng.Float64()*10 - 5
				offY = rng.Float64()*10 - 5
				ok := true
				for _, q := range placed {
					dx := base.X + offX - q.X
					dy := base.Y + offY - q.Y
					if dx*dx+dy*dy < MinSeparation*MinSeparation {
						ok = false
						break
					}
				}
				if ok {
					break
				}
			}
			placed = append(placed, geom.P(base.X+offX, base.Y+offY, 0))
			cloud = geom.AppendTranslated(cloud, src, geom.P(offX, offY, 0))
		}
	}
	return Frame{Cloud: cloud, Count: numPedestrians}
}

// Split holds a train/test partition of classification samples.
type Split struct {
	Train, Test []Sample
}

// TrainTestSplit shuffles samples with rng and splits them at trainFrac
// (the paper uses a random 80:20 split).
func TrainTestSplit(rng *rand.Rand, samples []Sample, trainFrac float64) Split {
	s := append([]Sample(nil), samples...)
	rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	cut := int(float64(len(s)) * trainFrac)
	return Split{Train: s[:cut], Test: s[cut:]}
}

// Subset returns the first max(1, frac·len) samples of a class-balanced
// reshuffle — used by the limited-training-data robustness experiment
// (Figure 8b, down to 0.1% of the training data).
func Subset(rng *rand.Rand, samples []Sample, frac float64) []Sample {
	if frac >= 1 {
		return samples
	}
	n := int(float64(len(samples)) * frac)
	if n < 2 {
		n = 2 // at least one sample; keep both classes reachable
	}
	// Take a balanced subset: alternate humans and objects while available.
	var humans, objects []Sample
	for _, s := range samples {
		if s.Human {
			humans = append(humans, s)
		} else {
			objects = append(objects, s)
		}
	}
	rng.Shuffle(len(humans), func(i, j int) { humans[i], humans[j] = humans[j], humans[i] })
	rng.Shuffle(len(objects), func(i, j int) { objects[i], objects[j] = objects[j], objects[i] })
	out := make([]Sample, 0, n)
	for i := 0; len(out) < n; i++ {
		if i < len(humans) {
			out = append(out, humans[i])
		}
		if len(out) < n && i < len(objects) {
			out = append(out, objects[i])
		}
		if i >= len(humans) && i >= len(objects) {
			break
		}
	}
	return out
}

// MaxPoints returns the largest cloud size across samples — the paper's
// N_max, from which the up-sampling target N′max is derived.
func MaxPoints(samples []Sample) int {
	maxN := 0
	for _, s := range samples {
		if len(s.Cloud) > maxN {
			maxN = len(s.Cloud)
		}
	}
	return maxN
}
