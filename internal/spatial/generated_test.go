package spatial

import (
	"math/rand"

	"hawccc/internal/dataset"
	"hawccc/internal/geom"
	"hawccc/internal/ground"
	"hawccc/internal/upsample"
)

// generatedViewports returns count classifier inputs of n points built
// the way HAWC builds them: dataset-generated clusters padded from a
// pool of the objects' captures, centered on the cluster's centroid with
// x and y clamped to ±2 m and z rebased on the ground (what
// projection.Viewport does), in height-major order. Most of their points
// sit on the clamped border sheets and corner lines.
func generatedViewports(count, n int) []geom.Cloud {
	samples := dataset.NewGenerator(11).Classification((count + 1) / 2)
	var objects []geom.Cloud
	for _, s := range samples {
		if !s.Human {
			objects = append(objects, s.Cloud)
		}
	}
	pool := upsample.NewPool(objects)
	rng := rand.New(rand.NewSource(11))
	clamp := func(v float64) float64 { return max(-2, min(2, v)) }
	clouds := make([]geom.Cloud, count)
	for i, s := range samples[:count] {
		c := upsample.FromPool(nil, rng, s.Cloud, pool, n)
		center := s.Cloud.Centroid()
		for j := range c {
			c[j] = geom.Point3{X: clamp(c[j].X - center.X), Y: clamp(c[j].Y - center.Y), Z: c[j].Z + 3}
		}
		clouds[i] = heightMajor(c)
	}
	return clouds
}

// generatedScene returns one ground-ingested frame with people
// pedestrians and objects objects, built like the ledger's pole scenes:
// the cloud the adaptive-ε curve runs KNNAll over.
func generatedScene(people, objects int) geom.Cloud {
	f := dataset.NewGenerator(11).CrowdFrames(1, people, people, objects)[0]
	return ground.Ingest(f.Cloud, ground.DefaultROI())
}
