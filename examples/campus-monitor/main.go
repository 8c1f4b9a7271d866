// Campus-monitor: the Figure 1 scenario end to end. Three smart blue
// light poles each run the counting pipeline on the edge and stream count
// reports and compartment telemetry over TCP to the private campus
// backend, which aggregates per-pole statistics. Raw point clouds never
// leave the poles.
//
//	go run ./examples/campus-monitor
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"sync"

	"hawccc/internal/backend"
	"hawccc/internal/counting"
	"hawccc/internal/dataset"
	"hawccc/internal/models"
	"hawccc/internal/pole"
	"hawccc/internal/telemetry"
)

func main() {
	// Train one HAWC model shared by all poles (in production each pole
	// would load the same released weights).
	fmt.Println("training the shared HAWC model...")
	g := dataset.NewGenerator(7)
	train := g.Classification(250)
	clf := models.NewHAWC()
	if err := clf.Train(train, models.TrainConfig{Epochs: 10, Seed: 7}); err != nil {
		log.Fatal(err)
	}

	// Campus backend on loopback.
	srv, err := backend.Listen(backend.Config{
		Addr:          "127.0.0.1:0",
		CrowdingLimit: 5,
		OverheatLimit: 50,
		Logf:          func(f string, a ...any) { fmt.Fprintf(os.Stderr, f+"\n", a...) },
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Println("campus backend listening on", srv.Addr())

	// Summer telemetry, one reading per frame.
	readings := telemetry.Simulate(telemetry.SummerConfig())

	locations := []string{"Palm Walk", "University Dr", "Forest Mall"}
	var wg sync.WaitGroup
	for id := uint32(1); id <= 3; id++ {
		frames := g.CrowdFrames(6, 1, 6, 2)
		node, err := pole.Dial(pole.Config{
			PoleID:      id,
			Location:    locations[id-1],
			BackendAddr: srv.Addr(),
			Pipeline:    counting.New(clf),
			Source:      &pole.SliceSource{Frames: frames},
			Telemetry:   readings[500*int(id):],
		})
		if err != nil {
			log.Fatal(err)
		}
		wg.Add(1)
		go func(id uint32) {
			defer wg.Done()
			n, err := node.Run(context.Background())
			if err != nil {
				log.Printf("pole %d: %v", id, err)
			}
			fmt.Printf("pole %d processed %d frames, received %d alerts\n",
				id, n, node.AlertsReceived())
		}(id)
	}
	wg.Wait()

	fmt.Println("\ncampus snapshot:")
	for _, p := range srv.Snapshot() {
		fmt.Printf("  pole %d (%s): %d reports, last count %d, peak %d, total %d, last temp %.1f°C\n",
			p.PoleID, p.Location, p.Reports, p.LastCount, p.PeakCount, p.TotalCount, p.LastTemp)
	}
	fmt.Printf("current campus-wide count: %d\n", srv.CampusCount())
	fmt.Printf("alerts raised: %d\n", len(srv.Alerts()))
}
