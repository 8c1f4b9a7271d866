// Stream-counter: count people continuously with Counter.Stream — the
// scheduler that counts consecutive frames at once on a pool of workers
// and delivers the results in order — instead of a frame-at-a-time Count
// loop.
//
//	go run ./examples/stream-counter
//
// Ctrl-C stops the stream mid-run: in-flight frames are dropped, the
// result channel closes, and the summary still prints.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hawccc"
)

func main() {
	// 1. Train a counter exactly as in the quickstart.
	fmt.Println("training HAWC (this takes a minute on one core)...")
	train := hawccc.GenerateTrainingData(1, 300)
	opts := hawccc.DefaultTrainOptions()
	opts.Epochs = 12
	counter, err := hawccc.Train(train, opts)
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// 2. Feed frames into a channel as a sensor would produce them. The
	//    scheduler takes a frame only when a worker is free, so this loop
	//    blocks when counting falls behind and nothing accumulates.
	frames := hawccc.GenerateFrames(99, 40, 1, 6)
	in := make(chan hawccc.Frame)
	go func() {
		defer close(in)
		for _, f := range frames {
			select {
			case in <- f:
			case <-ctx.Done():
				return
			}
		}
	}()

	// 3. Consume ordered results as they complete. Consecutive frames are
	//    counted at once on different cores, so throughput beats a Count
	//    loop while each frame's counts stay bit-identical to Count's.
	fmt.Println("\nstreaming:")
	var n, people int
	start := time.Now()
	for r := range counter.Stream(ctx, in) {
		fmt.Printf("  frame %2d: %d people in %d clusters (truth %d) — e2e %.1f ms\n",
			r.Seq, r.Count, r.Clusters, frames[r.Seq].Count,
			float64(r.E2E.Microseconds())/1000)
		n++
		people += r.Count
	}
	elapsed := time.Since(start)

	if n > 0 {
		fmt.Printf("\n%d frames in %v (%.1f frames/s), %.1f people per frame on average\n",
			n, elapsed.Round(time.Millisecond),
			float64(n)/elapsed.Seconds(), float64(people)/float64(n))
	}
	if ctx.Err() != nil {
		fmt.Println("interrupted — stream drained and closed cleanly")
	}
}
