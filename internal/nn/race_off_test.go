//go:build !race

package nn

// raceEnabled reports whether the race detector is instrumenting this
// test binary: it drops pooled scratch at random, so the allocation gate
// skips itself under -race.
const raceEnabled = false
