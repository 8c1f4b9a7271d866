//go:build race

package projection

// raceEnabled reports whether the race detector is instrumenting this
// test binary: it drops pooled scratch at random, so the allocation
// tests skip themselves under -race.
const raceEnabled = true
