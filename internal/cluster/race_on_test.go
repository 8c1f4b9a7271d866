//go:build race

package cluster

// raceEnabled reports whether the race detector is instrumenting this
// build; it drops pooled objects at random, so the allocation gate
// skips itself under -race.
const raceEnabled = true
