//go:build race

package serve

// raceEnabled reports whether the binary runs under the race detector, whose
// runtime adds allocations of its own (as the standard library's
// internal/race.Enabled does for its allocation tests).
const raceEnabled = true
