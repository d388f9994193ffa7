//go:build !race

package serve

// raceEnabled reports whether the binary runs under the race detector.
const raceEnabled = false
