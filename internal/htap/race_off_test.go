//go:build !race

package htap

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
