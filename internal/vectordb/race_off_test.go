//go:build !race

package vectordb

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
