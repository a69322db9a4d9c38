//go:build race

package htap

// raceEnabled reports whether the race detector is compiled in: it
// instruments every allocation path, so allocation gates skip under it.
const raceEnabled = true
