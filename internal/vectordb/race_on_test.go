//go:build race

package vectordb

// raceEnabled reports whether the race detector is compiled in: it makes
// sync.Pool drop a quarter of what is put back, so a pooled scratch is
// re-allocated at random and allocation counts mean nothing.
const raceEnabled = true
