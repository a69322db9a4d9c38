//go:build race

package optimizer

// raceEnabled reports whether the race detector instruments this build;
// allocation counts are meaningless under it.
const raceEnabled = true
