//go:build race

package exec

// poisonReleased overwrites an array on its way back to the recycler with
// its list's poison.
func poisonReleased[T any](buf []T, poison T) {
	for i := range buf {
		buf[i] = poison
	}
}
