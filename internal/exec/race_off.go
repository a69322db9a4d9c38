//go:build !race

package exec

// poisonReleased is a no-op without the race detector (see race_on.go).
func poisonReleased[T any]([]T, T) {}
