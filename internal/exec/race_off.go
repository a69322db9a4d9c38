//go:build !race

package exec

import "htapxplain/internal/value"

// poisonReleased is a no-op without the race detector (see race_on.go).
func poisonReleased([]value.Value) {}
