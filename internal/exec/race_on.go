//go:build race

package exec

import "htapxplain/internal/value"

// released is what a released decode target holds under the race
// detector: a string no generated table contains.
var released = value.NewString("\x00released decode target")

// poisonReleased overwrites a decode target on its way back to the pool.
func poisonReleased(buf []value.Value) {
	for i := range buf {
		buf[i] = released
	}
}
