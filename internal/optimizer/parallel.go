package optimizer

import (
	"runtime"
)

// Degree-of-parallelism selection for morsel-driven execution. The choice
// is made from physical cardinality facts — the zone-mapped chunk count of
// the largest columnar scan in the plan — not from modeled-scale
// statistics: morsels are physical chunks, so the physical count is what
// bounds how far the scan can usefully be split.

// minChunksPerWorker is the smallest morsel share that pays for a worker:
// below it, goroutine startup and the gather barrier dominate the chunk
// work.
const minChunksPerWorker = 2

// maxPlannedDOP caps the planner's ask regardless of plan size, so one
// huge scan cannot monopolize the gateway's worker ledger.
const maxPlannedDOP = 8

// chooseDOP picks the degree of parallelism for a plan whose largest
// columnar scan spans the given number of base chunks. Row-store plans
// (chunks == 0) and small scans stay serial.
func chooseDOP(chunks int) int {
	dop := chunks / minChunksPerWorker
	if hw := runtime.GOMAXPROCS(0); dop > hw {
		dop = hw
	}
	if dop > maxPlannedDOP {
		dop = maxPlannedDOP
	}
	if dop < 1 {
		dop = 1
	}
	return dop
}
