package exec

import (
	"math"
	"math/bits"
	"sync"
	"unsafe"

	"htapxplain/internal/value"
)

// The recycler keeps the process's large transient arrays for reuse: the
// decode targets of encoded chunks, an aggregate fold's per-row group
// ordinals, and a hash join's integer arrays (its int keys or key hashes,
// its chain links, chain heads and direct index) and its key-filtered
// builds' selection vectors. A holder takes one when it first needs it and
// gives it back when it is done — a scan at Close, an aggregate when its
// fold ends, a hash join at Close — so an idle pooled operator
// tree holds none, and a fresh tree (a scatter fragment, a move scan's
// clone, a forked worker) reuses a released array instead of allocating
// its own. Taking and giving back allocate nothing.
//
// Each element type has its own list, and each list keeps one LIFO stack per
// power-of-two size class: an array of capacity c is filed under the largest
// 2^k ≤ c, and a take of n looks in the smallest class 2^k ≥ n, allocating
// 2^k when that class is empty, so what it returns always has room for n.
// A taker gets the most recently released (cache-warm) array of its class.
// All lists share one lock and one budget of idle bytes; an array given back
// beyond it is left to the collector. They are not sync.Pools: taking is the
// same in every build — under the race detector a sync.Pool drops a quarter
// of what is put back, which the allocation gates over scans and joins
// would count.
//
// Under the race detector a given-back array is first overwritten with its
// list's poison (see poisonReleased), so a reader that kept it past its
// holder's Close fails — a stale value no table holds, a chain link or head
// past every array's end — instead of passing on stale data.
var (
	decodeTargets = freeList[value.Value]{poison: released}
	keyArrays     = freeList[int64]{poison: math.MinInt64}
	hashArrays    = freeList[uint64]{poison: math.MaxUint64}
	linkArrays    = freeList[int32]{poison: math.MaxInt32}
)

// released is what a released decode target holds under the race detector:
// a string no generated table contains.
var released = value.NewString("\x00released decode target")

// maxIdleBytes bounds the bytes the recycler keeps idle across every list.
const maxIdleBytes = 16 << 20

// recycler is the state every list shares: its lock and the idle bytes it
// holds.
var recycler struct {
	mu   sync.Mutex
	idle int
}

// freeList is one element type's size-class stacks.
type freeList[T any] struct {
	poison T
	free   [64][][]T // by size class: arrays of capacity 2^k up to 2^(k+1)-1
}

// take returns an array of length n (n ≥ 0) and capacity at least n, its
// contents unspecified.
func (l *freeList[T]) take(n int) []T {
	k := bits.Len(uint(max(n, 1) - 1)) // the smallest 2^k ≥ n
	recycler.mu.Lock()
	if s := l.free[k]; len(s) > 0 {
		buf := s[len(s)-1]
		s[len(s)-1] = nil
		l.free[k] = s[:len(s)-1]
		recycler.idle -= l.bytes(buf)
		recycler.mu.Unlock()
		return buf[:n]
	}
	recycler.mu.Unlock()
	return make([]T, n, 1<<k)
}

// takeZeroed returns an array of n zero values.
func (l *freeList[T]) takeZeroed(n int) []T {
	buf := l.take(n)
	clear(buf)
	return buf
}

// give hands buf back for reuse; its holder must no longer read it, nor
// anything sharing its array. An array with no capacity, or one past the
// idle budget, is dropped.
func (l *freeList[T]) give(buf []T) {
	if cap(buf) == 0 {
		return
	}
	buf = buf[:cap(buf)]
	poisonReleased(buf, l.poison)
	k := bits.Len(uint(cap(buf))) - 1 // the largest 2^k ≤ cap
	recycler.mu.Lock()
	if size := l.bytes(buf); recycler.idle+size <= maxIdleBytes {
		l.free[k] = append(l.free[k], buf)
		recycler.idle += size
	}
	recycler.mu.Unlock()
}

// grow returns buf with room for n more elements: buf itself when it has
// it, else a copy in an array of at least twice its capacity from the list,
// buf going back.
func (l *freeList[T]) grow(buf []T, n int) []T {
	if len(buf)+n <= cap(buf) {
		return buf
	}
	nb := l.take(max(2*cap(buf), len(buf)+n))[:len(buf)]
	copy(nb, buf)
	l.give(buf)
	return nb
}

func (l *freeList[T]) bytes(buf []T) int {
	return cap(buf) * int(unsafe.Sizeof(l.poison))
}

// decodeTarget is one holder's borrowed decode buffer, nil until first
// need. It keeps the array the list handed out, so neither borrowing nor
// giving back allocates.
type decodeTarget struct {
	buf *[BatchSize]value.Value
}

// get returns the target's first n values, borrowing it on first need.
func (d *decodeTarget) get(n int) []value.Value {
	if d.buf == nil {
		d.buf = (*[BatchSize]value.Value)(decodeTargets.take(BatchSize))
	}
	return d.buf[:n]
}

// release gives the target back; the holder's batches must no longer be
// read.
func (d *decodeTarget) release() {
	if d.buf == nil {
		return
	}
	decodeTargets.give(d.buf[:])
	d.buf = nil
}
