package exec

import (
	"hash/maphash"
	"math"
	"slices"

	"htapxplain/internal/value"
)

// Typed-hash kernel shared by HashJoin and HashAggregate (row, column-fold
// and parallel-merge paths). A key is a tuple of values; two keys are the
// same key when every column has the same kind and the same payload:
//
//   - NULL equals NULL (NULL groups with NULL, and a NULL join key matches a
//     NULL join key — the engine's historical hash semantics, which SQL
//     predicates above the join refine);
//   - ints and bools compare by I, and an int never equals a float (1 ≠ 1.0)
//     or a bool;
//   - floats compare by bit pattern (I holds it) with every NaN collapsed
//     to one value, so -0.0 ≠ +0.0 and NaN = NaN;
//   - strings compare by content.
//
// This is exactly the equality of the value.Row.Key rendering for rows
// whose strings do not contain that rendering's own separators — and,
// being per column, it does not alias ("a\x1f\x00sb","c") with
// ("a","b\x1f\x00sc") the way the concatenated string did. Correctness
// never rests on the hash: every probe confirms a candidate with keyEqual.

// hashSeed keys string hashing for this process.
var hashSeed = maphash.MakeSeed()

// keyHashMask is ANDed into every key hash. It is all ones outside tests;
// the forced-collision test clears it so every key lands in one chain.
var keyHashMask = ^uint64(0)

const (
	hashInit = 0x9e3779b97f4a7c15
	hashMul  = 0xff51afd7ed558ccd
)

// canonNaN is the one bit pattern every NaN hashes and compares as.
var canonNaN = math.Float64bits(math.NaN())

// hashValue folds one key column into the running hash h.
func hashValue(h uint64, v value.Value) uint64 {
	var p uint64
	switch v.K {
	case value.KindInt, value.KindBool:
		p = uint64(v.I)
	case value.KindFloat:
		if f := v.Float(); f != f {
			p = canonNaN
		} else {
			p = uint64(v.I)
		}
	case value.KindString:
		p = maphash.String(hashSeed, v.S)
	}
	h = (h ^ p ^ uint64(v.K)<<56) * hashMul
	return h ^ h>>32
}

// hashInt is the hash of the one-column key holding int k — what
// hashValue(hashInit, value.NewInt(k)) & keyHashMask computes, without
// building the value.
func hashInt(k int64) uint64 {
	h := (hashInit ^ uint64(k) ^ uint64(value.KindInt)<<56) * hashMul
	return (h ^ h>>32) & keyHashMask
}

// keyEqual reports whether a and b are the same key column value.
func keyEqual(a, b value.Value) bool {
	if a.K != b.K {
		return false
	}
	switch a.K {
	case value.KindInt, value.KindBool:
		return a.I == b.I
	case value.KindFloat:
		return a.I == b.I || (a.Float() != a.Float() && b.Float() != b.Float())
	case value.KindString:
		return a.S == b.S
	default:
		return true
	}
}

// hashRow hashes every column of r (an evaluated group-key row).
func hashRow(r value.Row) uint64 {
	h := uint64(hashInit)
	for _, v := range r {
		h = hashValue(h, v)
	}
	return h & keyHashMask
}

// hashBatchCols hashes the key columns cols of the batch row at physical
// position pos.
func hashBatchCols(b *Batch, pos int, cols []int) uint64 {
	h := uint64(hashInit)
	for _, c := range cols {
		h = hashValue(h, b.at(c, pos))
	}
	return h & keyHashMask
}

// rowKeyEqual reports whether two equal-length key rows are the same key.
func rowKeyEqual(a, b value.Row) bool {
	for i, v := range a {
		if !keyEqual(v, b[i]) {
			return false
		}
	}
	return true
}

// hashIndex is a chained hash index over entries 0..n-1 of an array its
// owner keeps (build rows, aggregation states): hashes[i] is entry i's key
// hash, buckets[h&mask] the first entry of h's chain and next[i] entry i's
// successor, both stored +1 so the zero value means "none". Three flat
// arrays, no per-entry allocation — two when the owner's keys are bare
// ints (buildInts), which confirm a candidate as cheaply as a stored hash
// would, or are dense enough to be addressed directly: then direct[k-lo]
// heads key k's chain in place of a bucket, and every entry of a chain
// holds that one key. A hash join's index takes its arrays from the
// recycler and gives them back (release); an aggregate's grows its own.
type hashIndex struct {
	hashes  []uint64
	next    []int32
	buckets []int32
	mask    uint64
	direct  []int32
	lo      int64
}

// directFloor is the key range buildInts addresses directly however few
// the keys are: 256 KiB of chain heads, a recycled array cleared per build,
// so a filtered dimension's build over a key range this wide probes by
// offset too.
const directFloor = 1 << 16

// bucketsFor returns the power-of-two bucket count for n entries (load
// factor at most 1).
func bucketsFor(n int) int {
	nb := 16
	for nb < n {
		nb <<= 1
	}
	return nb
}

// build indexes entries whose hashes are given, linking each chain in
// ascending entry order (entries are pushed in reverse), so a chain walk
// visits equal keys in the order the owner stored them.
func (x *hashIndex) build(hashes []uint64) {
	x.hashes = hashes
	x.next = linkArrays.take(len(hashes))
	x.link(linkArrays.takeZeroed(bucketsFor(len(hashes))))
}

// buildInts indexes one-column int keys, chains in ascending entry order
// like build, storing no hash per entry. Keys spanning at most
// max(2n, directFloor) values get a direct index (buildDirect); any others
// are chained under hashInt (buildChained). The span is taken in uint64,
// so keys at both ends of the int64 range count as the wide range they
// are.
func (x *hashIndex) buildInts(keys []int64) {
	if len(keys) > 0 {
		lo, hi := slices.Min(keys), slices.Max(keys)
		if span := uint64(hi) - uint64(lo); span < uint64(max(2*len(keys), directFloor)) {
			x.buildDirect(keys, lo, span)
			return
		}
	}
	x.buildChained(keys)
}

// buildDirect indexes keys, every one within lo..lo+span, by offset: a
// probe of key k walks direct[k-lo], with no hash and no key comparison.
func (x *hashIndex) buildDirect(keys []int64, lo int64, span uint64) {
	*x = hashIndex{next: linkArrays.take(len(keys)), direct: linkArrays.takeZeroed(int(span) + 1), lo: lo}
	for i := len(keys) - 1; i >= 0; i-- {
		o := uint64(keys[i]) - uint64(lo)
		x.next[i] = x.direct[o]
		x.direct[o] = int32(i + 1)
	}
}

// buildChained indexes keys under hashInt; the owner confirms a candidate
// by comparing the key itself.
func (x *hashIndex) buildChained(keys []int64) {
	nb := bucketsFor(len(keys))
	*x = hashIndex{next: linkArrays.take(len(keys)), buckets: linkArrays.takeZeroed(nb), mask: uint64(nb - 1)}
	for i := len(keys) - 1; i >= 0; i-- {
		b := hashInt(keys[i]) & x.mask
		x.next[i] = x.buckets[b]
		x.buckets[b] = int32(i + 1)
	}
}

// relink sizes the bucket array for the current entries and rebuilds every
// chain from the stored hashes.
func (x *hashIndex) relink() {
	x.link(make([]int32, bucketsFor(len(x.hashes))))
}

// link rebuilds every chain from the stored hashes into buckets, zeroed and
// a power of two long.
func (x *hashIndex) link(buckets []int32) {
	x.buckets, x.mask = buckets, uint64(len(buckets)-1)
	for i := len(x.hashes) - 1; i >= 0; i-- {
		b := x.hashes[i] & x.mask
		x.next[i] = x.buckets[b]
		x.buckets[b] = int32(i + 1)
	}
}

// release gives a join index's arrays back to the recycler; the hashes are
// its owner's.
func (x *hashIndex) release() {
	linkArrays.give(x.next)
	linkArrays.give(x.buckets)
	linkArrays.give(x.direct)
	*x = hashIndex{}
}

// first returns the head of h's chain, +1 (0 = empty chain). Walk with
//
//	for e := x.first(h); e != 0; e = x.next[e-1] { i := e-1; ... }
//
// and confirm each candidate by x.hashes[i] == h and a key comparison.
func (x *hashIndex) first(h uint64) int32 {
	if x.buckets == nil {
		return 0
	}
	return x.buckets[h&x.mask]
}

// add appends a new entry with hash h, returning its position. Appended
// entries go to the head of their chain; the aggregate tables that use add
// hold one entry per key, so chain order is immaterial there.
func (x *hashIndex) add(h uint64) int {
	i := len(x.hashes)
	x.hashes = append(x.hashes, h)
	x.next = append(x.next, 0)
	if len(x.hashes) > len(x.buckets) {
		x.relink()
		return i
	}
	b := h & x.mask
	x.next[i] = x.buckets[b]
	x.buckets[b] = int32(i + 1)
	return i
}
