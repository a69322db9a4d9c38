// Lightweight per-chunk column encodings. Every base chunk carries an
// EncodedChunk: a raw value vector, a sorted dictionary with fixed-width
// codes, a frame-of-reference bit-packed integer block, or run-length
// runs. The encoding is chosen per chunk, per column from the chunk's own
// statistics (strictly smallest estimated footprint wins; raw is the
// fallback), so a column freely mixes encodings across chunks.
//
// Encoded chunks obey the same immutability contract as raw chunks: once
// published they are never mutated, and decoding always writes into
// caller-owned buffers — "alias or decode, never mutate". Zone maps are
// built from the raw values before encoding, so pruning is identical on
// every encoding.
//
// Value identity throughout this file is bit-exact (eqValue, not
// value.Compare): ±0.0 are distinct floats and NaN equals itself by bit
// pattern, so round-trips are canonical. Dictionaries additionally demand
// a single value kind with no NULL/NaN/-0.0, which makes value.Compare a
// strict total order over the dictionary — that is what lets range
// predicates binary-search code bounds.
package colstore

import (
	"math"
	"math/bits"
	"slices"
	"sort"
	"unsafe"

	"htapxplain/internal/value"
)

// Encoding identifies a chunk's physical representation.
type Encoding uint8

const (
	// EncRaw is the identity encoding: the chunk is a plain value vector.
	EncRaw Encoding = iota
	// EncDict is dictionary encoding: a sorted, duplicate-free dictionary
	// of distinct values plus one fixed-width code per row.
	EncDict
	// EncFoR is frame-of-reference encoding for all-integer chunks: each
	// value is stored as a bit-packed unsigned delta from the chunk
	// minimum.
	EncFoR
	// EncRLE is run-length encoding: consecutive bit-identical values
	// collapse into (value, run end) pairs.
	EncRLE

	numEncodings = 4
)

// NumEncodings is the number of distinct chunk encodings (including raw),
// for per-encoding accounting arrays.
const NumEncodings = numEncodings

func (e Encoding) String() string {
	switch e {
	case EncRaw:
		return "raw"
	case EncDict:
		return "dict"
	case EncFoR:
		return "for"
	case EncRLE:
		return "rle"
	default:
		return "unknown"
	}
}

// EncodingPolicy controls how chunk encodings are chosen. The zero value
// (PolicyAuto) picks the smallest eligible representation per chunk; the
// forced policies exist for differential testing and benchmarking and
// fall back to raw where the forced encoding is ineligible.
type EncodingPolicy uint8

const (
	// PolicyAuto picks the strictly smallest eligible encoding per chunk.
	PolicyAuto EncodingPolicy = iota
	// PolicyRaw disables encoding: every chunk stays a raw vector.
	PolicyRaw
	// PolicyDict forces dictionary encoding where eligible.
	PolicyDict
	// PolicyFoR forces frame-of-reference encoding where eligible.
	PolicyFoR
	// PolicyRLE forces run-length encoding.
	PolicyRLE
)

func (p EncodingPolicy) String() string {
	switch p {
	case PolicyAuto:
		return "auto"
	case PolicyRaw:
		return "raw"
	case PolicyDict:
		return "dict"
	case PolicyFoR:
		return "for"
	case PolicyRLE:
		return "rle"
	default:
		return "unknown"
	}
}

// AllPolicies lists every encoding policy, for differential tests and
// benchmarks that sweep the encoding space.
var AllPolicies = []EncodingPolicy{PolicyAuto, PolicyRaw, PolicyDict, PolicyFoR, PolicyRLE}

// valueHeaderBytes is the in-memory footprint of one value.Value (tag,
// payload word and string header), excluding string payloads.
const valueHeaderBytes = int64(unsafe.Sizeof(value.Value{}))

// maxDictSize bounds the dictionary: chunks with more distinct values
// rarely compress through a dictionary, and a small bound keeps the
// per-chunk kernel scratch (code counts, per-code group states) tiny.
const maxDictSize = 256

// EncodedChunk is one immutable encoded column chunk. Exactly the fields
// of the active Enc are populated; the rest stay nil/zero.
type EncodedChunk struct {
	Enc Encoding
	N   int // rows in the chunk

	// EncRaw: the plain value vector (aliases the column's vals slice
	// when the whole column is raw, a private copy otherwise).
	Raw []value.Value

	// EncDict: Dict is sorted ascending by value.Compare, duplicate-free,
	// single-kind, NULL/NaN/-0.0-free; Codes[i] indexes Dict.
	Dict  []value.Value
	Codes []uint16

	// EncFoR: row i decodes to Base + int64(packed delta). Width is the
	// delta bit width (0 = constant chunk). Deltas are computed in uint64
	// so chunks spanning more than half the int64 range still round-trip.
	Base   int64
	Width  uint8
	Packed []uint64

	// EncRLE: run j covers rows [RunEnds[j-1], RunEnds[j]) with value
	// RunVals[j]; RunEnds is strictly increasing and ends at N.
	RunVals []value.Value
	RunEnds []int32

	// RawBytes is the chunk's footprint as a raw vector; EncBytes is its
	// footprint in the chosen representation (== RawBytes for EncRaw).
	RawBytes int64
	EncBytes int64
}

// eqValue reports bit-exact value identity: kinds equal and payloads
// identical, with floats compared by bit pattern (so NaN == NaN and
// 0.0 != -0.0). This is the run/dictionary identity — stricter than SQL
// equality and independent of value.Compare's numeric coercions.
func eqValue(a, b value.Value) bool {
	return a.K == b.K && a.I == b.I && a.S == b.S
}

// valBytes is the modeled footprint of one value.
func valBytes(v value.Value) int64 {
	return valueHeaderBytes + int64(len(v.S))
}

// chunkStats is one analysis pass over a chunk's values.
type chunkStats struct {
	rawBytes int64
	runs     int
	runBytes int64 // Σ valBytes over run heads
	allInt   bool
	dictOK   bool // single kind, no NULL/NaN/-0.0
	minI     int64
	maxI     int64
}

func analyzeChunk(vals []value.Value) chunkStats {
	st := chunkStats{allInt: true, dictOK: true}
	for i, v := range vals {
		st.rawBytes += valBytes(v)
		if i == 0 || !eqValue(v, vals[i-1]) {
			st.runs++
			st.runBytes += valBytes(v)
		}
		if v.K != vals[0].K {
			st.dictOK = false
		}
		switch v.K {
		case value.KindInt:
			if i == 0 || v.I < st.minI {
				st.minI = v.I
			}
			if i == 0 || v.I > st.maxI {
				st.maxI = v.I
			}
		case value.KindFloat:
			st.allInt = false
			if f := v.Float(); math.IsNaN(f) || (f == 0 && math.Signbit(f)) {
				st.dictOK = false
			}
		default:
			st.allInt = false
			if v.K == value.KindNull {
				st.dictOK = false
			}
		}
	}
	if len(vals) == 0 {
		st.allInt = false
		st.dictOK = false
	}
	return st
}

// forWidth returns the delta bit width of an all-int chunk with the given
// min/max. The delta is computed in uint64, so any int64 span fits.
func forWidth(minI, maxI int64) uint8 {
	return uint8(bits.Len64(uint64(maxI) - uint64(minI)))
}

func forBytes(n int, width uint8) int64 {
	words := (n*int(width) + 63) / 64
	return 16 + int64(words)*8 // base + width header, then packed words
}

// buildDict collects the chunk's distinct values if there are at most
// maxDictSize of them, sorted ascending by value.Compare. Callers have
// established dictOK (single kind, no NULL/NaN/-0.0), which makes Compare
// a strict total order here. Returns nil when the chunk exceeds the bound.
func buildDict(vals []value.Value) []value.Value {
	seen := make(map[value.Value]struct{}, maxDictSize+1)
	dict := make([]value.Value, 0, maxDictSize)
	for _, v := range vals {
		if _, ok := seen[v]; ok {
			continue
		}
		if len(dict) == maxDictSize {
			return nil
		}
		seen[v] = struct{}{}
		dict = append(dict, v)
	}
	sort.Slice(dict, func(i, j int) bool { return dict[i].Compare(dict[j]) < 0 })
	return dict
}

func dictBytes(dict []value.Value, n int) int64 {
	var b int64
	for _, v := range dict {
		b += valBytes(v)
	}
	return b + 2*int64(n)
}

// encodeChunk builds the chunk representation the policy selects for the
// given values. The returned chunk's Raw field aliases vals when raw wins;
// callers that need the big backing array freed copy it out themselves.
func encodeChunk(vals []value.Value, policy EncodingPolicy) *EncodedChunk {
	n := len(vals)
	st := analyzeChunk(vals)
	ch := &EncodedChunk{Enc: EncRaw, N: n, Raw: vals, RawBytes: st.rawBytes, EncBytes: st.rawBytes}
	if policy == PolicyRaw || n == 0 {
		return ch
	}

	var dict []value.Value
	dictB := int64(math.MaxInt64)
	if st.dictOK && (policy == PolicyAuto || policy == PolicyDict) {
		if dict = buildDict(vals); dict != nil {
			dictB = dictBytes(dict, n)
		}
	}
	forB := int64(math.MaxInt64)
	var width uint8
	if st.allInt && (policy == PolicyAuto || policy == PolicyFoR) {
		width = forWidth(st.minI, st.maxI)
		forB = forBytes(n, width)
	}
	rleB := st.runBytes + 4*int64(st.runs)

	switch policy {
	case PolicyDict:
		if dict == nil {
			return ch
		}
		return encodeDict(ch, vals, dict, dictB)
	case PolicyFoR:
		if !st.allInt {
			return ch
		}
		return encodeFoR(ch, vals, st.minI, width, forB)
	case PolicyRLE:
		return encodeRLE(ch, vals, st.runs, rleB)
	}
	// PolicyAuto: strictly smallest wins, raw on ties.
	best := st.rawBytes
	enc := EncRaw
	for _, c := range []struct {
		e Encoding
		b int64
	}{{EncDict, dictB}, {EncFoR, forB}, {EncRLE, rleB}} {
		if c.b < best {
			best, enc = c.b, c.e
		}
	}
	switch enc {
	case EncDict:
		return encodeDict(ch, vals, dict, dictB)
	case EncFoR:
		return encodeFoR(ch, vals, st.minI, width, forB)
	case EncRLE:
		return encodeRLE(ch, vals, st.runs, rleB)
	}
	return ch
}

func encodeDict(ch *EncodedChunk, vals, dict []value.Value, encB int64) *EncodedChunk {
	codeOf := make(map[value.Value]uint16, len(dict))
	for i, v := range dict {
		codeOf[v] = uint16(i)
	}
	codes := make([]uint16, len(vals))
	for i, v := range vals {
		codes[i] = codeOf[v]
	}
	ch.Enc, ch.Raw = EncDict, nil
	ch.Dict, ch.Codes = dict, codes
	ch.EncBytes = encB
	return ch
}

func encodeFoR(ch *EncodedChunk, vals []value.Value, base int64, width uint8, encB int64) *EncodedChunk {
	n := len(vals)
	packed := make([]uint64, (n*int(width)+63)/64)
	if width > 0 {
		for i, v := range vals {
			d := uint64(v.I) - uint64(base)
			bit := i * int(width)
			word, off := bit>>6, uint(bit&63)
			packed[word] |= d << off
			if off+uint(width) > 64 {
				packed[word+1] |= d >> (64 - off)
			}
		}
	}
	ch.Enc, ch.Raw = EncFoR, nil
	ch.Base, ch.Width, ch.Packed = base, width, packed
	ch.EncBytes = encB
	return ch
}

func encodeRLE(ch *EncodedChunk, vals []value.Value, runs int, encB int64) *EncodedChunk {
	runVals := make([]value.Value, 0, runs)
	runEnds := make([]int32, 0, runs)
	for i, v := range vals {
		if i == 0 || !eqValue(v, vals[i-1]) {
			runVals = append(runVals, v)
			runEnds = append(runEnds, int32(i)) // patched to end below
		}
	}
	for j := 1; j < len(runEnds); j++ {
		runEnds[j-1] = runEnds[j]
	}
	if len(runEnds) > 0 {
		runEnds[len(runEnds)-1] = int32(len(vals))
	}
	ch.Enc, ch.Raw = EncRLE, nil
	ch.RunVals, ch.RunEnds = runVals, runEnds
	ch.EncBytes = encB
	return ch
}

// forBlock is how many rows the row-order FoR kernels unpack at a time.
// Block k's deltas start at word k*Width, bit 0 — 64 deltas of w bits are
// exactly w words — so a block is unpacked from its own words alone.
const forBlock = 64

// unpackFoR fills dst with the first len(dst) deltas packed at width bits
// each in words, low bits first — the row-order kernels' sequential bit
// cursor: one word load per 64 packed bits, no per-row multiply, and a
// straddle only where a delta crosses a word. Width 0 yields zeros and
// reads nothing.
func unpackFoR(dst []uint64, words []uint64, width uint8) {
	w := uint(width)
	mask := ^uint64(0) >> (64 - w) // 0 for width 0
	var cur uint64                 // unread bits of the current word, low-aligned
	avail := uint(0)               // how many bits of cur are unread
	next := 0                      // the next word to load
	for i := range dst {
		if avail >= w {
			dst[i] = cur & mask
			cur >>= w
			avail -= w
			continue
		}
		nw := words[next]
		next++
		dst[i] = (cur | nw<<avail) & mask
		cur = nw >> (w - avail)
		avail = 64 - (w - avail)
	}
}

// forBlockAt unpacks the block of rows starting at lo (a multiple of
// forBlock) into buf and returns its deltas.
func (c *EncodedChunk) forBlockAt(buf *[forBlock]uint64, lo int) []uint64 {
	d := buf[:min(forBlock, c.N-lo)]
	unpackFoR(d, c.Packed[lo/forBlock*int(c.Width):], c.Width)
	return d
}

// setInt stores an integer into a decode target without writing its
// string header unless it holds one: an int column's pooled buffer then
// takes no pointer write, and no write barrier while the GC runs.
func setInt(v *value.Value, i int64) {
	v.K, v.I = value.KindInt, i
	if v.S != "" {
		v.S = ""
	}
}

// forAt unpacks the i-th delta of a FoR chunk — the random-access reader
// behind ValueAt and IntAt; the row-order kernels use unpackFoR.
func (c *EncodedChunk) forAt(i int) int64 {
	w := uint(c.Width)
	if w == 0 {
		return c.Base
	}
	bit := i * int(w)
	word, off := bit>>6, uint(bit&63)
	x := c.Packed[word] >> off
	if off+w > 64 {
		x |= c.Packed[word+1] << (64 - off)
	}
	if w < 64 {
		x &= (1 << w) - 1
	}
	return c.Base + int64(x)
}

// IntAt unpacks the integer at row i of a FoR chunk without building a
// Value — the accessor integer kernels iterate with.
func (c *EncodedChunk) IntAt(i int) int64 { return c.forAt(i) }

// rleRunAt returns the index of the run containing row i.
func (c *EncodedChunk) rleRunAt(i int) int {
	return sort.Search(len(c.RunEnds), func(j int) bool { return c.RunEnds[j] > int32(i) })
}

// ValueAt decodes the single value at row i of the chunk.
func (c *EncodedChunk) ValueAt(i int) value.Value {
	switch c.Enc {
	case EncRaw:
		return c.Raw[i]
	case EncDict:
		return c.Dict[c.Codes[i]]
	case EncFoR:
		return value.NewInt(c.forAt(i))
	case EncRLE:
		return c.RunVals[c.rleRunAt(i)]
	}
	panic("colstore: unknown chunk encoding")
}

// Decode materializes the whole chunk into dst (grown as needed) and
// returns dst[:N]. The result never aliases storage for encoded chunks;
// for raw chunks it aliases the stored vector (callers own dst, so a raw
// alias is safe to hand out — raw vectors are immutable).
func (c *EncodedChunk) Decode(dst []value.Value) []value.Value {
	if c.Enc == EncRaw {
		return c.Raw
	}
	if cap(dst) < c.N {
		dst = make([]value.Value, c.N)
	}
	dst = dst[:c.N]
	switch c.Enc {
	case EncDict:
		for i, code := range c.Codes {
			dst[i] = c.Dict[code]
		}
	case EncFoR:
		var buf [forBlock]uint64
		for lo := 0; lo < c.N; lo += forBlock {
			for j, d := range c.forBlockAt(&buf, lo) {
				setInt(&dst[lo+j], c.Base+int64(d))
			}
		}
	case EncRLE:
		pos := 0
		for j, v := range c.RunVals {
			end := int(c.RunEnds[j])
			for ; pos < end; pos++ {
				dst[pos] = v
			}
		}
	}
	return dst
}

// DecodeSel decodes only the rows listed in sel (ascending chunk-local
// positions) into their positions of dst, which must be at least N long.
// Unselected positions of dst are left untouched.
func (c *EncodedChunk) DecodeSel(dst []value.Value, sel []int32) {
	switch c.Enc {
	case EncRaw:
		for _, i := range sel {
			dst[i] = c.Raw[i]
		}
	case EncDict:
		for _, i := range sel {
			dst[i] = c.Dict[c.Codes[i]]
		}
	case EncFoR:
		// unpack only the blocks a selected row falls in
		var buf [forBlock]uint64
		var d []uint64
		lo := -1
		for _, i := range sel {
			if blk := int(i) &^ (forBlock - 1); blk != lo {
				lo = blk
				d = c.forBlockAt(&buf, lo)
			}
			setInt(&dst[i], c.Base+int64(d[int(i)-lo]))
		}
	case EncRLE:
		run := 0
		for _, i := range sel {
			for c.RunEnds[run] <= i {
				run++
			}
			dst[i] = c.RunVals[run]
		}
	}
}

// matchRange reports whether v satisfies the range predicate: NULL never
// matches; bounds compare via value.Compare (exactly the semantics of the
// compiled comparison evaluators), strict bounds exclude equality.
func matchRange(v value.Value, lo, hi *value.Value, loStrict, hiStrict bool) bool {
	if v.IsNull() {
		return false
	}
	if lo != nil {
		c := v.Compare(*lo)
		if c < 0 || (c == 0 && loStrict) {
			return false
		}
	}
	if hi != nil {
		c := v.Compare(*hi)
		if c > 0 || (c == 0 && hiStrict) {
			return false
		}
	}
	return true
}

// RangeSel evaluates the range predicate [lo, hi] (nil bounds open,
// strict flags excluding equality, NULLs never matching — bit-compatible
// with the compiled comparison evaluators) over the chunk in its encoded
// domain, appending matching chunk-local positions to sel. The second
// return is true when every row matched — callers can then keep a nil
// selection vector. Dictionary chunks binary-search code bounds; FoR
// chunks compare unpacked integers against an integer window; RLE chunks
// evaluate once per run.
func (c *EncodedChunk) RangeSel(lo, hi *value.Value, loStrict, hiStrict bool, sel []int32) ([]int32, bool) {
	sel = sel[:0]
	if (lo != nil && lo.IsNull()) || (hi != nil && hi.IsNull()) {
		// a NULL bound matches nothing: compiled comparisons short-circuit
		// NULL operands before ever comparing
		return sel, false
	}
	if lo == nil && hi == nil {
		// no bounds: everything but NULLs matches; scan only encodings
		// that can hold NULLs
		switch c.Enc {
		case EncDict, EncFoR:
			return sel, true
		}
	}
	switch c.Enc {
	case EncRaw:
		for i, v := range c.Raw {
			if matchRange(v, lo, hi, loStrict, hiStrict) {
				sel = append(sel, int32(i))
			}
		}
	case EncDict:
		// the dictionary is Compare-sorted and single-kind, so the
		// matching values form one contiguous code interval [cLo, cHi)
		cLo, cHi := 0, len(c.Dict)
		if lo != nil {
			cLo = sort.Search(len(c.Dict), func(i int) bool {
				cmp := c.Dict[i].Compare(*lo)
				return cmp > 0 || (cmp == 0 && !loStrict)
			})
		}
		if hi != nil {
			cHi = sort.Search(len(c.Dict), func(i int) bool {
				cmp := c.Dict[i].Compare(*hi)
				return cmp > 0 || (cmp == 0 && hiStrict)
			})
		}
		if cLo >= cHi {
			return sel, false
		}
		if cLo == 0 && cHi == len(c.Dict) {
			return sel, true
		}
		// branch-free: every position is written, and the cursor moves
		// past it only when its code lies in [cLo, cHi)
		lc, span := uint16(cLo), uint16(cHi-cLo)
		out, k := slices.Grow(sel, c.N)[:c.N], 0
		for i, code := range c.Codes {
			out[k] = int32(i)
			if code-lc < span {
				k++
			}
		}
		sel = out[:k]
	case EncFoR:
		return c.WindowSel(lo, hi, loStrict, hiStrict, nil, sel)
	case EncRLE:
		pos := 0
		for j, v := range c.RunVals {
			end := int(c.RunEnds[j])
			if matchRange(v, lo, hi, loStrict, hiStrict) {
				for ; pos < end; pos++ {
					sel = append(sel, int32(pos))
				}
			} else {
				pos = end
			}
		}
	}
	return sel, len(sel) == c.N
}

// WindowSel is RangeSel's kernel for a FoR chunk, over candidates: it
// appends to out, in order, the candidates (ascending chunk positions; nil:
// every row) whose value lies in the range [lo, hi] under RangeSel's rules.
// The second result is true when every candidate was kept: the caller then
// keeps its own candidates, whatever out holds. A candidate list may share
// out's backing array: position k of the output is written only after
// candidate k is read. Neither bound may be NULL.
//
// Packed deltas are compared against the window shifted by Base: a row is
// Base+d, so it lies in [loI, hiI] exactly when d lies in [dLo, dLo+span],
// one unsigned comparison. The loops are branch-free like the dictionary's
// in RangeSel: every position is written, and the cursor moves past it
// only when it is kept.
func (c *EncodedChunk) WindowSel(lo, hi *value.Value, loStrict, hiStrict bool, cand, out []int32) ([]int32, bool) {
	out = out[:0]
	loI, hiI, ok := intWindow(lo, hi, loStrict, hiStrict)
	if !ok || hiI < c.Base {
		return out, false // no row lies in the window
	}
	var dLo uint64
	if loI > c.Base {
		dLo = uint64(loI) - uint64(c.Base)
	}
	span := uint64(hiI) - uint64(c.Base) - dLo
	if dLo == 0 && span >= ^uint64(0)>>(64-uint(c.Width)) {
		return out, true // the window covers every representable delta
	}
	var buf [forBlock]uint64
	k := 0
	if cand == nil {
		out = slices.Grow(out, c.N)[:c.N]
		for blk := 0; blk < c.N; blk += forBlock {
			for j, d := range c.forBlockAt(&buf, blk) {
				out[k] = int32(blk + j)
				if d-dLo <= span {
					k++
				}
			}
		}
		return out[:k], k == c.N
	}
	out = slices.Grow(out, len(cand))[:len(cand)]
	var d []uint64
	blk := -1
	for _, i := range cand {
		if b := int(i) &^ (forBlock - 1); b != blk {
			blk = b
			d = c.forBlockAt(&buf, blk)
		}
		out[k] = i
		if d[int(i)-blk]-dLo <= span {
			k++
		}
	}
	return out[:k], k == len(cand)
}

// intWindow converts value-domain range bounds into a closed int64 window
// [loI, hiI] equivalent for integer values under value.Compare semantics.
// ok=false means no integer can match. Non-numeric bounds use Compare's
// kind order (integers sort before strings/bools), and NaN bounds follow
// Compare's "NaN compares equal to everything numeric" behavior.
func intWindow(lo, hi *value.Value, loStrict, hiStrict bool) (int64, int64, bool) {
	loI, hiI := int64(math.MinInt64), int64(math.MaxInt64)
	if lo != nil {
		b, ok := intLowerBound(*lo, loStrict)
		if !ok {
			return 0, 0, false
		}
		loI = b
	}
	if hi != nil {
		b, ok := intUpperBound(*hi, hiStrict)
		if !ok {
			return 0, 0, false
		}
		hiI = b
	}
	return loI, hiI, loI <= hiI
}

// exactInts is 2^53: every int64 of smaller magnitude converts to float64
// exactly. value.Compare orders an int against a number through float64,
// so beyond it neighbouring ints compare equal — to each other and to the
// bound they round to — and a window edge there is found by search.
const exactInts = 1 << 53

// intLowerBound returns the smallest int64 v with v > b (strict) or
// v >= b under value.Compare.
func intLowerBound(b value.Value, strict bool) (int64, bool) {
	f, ok := b.AsFloat()
	switch {
	case !ok:
		// NULL never reaches here (pruner bounds are literals); strings
		// and bools sort after every integer, so no integer exceeds them
		return 0, false
	case math.IsNaN(f):
		// Compare(int, NaN) == 0: non-strict matches everything, strict
		// matches nothing
		return math.MinInt64, !strict
	case math.Abs(f) < exactInts:
		c := math.Ceil(f)
		if strict && c == f { // integral bound, exclusive
			c++
		}
		return int64(c), true
	}
	above := func(v int64) bool { fv := float64(v); return fv > f || (!strict && fv == f) }
	if !above(math.MaxInt64) {
		return 0, false
	}
	return firstInt(above), true
}

// intUpperBound returns the largest int64 v with v < b (strict) or
// v <= b under value.Compare.
func intUpperBound(b value.Value, strict bool) (int64, bool) {
	f, ok := b.AsFloat()
	switch {
	case !ok:
		// strings and bools sort after every integer: all integers match
		return math.MaxInt64, true
	case math.IsNaN(f):
		return math.MaxInt64, !strict
	case math.Abs(f) < exactInts:
		fl := math.Floor(f)
		if strict && fl == f {
			fl--
		}
		return int64(fl), true
	}
	past := func(v int64) bool { fv := float64(v); return fv > f || (strict && fv == f) }
	if !past(math.MaxInt64) {
		return math.MaxInt64, true
	}
	first := firstInt(past)
	return first - 1, first != math.MinInt64
}

// firstInt returns the smallest int64 at which the monotone predicate up
// (false up to some int, true from it on) holds; up(math.MaxInt64) must.
func firstInt(up func(int64) bool) int64 {
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
	for lo < hi {
		if mid := lo + int64((uint64(hi)-uint64(lo))/2); up(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
