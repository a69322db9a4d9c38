package colstore

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"htapxplain/internal/value"
)

// refRangeSel is the trusted reference for RangeSel: the per-row matchRange
// loop every encoding-specific fast path must agree with.
func refRangeSel(vals []value.Value, lo, hi *value.Value, loStrict, hiStrict bool) []int32 {
	if (lo != nil && lo.IsNull()) || (hi != nil && hi.IsNull()) {
		return []int32{}
	}
	out := []int32{}
	for i, v := range vals {
		if matchRange(v, lo, hi, loStrict, hiStrict) {
			out = append(out, int32(i))
		}
	}
	return out
}

func checkChunk(t *testing.T, label string, vals []value.Value, policy EncodingPolicy) {
	t.Helper()
	ch := encodeChunk(vals, policy)
	if ch.N != len(vals) {
		t.Fatalf("%s: N = %d, want %d", label, ch.N, len(vals))
	}
	// full decode round-trips bit-exactly
	dec := ch.Decode(nil)
	for i := range vals {
		if !eqValue(dec[i], vals[i]) {
			t.Fatalf("%s: Decode[%d] = %v, want %v (enc %v)", label, i, dec[i], vals[i], ch.Enc)
		}
		if got := ch.ValueAt(i); !eqValue(got, vals[i]) {
			t.Fatalf("%s: ValueAt(%d) = %v, want %v (enc %v)", label, i, got, vals[i], ch.Enc)
		}
	}
	// sparse decode hits exactly the selected positions
	sel := []int32{}
	for i := 0; i < len(vals); i += 3 {
		sel = append(sel, int32(i))
	}
	sparse := make([]value.Value, len(vals))
	ch.DecodeSel(sparse, sel)
	for _, i := range sel {
		if !eqValue(sparse[i], vals[i]) {
			t.Fatalf("%s: DecodeSel[%d] = %v, want %v (enc %v)", label, i, sparse[i], vals[i], ch.Enc)
		}
	}
	// RangeSel agrees with the reference for a spread of bounds
	var probes []value.Value
	if len(vals) > 0 {
		probes = append(probes, vals[0], vals[len(vals)/2], vals[len(vals)-1])
	}
	probes = append(probes, value.NewInt(-1), value.NewInt(1<<40), value.NewString("m"), value.Null)
	for _, lo := range probes {
		for _, hi := range probes {
			for _, strict := range []bool{false, true} {
				lo, hi := lo, hi
				got, all := ch.RangeSel(&lo, &hi, strict, strict, nil)
				if all {
					got = nil
					for i := range vals {
						got = append(got, int32(i))
					}
				}
				want := refRangeSel(vals, &lo, &hi, strict, strict)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s: RangeSel(%v,%v,strict=%v) enc %v = %v, want %v",
						label, lo, hi, strict, ch.Enc, got, want)
				}
			}
		}
	}
	// open-ended bounds
	if got, all := ch.RangeSel(nil, nil, false, false, nil); !all && len(got) != len(refRangeSel(vals, nil, nil, false, false)) {
		t.Fatalf("%s: unbounded RangeSel dropped rows", label)
	}
}

func TestEncodingSelection(t *testing.T) {
	n := ChunkSize
	ints := make([]value.Value, n)  // wide-spread ints: FoR
	dicts := make([]value.Value, n) // 8 distinct strings: dictionary
	runs := make([]value.Value, n)  // long sorted runs: RLE
	uniq := make([]value.Value, n)  // unique strings: raw stays smallest
	for i := 0; i < n; i++ {
		ints[i] = value.NewInt(int64(i) * 1_000_003)
		dicts[i] = value.NewString(fmt.Sprintf("mode-%d", i%8))
		runs[i] = value.NewInt(int64(i / 256))
		uniq[i] = value.NewString(fmt.Sprintf("unique-value-%06d", i))
	}
	cases := []struct {
		label string
		vals  []value.Value
		want  Encoding
	}{
		{"for-ints", ints, EncFoR},
		{"dict-strings", dicts, EncDict},
		{"rle-runs", runs, EncRLE},
		{"unique-strings", uniq, EncRaw},
	}
	for _, c := range cases {
		ch := encodeChunk(c.vals, PolicyAuto)
		if ch.Enc != c.want {
			t.Errorf("%s: PolicyAuto chose %v, want %v", c.label, ch.Enc, c.want)
		}
		if ch.Enc != EncRaw && ch.EncBytes >= ch.RawBytes {
			t.Errorf("%s: encoded %d bytes >= raw %d", c.label, ch.EncBytes, ch.RawBytes)
		}
	}
}

func TestEncodedChunkContract(t *testing.T) {
	mixed := []value.Value{
		value.Null, value.NewInt(5), value.NewFloat(5), value.NewFloat(math.NaN()),
		value.NewFloat(math.Copysign(0, -1)), value.NewFloat(0), value.NewString(""),
		value.NewString("z"), value.NewBool(true), value.NewBool(false),
		value.NewInt(math.MaxInt64), value.NewInt(math.MinInt64),
	}
	sets := map[string][]value.Value{
		"mixed-kinds": mixed,
		"all-null":    {value.Null, value.Null, value.Null},
		"single":      {value.NewInt(42)},
		"bools":       {value.NewBool(true), value.NewBool(false), value.NewBool(true)},
		"extreme-ints": {
			value.NewInt(math.MinInt64), value.NewInt(math.MaxInt64),
			value.NewInt(0), value.NewInt(-1),
		},
		"neg-floats": {value.NewFloat(-1.5), value.NewFloat(2.5), value.NewFloat(-1.5)},
	}
	for label, vals := range sets {
		for _, p := range AllPolicies {
			checkChunk(t, label+"/"+p.String(), vals, p)
		}
	}
}

// TestZoneMapsUnchangedByEncoding: encodings change the physical layout
// only — the zone maps a column publishes must be byte-identical to the
// raw layout's, whatever the policy.
func TestZoneMapsUnchangedByEncoding(t *testing.T) {
	n := 3*ChunkSize + 71
	vals := make([]value.Value, n)
	for i := range vals {
		vals[i] = value.NewInt(int64((i * 37) % 4001))
	}
	ref := newColumn("c", append([]value.Value(nil), vals...), PolicyRaw)
	for _, p := range AllPolicies {
		c := newColumn("c", append([]value.Value(nil), vals...), p)
		if c.NumChunks() != ref.NumChunks() {
			t.Fatalf("%v: %d chunks, want %d", p, c.NumChunks(), ref.NumChunks())
		}
		for k := 0; k < ref.NumChunks(); k++ {
			mn, mx := c.ChunkRange(k)
			rn, rx := ref.ChunkRange(k)
			if !eqValue(mn, rn) || !eqValue(mx, rx) {
				t.Errorf("%v chunk %d: zone map [%v,%v], want [%v,%v]", p, k, mn, mx, rn, rx)
			}
		}
		for i := 0; i < n; i += 97 {
			if got := c.Value(i); !eqValue(got, vals[i]) {
				t.Fatalf("%v: Value(%d) = %v, want %v", p, i, got, vals[i])
			}
		}
	}
}

// fuzzValues deterministically expands fuzz bytes into a value slice that
// exercises every kind, NULLs, NaN, negative zero, and int64 extremes.
func fuzzValues(data []byte) []value.Value {
	vals := make([]value.Value, 0, len(data))
	for i := 0; i+1 < len(data); i += 2 {
		k, b := data[i], data[i+1]
		switch k % 7 {
		case 0:
			vals = append(vals, value.Null)
		case 1:
			vals = append(vals, value.NewInt(int64(b)-128))
		case 2:
			vals = append(vals, value.NewInt((int64(b)-128)*(math.MaxInt64/255)))
		case 3:
			switch b % 4 {
			case 0:
				vals = append(vals, value.NewFloat(math.NaN()))
			case 1:
				vals = append(vals, value.NewFloat(math.Copysign(0, -1)))
			default:
				vals = append(vals, value.NewFloat(float64(int64(b)-128)/4))
			}
		case 4:
			vals = append(vals, value.NewString(fmt.Sprintf("s%d", b%16)))
		case 5:
			vals = append(vals, value.NewBool(b%2 == 0))
		case 6:
			vals = append(vals, value.NewInt(int64(b%8)))
		}
	}
	if len(vals) > ChunkSize {
		vals = vals[:ChunkSize]
	}
	return vals
}

// FuzzEncodingRoundTrip: for arbitrary values under every policy, encoding
// must never panic, must round-trip bit-exactly, must keep zone maps
// identical to the raw layout, and RangeSel must agree with the per-row
// reference under every bound/strictness combination derived from the
// input.
func FuzzEncodingRoundTrip(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13})
	f.Add([]byte{12, 0, 12, 1, 12, 2, 12, 3, 12, 4})             // small ints
	f.Add([]byte{8, 5, 8, 5, 8, 5, 8, 9, 8, 9})                  // runs
	f.Add([]byte{4, 200, 4, 10, 2, 128, 3, 0, 3, 1, 0, 0, 5, 7}) // extremes + NaN + null
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := fuzzValues(data)
		if len(vals) == 0 {
			return
		}
		for _, p := range AllPolicies {
			ch := encodeChunk(append([]value.Value(nil), vals...), p)
			if ch.N != len(vals) {
				t.Fatalf("%v: N = %d, want %d", p, ch.N, len(vals))
			}
			dec := ch.Decode(nil)
			for i := range vals {
				if !eqValue(dec[i], vals[i]) {
					t.Fatalf("%v: Decode[%d] = %v, want %v (enc %v)", p, i, dec[i], vals[i], ch.Enc)
				}
			}
			for i := 0; i < len(vals); i += 1 + len(vals)/8 {
				if got := ch.ValueAt(i); !eqValue(got, vals[i]) {
					t.Fatalf("%v: ValueAt(%d) = %v, want %v (enc %v)", p, i, got, vals[i], ch.Enc)
				}
			}
			// bounds drawn from the data itself plus outsiders
			bounds := []*value.Value{nil}
			for i := 0; i < len(vals); i += 1 + len(vals)/4 {
				v := vals[i]
				bounds = append(bounds, &v)
			}
			out := value.NewInt(12345)
			bounds = append(bounds, &out)
			for _, lo := range bounds {
				for _, hi := range bounds {
					for _, strict := range []bool{false, true} {
						got, all := ch.RangeSel(lo, hi, strict, strict, nil)
						if all {
							got = got[:0]
							for i := range vals {
								got = append(got, int32(i))
							}
						}
						want := refRangeSel(vals, lo, hi, strict, strict)
						if fmt.Sprint(got) != fmt.Sprint(want) {
							t.Fatalf("%v enc %v: RangeSel(%v,%v,strict=%v) = %v, want %v",
								p, ch.Enc, lo, hi, strict, got, want)
						}
					}
				}
			}
		}
		// zone maps must not depend on the policy
		raw := newColumn("c", append([]value.Value(nil), vals...), PolicyRaw)
		for _, p := range AllPolicies {
			c := newColumn("c", append([]value.Value(nil), vals...), p)
			mn, mx := c.ChunkRange(0)
			rn, rx := raw.ChunkRange(0)
			if !eqValue(mn, rn) || !eqValue(mx, rx) {
				t.Fatalf("%v: zone map [%v,%v] differs from raw [%v,%v]", p, mn, mx, rn, rx)
			}
		}
	})
}

// forChunk builds a FoR chunk of n rows whose base is base (moved down when
// base+2^width-1 would pass MaxInt64) and whose deltas span exactly width
// bits; the rest of the rows are drawn from rng.
func forChunk(t testing.TB, rng *rand.Rand, base int64, width uint8, n int) (*EncodedChunk, []value.Value) {
	t.Helper()
	mask := ^uint64(0) >> (64 - uint(width))
	if mask > uint64(math.MaxInt64)-uint64(base) {
		base = int64(uint64(math.MaxInt64) - mask)
	}
	vals := make([]value.Value, n)
	for i := range vals {
		d := rng.Uint64() & mask
		switch i {
		case 0:
			d = 0
		case 1:
			d = mask
		}
		vals[i] = value.NewInt(int64(uint64(base) + d))
	}
	ch := encodeChunk(vals, PolicyFoR)
	if ch.Enc != EncFoR || ch.Width != width || ch.Base != base {
		t.Fatalf("precondition: got %v width %d base %d, want for width %d base %d", ch.Enc, ch.Width, ch.Base, width, base)
	}
	return ch, vals
}

// forBounds are range-predicate bounds around a FoR chunk: its own values,
// their neighbours and halves, the int64 extremes, NaN, ±Inf and a string.
func forBounds(rng *rand.Rand, vals []value.Value, extra ...int64) []*value.Value {
	out := []*value.Value{nil}
	add := func(v value.Value) { out = append(out, &v) }
	for _, x := range extra {
		add(value.NewInt(x))
	}
	for k := 0; k < 3; k++ {
		x := vals[rng.Intn(len(vals))].I
		add(value.NewInt(x))
		if x != math.MaxInt64 {
			add(value.NewInt(x + 1))
		}
		add(value.NewFloat(float64(x) + 0.5))
	}
	add(value.NewInt(math.MaxInt64))
	add(value.NewInt(math.MinInt64))
	add(value.NewFloat(math.NaN()))
	add(value.NewFloat(math.Inf(1)))
	add(value.NewFloat(math.Inf(-1)))
	add(value.NewFloat(-0.5))
	add(value.NewString("m"))
	return out
}

// FuzzFoRKernels: the row-order FoR kernels — unpackFoR's sequential bit
// cursor, Decode and DecodeSel into dirty buffers, and RangeSel's
// delta-domain window — agree with the random-access forAt and matchRange
// at every width 0…64, from negative and extreme bases, under strict, open
// and non-integral bounds.
func FuzzFoRKernels(f *testing.F) {
	f.Add(int64(0), int64(1), uint16(200), int64(5), int64(90))
	f.Add(int64(-1000), int64(2), uint16(64), int64(-1000), int64(-1))
	f.Add(int64(math.MinInt64), int64(3), uint16(130), int64(math.MinInt64), int64(math.MaxInt64))
	f.Add(int64(math.MaxInt64), int64(4), uint16(2), int64(0), int64(math.MaxInt64))
	f.Add(int64(1<<40), int64(5), uint16(1024), int64(1<<40), int64(1<<41))
	f.Fuzz(func(t *testing.T, base, seed int64, nRaw uint16, b1, b2 int64) {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw)%(ChunkSize-1)
		for width := 0; width <= 64; width++ {
			ch, vals := forChunk(t, rng, base, uint8(width), n)
			deltas := make([]uint64, n)
			unpackFoR(deltas, ch.Packed, ch.Width)
			for i, d := range deltas {
				if got := ch.Base + int64(d); got != ch.forAt(i) {
					t.Fatalf("width %d: unpackFoR[%d] = %d, forAt %d", width, i, got, ch.forAt(i))
				}
			}
			// decode targets start dirty: a string and a payload in every slot
			dirty := func() []value.Value {
				d := make([]value.Value, n)
				for i := range d {
					d[i] = value.Value{K: value.KindString, I: -1, S: "stale"}
				}
				return d
			}
			dec := ch.Decode(dirty())
			sparse := dirty()
			var sel []int32
			for i := 0; i < n; i++ {
				if rng.Intn(3) == 0 {
					sel = append(sel, int32(i))
				}
			}
			ch.DecodeSel(sparse, sel)
			for i, v := range vals {
				if !eqValue(dec[i], v) {
					t.Fatalf("width %d: Decode[%d] = %#v, want %v", width, i, dec[i], v)
				}
			}
			for k, i := range sel {
				if !eqValue(sparse[i], vals[i]) {
					t.Fatalf("width %d: DecodeSel[%d] = %#v, want %v", width, i, sparse[i], vals[i])
				}
				if next := int32(n); k+1 < len(sel) {
					next = sel[k+1]
				} else if i+1 < next && sparse[i+1].S != "stale" {
					t.Fatalf("width %d: DecodeSel wrote unselected row %d", width, i+1)
				}
			}
			bounds := forBounds(rng, vals, b1, b2)
			for k := 0; k < 24; k++ {
				lo, hi := bounds[rng.Intn(len(bounds))], bounds[rng.Intn(len(bounds))]
				loStrict, hiStrict := rng.Intn(2) == 0, rng.Intn(2) == 0
				got, all := ch.RangeSel(lo, hi, loStrict, hiStrict, nil)
				var want []int32
				for i := 0; i < n; i++ {
					if matchRange(value.NewInt(ch.forAt(i)), lo, hi, loStrict, hiStrict) {
						want = append(want, int32(i))
					}
				}
				if all != (len(want) == n) || (!all && fmt.Sprint(got) != fmt.Sprint(want)) {
					t.Fatalf("width %d base %d: RangeSel(%v, %v, %v, %v) = %v all=%v, want %v",
						width, ch.Base, lo, hi, loStrict, hiStrict, got, all, want)
				}
			}
		}
	})
}

// dictChunk builds a dictionary chunk of n rows drawn from ndist distinct
// values of one kind (0 ints, 1 floats, 2 strings).
func dictChunk(t testing.TB, rng *rand.Rand, kind, ndist, n int) (*EncodedChunk, []value.Value) {
	t.Helper()
	distinct := make([]value.Value, ndist)
	for i := range distinct {
		x := rng.Int63n(1000) - 500
		switch kind {
		case 0:
			distinct[i] = value.NewInt(x)
		case 1:
			distinct[i] = value.NewFloat(float64(x) / 4)
		default:
			distinct[i] = value.NewString(fmt.Sprintf("s%03d", x+500))
		}
	}
	vals := make([]value.Value, n)
	for i := range vals {
		vals[i] = distinct[rng.Intn(ndist)]
	}
	ch := encodeChunk(vals, PolicyDict)
	if ch.Enc != EncDict {
		t.Fatalf("precondition: got %v, want dict", ch.Enc)
	}
	return ch, vals
}

// FuzzDictRangeSel: a dictionary chunk's RangeSel — code bounds found by
// binary search, then one branch-free pass over the codes — agrees with
// matchRange row by row, for int, float and string dictionaries, under
// strict, open and mixed-strictness bounds of the dictionary's own values,
// values between them, other kinds, NaN and ±Inf, into a caller selection
// with stale contents whether its capacity covers the chunk or not.
func FuzzDictRangeSel(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(7), uint16(1024))
	f.Add(int64(2), uint8(1), uint8(1), uint16(3))
	f.Add(int64(3), uint8(2), uint8(200), uint16(700))
	f.Add(int64(4), uint8(2), uint8(2), uint16(1))
	f.Fuzz(func(t *testing.T, seed int64, kindRaw, distRaw uint8, nRaw uint16) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%ChunkSize
		ch, vals := dictChunk(t, rng, int(kindRaw%3), 1+int(distRaw)%maxDictSize, n)
		bounds := []*value.Value{nil}
		add := func(v value.Value) { bounds = append(bounds, &v) }
		for _, v := range ch.Dict {
			add(v)
			switch v.K {
			case value.KindString:
				add(value.NewString(v.S + "\x00"))
			case value.KindFloat:
				add(value.NewFloat(v.Float() + 0.125))
			default:
				add(value.NewInt(v.I + 1))
				add(value.NewFloat(float64(v.I) - 0.5))
			}
		}
		add(value.NewInt(math.MinInt64))
		add(value.NewFloat(math.NaN()))
		add(value.NewFloat(math.Inf(1)))
		add(value.NewFloat(math.Inf(-1)))
		add(value.NewString(""))
		add(value.NewString("~"))
		add(value.NewBool(true))
		for k := 0; k < 64; k++ {
			lo, hi := bounds[rng.Intn(len(bounds))], bounds[rng.Intn(len(bounds))]
			loStrict, hiStrict := rng.Intn(2) == 0, rng.Intn(2) == 0
			want := refRangeSel(vals, lo, hi, loStrict, hiStrict)
			// a stale selection: short of the chunk, or with room for all of it
			stale := make([]int32, 3, 3+rng.Intn(2*n))
			for i := range stale[:cap(stale)] {
				stale[:cap(stale)][i] = -7
			}
			got, all := ch.RangeSel(lo, hi, loStrict, hiStrict, stale)
			if all != (len(want) == n) || (!all && fmt.Sprint(got) != fmt.Sprint(want)) {
				t.Fatalf("dict of %d %v: RangeSel(%v, %v, %v, %v) into cap %d = %v all=%v, want %v",
					len(ch.Dict), ch.Dict[0].K, lo, hi, loStrict, hiStrict, cap(stale), got, all, want)
			}
		}
	})
}

// TestFoRDecodeAllocs: the FoR kernels allocate nothing — the unpack
// buffer lives on the stack and the targets are the caller's.
func TestFoRDecodeAllocs(t *testing.T) {
	ch, _ := forChunk(t, rand.New(rand.NewSource(1)), -5000, 17, ChunkSize)
	dst := make([]value.Value, ChunkSize)
	sel := make([]int32, 0, ChunkSize)
	for i := 0; i < ChunkSize; i += 3 {
		sel = append(sel, int32(i))
	}
	lo, hi := value.NewInt(0), value.NewInt(40000)
	res := make([]int32, 0, ChunkSize)
	allocs := testing.AllocsPerRun(20, func() {
		ch.Decode(dst)
		ch.DecodeSel(dst, sel)
		res, _ = ch.RangeSel(&lo, &hi, false, true, res[:0])
	})
	if allocs != 0 {
		t.Errorf("Decode + DecodeSel + RangeSel of a FoR chunk: %.0f allocations, want 0", allocs)
	}
}

func BenchmarkFoRDecode(b *testing.B) {
	ch, _ := forChunk(b, rand.New(rand.NewSource(1)), -5000, 17, ChunkSize)
	dst := make([]value.Value, ChunkSize)
	b.SetBytes(ChunkSize * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.Decode(dst)
	}
}

func BenchmarkFoRRangeSel(b *testing.B) {
	ch, _ := forChunk(b, rand.New(rand.NewSource(1)), -5000, 17, ChunkSize)
	lo, hi := value.NewInt(0), value.NewInt(40000)
	sel := make([]int32, 0, ChunkSize)
	b.SetBytes(ChunkSize * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel, _ = ch.RangeSel(&lo, &hi, false, true, sel[:0])
	}
}

func BenchmarkDictRangeSel(b *testing.B) {
	ch, _ := dictChunk(b, rand.New(rand.NewSource(1)), 2, 64, ChunkSize)
	lo, hi := ch.Dict[16], ch.Dict[40]
	sel := make([]int32, 0, ChunkSize)
	b.SetBytes(ChunkSize * 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel, _ = ch.RangeSel(&lo, &hi, false, true, sel[:0])
	}
}
