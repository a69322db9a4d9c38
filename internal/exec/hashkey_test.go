package exec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"htapxplain/internal/catalog"
	"htapxplain/internal/colstore"
	"htapxplain/internal/sqlparser"
	"htapxplain/internal/value"
)

// The string-keyed scheme the typed-hash kernel replaced survives here as
// the reference: rows group and join when their value.Row.Key renderings
// are equal. Every differential below compares the operators against it.

// ---------------------------------------------------------------- fuzz

// fuzzRows decodes two rows of the same width from data. A column of the
// second row may be a copy of the first row's, so equal keys are common.
func fuzzRows(data []byte) (a, b value.Row) {
	next := func(n int) []byte {
		if len(data) < n {
			pad := make([]byte, n)
			copy(pad, data)
			data = nil
			return pad
		}
		out := data[:n]
		data = data[n:]
		return out
	}
	width := int(next(1)[0])%3 + 1
	val := func(prev *value.Value) value.Value {
		switch tag := next(1)[0] % 7; tag {
		case 0:
			return value.Null
		case 1:
			return value.NewInt(int64(binary.LittleEndian.Uint64(next(8))))
		case 2:
			return value.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(next(8))))
		case 3:
			return value.NewString(string(next(int(next(1)[0]) % 6)))
		case 4:
			return value.NewBool(next(1)[0]%2 == 1)
		case 5:
			// small numbers in both numeric kinds: 1 vs 1.0, 0 vs -0.0
			n := int8(next(1)[0])
			if n%2 == 0 {
				return value.NewInt(int64(n / 2))
			}
			return value.NewFloat(float64(n/2) * math.Copysign(1, float64(n)))
		default:
			if prev != nil {
				return *prev
			}
			return value.Null
		}
	}
	a = make(value.Row, width)
	for i := range a {
		a[i] = val(nil)
	}
	b = make(value.Row, width)
	for i := range b {
		b[i] = val(&a[i])
	}
	return a, b
}

// FuzzKeyEqual: for rows whose strings are free of the old rendering's
// separator alias, typed key equality is exactly Row.Key string equality,
// and equal keys hash equally.
func FuzzKeyEqual(f *testing.F) {
	u64 := func(v uint64) string {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		return string(b[:])
	}
	negZero := math.Float64bits(math.Copysign(0, -1))
	nan1, nan2 := uint64(0x7ff8000000000001), uint64(0xfff0000000000abc)
	for _, seed := range []string{
		"\x00\x00\x00",          // NULL vs NULL
		"\x00\x00\x01" + u64(0), // NULL vs int 0
		"\x00\x01" + u64(1) + "\x02" + u64(math.Float64bits(1)), // 1 vs 1.0
		"\x00\x02" + u64(0) + "\x02" + u64(negZero),             // +0.0 vs -0.0
		"\x00\x02" + u64(nan1) + "\x02" + u64(nan2),             // NaN payloads
		"\x00\x02" + u64(nan1) + "\x06",                         // NaN vs itself
		"\x00\x04\x01\x01" + u64(1),                             // true vs int 1
		"\x00\x04\x01\x04\x00",                                  // true vs false
		"\x00\x03\x02ab\x03\x02ab",                              // equal strings
		"\x00\x03\x01a\x03\x00",                                 // "a" vs ""
		"\x00\x03\x011\x01" + u64(1),                            // "1" vs 1
		"\x01\x01" + u64(7) + "\x03\x01x\x06\x06",               // two columns, copied
		"\x02\x00\x05\x02\x05\x03\x06\x05\x04\x06",              // three columns, mixed
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := fuzzRows(data)
		for _, r := range []value.Row{a, b} {
			for _, v := range r {
				if v.K == value.KindString && strings.Contains(v.S, "\x1f\x00") {
					t.Skip("string carries the old rendering's separators")
				}
			}
		}
		cols := identityCols(len(a))
		want := a.Key(cols) == b.Key(cols)
		if got := rowKeyEqual(a, b); got != want {
			t.Fatalf("rowKeyEqual(%v, %v) = %v, Row.Key equality = %v", a, b, got, want)
		}
		if want && hashRow(a) != hashRow(b) {
			t.Fatalf("equal keys %v and %v hash differently", a, b)
		}
		asBatch := (&rowWindow{batch: Batch{Cols: make([][]value.Value, len(a))}}).fill([]value.Row{a})
		if hashRow(a) != hashBatchCols(asBatch, 0, cols) {
			t.Fatalf("hashRow and hashBatchCols disagree on %v", a)
		}
		if len(a) == 1 && a[0].K == value.KindInt && hashRow(a) != hashInt(a[0].I) {
			t.Fatalf("hashRow and hashInt disagree on %v", a)
		}
		if !rowKeyEqual(a, a) || !rowKeyEqual(b, b) {
			t.Fatalf("a key must equal itself: %v / %v", a, b)
		}
	})
}

// TestFloatKeyLayout: with a float's bits in Value.I, float keys hash and
// compare as they did when the float had a field of its own — the hashes
// below were recorded then — every NaN is one key, and -0.0 and +0.0 stay
// two.
func TestFloatKeyLayout(t *testing.T) {
	cases := []struct{ bits, hash uint64 }{
		{0x8000000000000000, 0x1472b4655a0b6cb4},
		{0x0000000000000000, 0x9472b465da0b6cb4},
		{0x7ff8000000000001, 0x09d9048d68fd4889},
		{0xfff4000000000abc, 0x09d9048d68fd4889},
		{0x7ff0000000000000, 0xa2c2b465ecbb6cb4},
		{0xfff0000000000000, 0x22c2b4656cbb6cb4},
		{0x0000000000000001, 0x9521048df4054889},
		{0x4004000000000000, 0xa13eb465ef476cb4},
		{0xfe37e43c8800759c, 0xeb19b6fb69e4384e},
	}
	for _, a := range cases {
		va := value.NewFloat(math.Float64frombits(a.bits))
		if got := hashValue(hashInit, va); got != a.hash {
			t.Errorf("hashValue(%#x) = %#x, want %#x", a.bits, got, a.hash)
		}
		for _, b := range cases {
			vb := value.NewFloat(math.Float64frombits(b.bits))
			bothNaN := math.IsNaN(va.Float()) && math.IsNaN(vb.Float())
			if want := a.bits == b.bits || bothNaN; keyEqual(va, vb) != want {
				t.Errorf("keyEqual(%#x, %#x) = %v, want %v", a.bits, b.bits, !want, want)
			}
		}
		if keyEqual(va, value.NewInt(int64(a.bits))) {
			t.Errorf("float %#x equals the int holding its bits", a.bits)
		}
	}
}

// ---------------------------------------------------------------- fixtures

// trickyKeys is a small pool of key values chosen so that collisions of
// every interesting sort occur: duplicates, NULLs, the same number in
// three kinds, signed zeros, two NaN payloads, and strings that look like
// numbers.
var trickyKeys = []value.Value{
	value.Null,
	value.NewInt(0), value.NewInt(1), value.NewInt(2), value.NewInt(-7),
	value.NewFloat(1), value.NewFloat(0), value.NewFloat(math.Copysign(0, -1)),
	value.NewFloat(math.NaN()), value.NewFloat(math.Float64frombits(0xfff8000000000123)), // one key: NaN
	value.NewFloat(2.5),
	value.NewBool(true), value.NewBool(false),
	value.NewString("a"), value.NewString(""), value.NewString("1"),
}

// keyedRows makes n rows of (k1, k2, v, id): two key columns drawn from
// trickyKeys, a small integer measure (so float sums are exact in any
// order) that is NULL now and then, and a unique id.
func keyedRows(rng *rand.Rand, n int) []value.Row {
	rows := make([]value.Row, n)
	for i := range rows {
		v := value.NewInt(int64(rng.Intn(50) - 10))
		if rng.Intn(11) == 0 {
			v = value.Null
		}
		rows[i] = value.Row{
			trickyKeys[rng.Intn(len(trickyKeys))],
			trickyKeys[rng.Intn(len(trickyKeys))],
			v,
			value.NewInt(int64(i)),
		}
	}
	return rows
}

// colTableOf loads rows (all of one width) into a fresh column store under
// the default encoding policy and returns the table.
func colTableOf(t testing.TB, name string, rows []value.Row) *colstore.Table {
	t.Helper()
	width := len(rows[0])
	cols := make([]catalog.Column, width)
	for i := range cols {
		cols[i] = catalog.Column{Name: fmt.Sprintf("c%d", i), Type: catalog.TypeInt}
	}
	cat := catalog.New(1)
	if err := cat.AddTable(&catalog.Table{Name: name, Columns: cols,
		Rows: int64(len(rows)), AvgRowBytes: int64(8 * width)}); err != nil {
		t.Fatal(err)
	}
	s, err := colstore.NewStore(cat, map[string][]value.Row{name: rows})
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := s.Table(name)
	return tbl
}

func fullScan(tbl *colstore.Table, name string) *ColTableScan {
	return NewColTableScan(tbl, name, identityCols(len(tbl.Meta.Columns)), nil, nil)
}

// rowStrings renders rows for comparison by kind and payload (Row.String
// would print int 1 and float 1 alike).
func rowStrings(rows []value.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.Key(identityCols(len(r)))
	}
	return out
}

// assertRows compares got with want: in order when ordered, as multisets
// otherwise.
func assertRows(t *testing.T, label string, got, want []value.Row, ordered bool) {
	t.Helper()
	g, w := rowStrings(got), rowStrings(want)
	if !ordered {
		sort.Strings(g)
		sort.Strings(w)
	}
	if len(g) != len(w) {
		t.Fatalf("%s: %d rows, reference has %d", label, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: row %d = %q, reference %q", label, i, g[i], w[i])
		}
	}
}

// ---------------------------------------------------------------- join

// refHashJoin is the string-keyed hash join: build a map from Row.Key to
// the build rows in build order, probe in probe order.
func refHashJoin(t *testing.T, probe, build []value.Row, pk, bk []int, residual Evaluator) []value.Row {
	t.Helper()
	ht := map[string][]value.Row{}
	for _, r := range build {
		k := r.Key(bk)
		ht[k] = append(ht[k], r)
	}
	var out []value.Row
	for _, p := range probe {
		for _, b := range ht[p.Key(pk)] {
			row := append(p.Clone(), b...)
			if residual != nil {
				ok, err := Truthy(residual, row, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					continue
				}
			}
			out = append(out, row)
		}
	}
	return out
}

// joinRows widens keyedRows' (k1, k2, v, id) with the int key columns the
// join table's form is decided on. c4 is a small int k in every row: dense
// keys with duplicates. c5..c8 are k too except in row oddAt, where they
// hold a NULL, a float, a bool and a string — the key that spills a build
// out of the int form once ints are already stored. c9 is -k-5: dense
// and negative. c10 is k except for MinInt64 in row oddAt and MaxInt64 in
// the row after: a span that overflows int64, which must be chained. c11
// is 40k-10: against c4's range, probe keys below, inside and above it.
// c12 is 400k: sparse, a span past directFloor, chained.
func joinRows(rng *rand.Rand, n, oddAt int) []value.Row {
	rows := keyedRows(rng, n)
	for i, r := range rows {
		k := int64(rng.Intn(n/5 + 1))
		v := value.NewInt(k)
		r = append(r, v, v, v, v, v, value.NewInt(-k-5), v, value.NewInt(40*k-10), value.NewInt(400*k))
		switch i {
		case oddAt:
			r[5], r[6], r[7], r[8] = value.Null, value.NewFloat(float64(k)), value.NewBool(true), value.NewString("7")
			r[10] = value.NewInt(math.MinInt64)
		case oddAt + 1:
			r[10] = value.NewInt(math.MaxInt64)
		}
		rows[i] = r
	}
	return rows
}

// Join table forms: the int form indexed by offset, the int form chained
// under hashInt, and the generic form.
const (
	formDirect  = "direct"
	formChained = "chained int"
	formGeneric = "generic"
)

// tableForm names the form a built join table is in.
func tableForm(t *joinTable) string {
	switch {
	case t.index.direct != nil:
		return formDirect
	case t.ints != nil:
		return formChained
	default:
		return formGeneric
	}
}

// joinDifferential runs HashJoin over column-store inputs against
// refHashJoin, over every combination of key shape and table form (generic
// from the first row; int throughout, dense or negative or spanning all of
// int64; int until a key of another kind arrives mid-build — in the second
// morsel, so at DOP 4 in another worker's partition; two key columns; no
// equi-key at all), residual, emitted column set and DOP: identical rows in
// identical order at DOP 1 (chains keep build order), the same multiset at
// DOP 4 (the build is partitioned), and the same build/probe counters.
// Every case asserts the form its build ends in.
func joinDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nBuild := colstore.ChunkSize + 77 // two morsels; duplicate build keys throughout
	probeRows := joinRows(rng, 100, 40)
	buildRows := joinRows(rng, nBuild, colstore.ChunkSize+5)
	probeTbl, buildTbl := colTableOf(t, "p", probeRows), colTableOf(t, "b", buildRows)
	fewTbl := colTableOf(t, "p", probeRows[:8]) // the cross join's probe side
	pw := len(probeRows[0])
	concat := fullScan(probeTbl, "p").Schema().Concat(fullScan(buildTbl, "b").Schema())
	// residual: p.c2 < b.c2 — NULL measures drop out, as in SQL
	residual, err := Compile(&sqlparser.BinaryExpr{
		Op:    sqlparser.OpLt,
		Left:  &sqlparser.ColumnRef{Table: "p", Column: "c2"},
		Right: &sqlparser.ColumnRef{Table: "b", Column: "c2"},
	}, concat)
	if err != nil {
		t.Fatal(err)
	}
	keyCases := []struct {
		name   string
		pk, bk []int
		form   string
	}{
		{"one key column", []int{0}, []int{0}, formGeneric},
		{"two key columns", []int{0, 1}, []int{0, 1}, formGeneric},
		{"crossed key columns", []int{0, 1}, []int{1, 0}, formGeneric},
		{"dense int build keys, probe keys of every kind", []int{0}, []int{4}, formDirect},
		{"dense int keys with duplicates", []int{4}, []int{4}, formDirect},
		{"negative dense int keys", []int{9}, []int{9}, formDirect},
		{"probe keys below, inside and above the range", []int{11}, []int{4}, formDirect},
		{"probe keys at both ends of int64", []int{10}, []int{4}, formDirect},
		{"int keys spanning MinInt64..MaxInt64", []int{10}, []int{10}, formChained},
		{"sparse int keys", []int{12}, []int{12}, formChained},
		{"wide int build keys, probe keys of every kind", []int{0}, []int{10}, formChained},
		{"int then NULL", []int{5}, []int{5}, formGeneric},
		{"int then float", []int{6}, []int{6}, formGeneric},
		{"int then bool", []int{7}, []int{7}, formGeneric},
		{"int then string", []int{8}, []int{8}, formGeneric},
		{"int and generic key columns", []int{4, 0}, []int{4, 0}, formGeneric},
		{"no equi-key", []int{}, []int{}, formGeneric},
	}
	emits := []struct {
		name string
		cols []int
	}{
		{"all", nil},
		{"probe only", identityCols(pw)},
		{"build only", identityCols(len(concat))[pw:]},
		{"one of each", []int{3, pw + 3}},
		{"none", []int{}},
	}
	for _, kc := range keyCases {
		pTbl, pRows := probeTbl, probeRows
		if len(kc.pk) == 0 {
			pTbl, pRows = fewTbl, probeRows[:8]
		}
		for _, res := range []Evaluator{nil, residual} {
			full := refHashJoin(t, pRows, buildRows, kc.pk, kc.bk, res)
			if len(full) == 0 {
				t.Fatalf("%s: reference join is empty — fixture too sparse", kc.name)
			}
			for _, em := range emits {
				want := full
				if em.cols != nil {
					want = make([]value.Row, len(full))
					for i, r := range full {
						want[i] = make(value.Row, len(em.cols))
						for o, c := range em.cols {
							want[i][o] = r[c]
						}
					}
				}
				for _, dop := range []int{1, 4} {
					label := fmt.Sprintf("%s, residual %v, emit %s, DOP %d", kc.name, res != nil, em.name, dop)
					ctx := NewContext()
					ctx.DOP = dop
					hj := NewHashJoin(fullScan(pTbl, "p"), fullScan(buildTbl, "b"), kc.pk, kc.bk, res, em.cols)
					if len(hj.Schema()) != len(want[0]) {
						t.Fatalf("%s: schema has %d columns, want %d", label, len(hj.Schema()), len(want[0]))
					}
					if err := hj.Open(ctx); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if got := tableForm(&hj.table); got != kc.form {
						t.Errorf("%s: table in %s form, want %s", label, got, kc.form)
					}
					var got []value.Row
					for b, err := hj.Next(ctx); b != nil || err != nil; b, err = hj.Next(ctx) {
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						got = b.AppendRows(got)
					}
					if err := hj.Close(); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					assertRows(t, label, got, want, dop == 1)
					if ctx.Stats.HashBuildRows != int64(nBuild) || ctx.Stats.HashProbeRows != int64(len(pRows)) {
						t.Errorf("%s: HashBuildRows/HashProbeRows = %d/%d, want %d/%d", label,
							ctx.Stats.HashBuildRows, ctx.Stats.HashProbeRows, nBuild, len(pRows))
					}
					if dop == 4 && ctx.Stats.ParallelWorkers == 0 {
						t.Errorf("%s: the build did not fork", label)
					}
				}
			}
		}
	}
}

func TestHashJoinDifferential(t *testing.T) { joinDifferential(t) }

// fuzzInts decodes a multiset of at most max ints from data: a tag byte
// below 200 is the small key tag-100 (dense, duplicates common, negatives
// included); any other tag is followed by the key's 8 bytes, so both ends
// of int64 are reachable.
func fuzzInts(data []byte, max int) (keys []int64, rest []byte) {
	for len(data) > 0 && len(keys) < max {
		tag := data[0]
		data = data[1:]
		if tag < 200 {
			keys = append(keys, int64(tag)-100)
			continue
		}
		var b [8]byte
		data = data[copy(b[:], data):]
		keys = append(keys, int64(binary.LittleEndian.Uint64(b[:])))
	}
	return keys, data
}

// FuzzJoinIndex: over fuzzed int build and probe multisets, a join's int
// table gives exactly the nested-loop (probe row, build row) pairs, in
// probe order and per probe row in build order — indexed by offset and
// chained under hashInt alike, whichever form the build chose, with
// either side's keys as values or in their int form, and with every probe
// row active or a selection of them.
func FuzzJoinIndex(f *testing.F) {
	u64 := func(v int64) string {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		return "\xff" + string(b[:])
	}
	for _, seed := range []string{
		"\x04dedf" + "ddeecd",                   // dense, duplicates
		"\x03\x00\x01\x00" + "\x00\x01\x02\xc7", // negative keys
		"\x02" + u64(math.MinInt64) + u64(math.MaxInt64) + "d" + u64(math.MinInt64) + u64(math.MaxInt64), // span overflows
		"\x03def" + u64(math.MinInt64) + "c" + u64(math.MaxInt64) + "g",                                  // probes outside the range
		"\x00" + "def", // empty build
		"\x02" + u64(1<<40) + u64(1<<40+70000) + u64(1<<40+70000), // sparse: chained
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		build, rest := fuzzInts(data[1:], int(data[0]))
		probe, _ := fuzzInts(rest, BatchSize)
		var want [][2]int32
		for p, pk := range probe {
			for b, bk := range build {
				if pk == bk {
					want = append(want, [2]int32{int32(p), int32(b)})
				}
			}
		}
		rows := func(keys []int64) []value.Row {
			out := make([]value.Row, len(keys))
			for i, k := range keys {
				out[i] = value.Row{value.NewInt(k)}
			}
			return out
		}
		probeSchema, buildSchema := Schema{intCol("p", "k")}, Schema{intCol("b", "k")}
		joins := []*HashJoin{
			NewHashJoin(&memOp{schema: probeSchema}, &memOp{schema: buildSchema, rows: rows(build)}, []int{0}, []int{0}, nil, nil),
			NewHashJoin(&memOp{schema: probeSchema}, &typedOp{memOp: memOp{schema: buildSchema, rows: rows(build)}}, []int{0}, []int{0}, nil, nil),
		}
		for _, hj := range joins {
			if err := hj.Open(NewContext()); err != nil {
				t.Fatal(err)
			}
			defer hj.Close()
		}
		if vt, it := &joins[0].table, &joins[1].table; tableForm(vt) != tableForm(it) || !slices.Equal(vt.ints, it.ints) {
			t.Fatalf("a build of int-form keys chose the %s form over %v, one of values the %s form over %v",
				tableForm(it), it.ints, tableForm(vt), vt.ints)
		}
		pb := &Batch{Cols: [][]value.Value{make([]value.Value, len(probe))}, Len: len(probe)}
		for i, k := range probe {
			pb.Cols[0][i] = value.NewInt(k)
		}
		ipb := intForm(pb)
		defer releaseIntForm(ipb)
		// the same probe with every third row inactive, as a filter leaves it
		var sel []int32
		for p := range probe {
			if p%3 != 1 {
				sel = append(sel, int32(p))
			}
		}
		spb, sipb := *pb, *ipb
		spb.Sel, sipb.Sel = sel, sel
		var wantSel [][2]int32
		for _, w := range want {
			if w[0]%3 != 1 {
				wantSel = append(wantSel, w)
			}
		}
		check := func(form string) {
			t.Helper()
			for jn, hj := range joins {
				for bn, b := range []*Batch{pb, ipb, &spb, &sipb} {
					label := fmt.Sprintf("%s, build keys %s, probe keys %s", form, keyForms[jn], keyForms[bn%2])
					want := want
					if b.Sel != nil {
						label, want = label+", every third row inactive", wantSel
					}
					hj.match(b)
					if len(hj.pIdx) != len(want) {
						t.Fatalf("%s: %d pairs, nested loop has %d (build %v, probe %v)", label, len(hj.pIdx), len(want), build, probe)
					}
					for i, w := range want {
						if hj.pIdx[i] != w[0] || hj.bIdx[i] != w[1] {
							t.Fatalf("%s: pair %d = (%d, %d), nested loop (%d, %d)", label, i, hj.pIdx[i], hj.bIdx[i], w[0], w[1])
						}
					}
				}
			}
		}
		check(tableForm(&joins[0].table))
		if len(build) == 0 {
			return
		}
		for _, hj := range joins {
			hj.table.index.buildChained(hj.table.ints)
		}
		check(formChained)
		lo, hi := slices.Min(build), slices.Max(build)
		if span := uint64(hi) - uint64(lo); span < 1<<20 {
			for _, hj := range joins {
				hj.table.index.buildDirect(hj.table.ints, lo, span)
			}
			check(formDirect)
		}
	})
}

// TestHashJoinEmptyBuild: a build side that produces no row leaves the
// table unreadied — the generic form with nothing in it — and every probe
// row meets nothing.
func TestHashJoinEmptyBuild(t *testing.T) {
	probe := &memOp{schema: Schema{intCol("p", "k")}, rows: rowsOf([]int64{1}, []int64{0}, []int64{-1})}
	hj := NewHashJoin(probe, &memOp{schema: Schema{intCol("b", "k")}}, []int{0}, []int{0}, nil, nil)
	ctx := NewContext()
	if err := hj.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if got := tableForm(&hj.table); got != formGeneric {
		t.Errorf("empty build in %s form, want %s", got, formGeneric)
	}
	b, err := hj.Next(ctx)
	if err != nil || b != nil {
		t.Errorf("join with an empty build = %v, err %v; want no batch", b, err)
	}
	if err := hj.Close(); err != nil {
		t.Fatal(err)
	}
}

// ---------------------------------------------------------------- aggregate

// refGroups is the string-keyed grouping: member rows per Row.Key of the
// group columns, groups in first-seen order.
func refGroups(rows []value.Row, groupCols []int) (order []string, members map[string][]value.Row) {
	members = map[string][]value.Row{}
	for _, r := range rows {
		k := r.Key(groupCols)
		if _, ok := members[k]; !ok {
			order = append(order, k)
		}
		members[k] = append(members[k], r)
	}
	return order, members
}

// refAggregate computes a grouped aggregate without any hash kernel: the
// reference grouping above, then one *global* aggregate per group (a
// global aggregate has a single empty key, so it exercises no key
// hashing), prefixed with the group's values. sorted selects the parallel
// paths' emit order — ascending Row.Key of the group.
func refAggregate(t *testing.T, rows []value.Row, inWidth int, groupCols []int, aggs []AggSpec,
	outWidth int, partial, merge, sorted bool) []value.Row {
	t.Helper()
	order, members := refGroups(rows, groupCols)
	if sorted {
		sort.Strings(order)
	}
	var out []value.Row
	for _, k := range order {
		ms := members[k]
		global := &HashAggregate{
			Child: &memOp{schema: make(Schema, inWidth), rows: ms},
			Aggs:  aggs, Out: make(Schema, outWidth-len(groupCols)),
			Partial: partial, Merge: merge,
		}
		got, err := Drain(global, NewContext())
		if err != nil || len(got) != 1 {
			t.Fatalf("reference global aggregate: %v rows, err %v", len(got), err)
		}
		row := value.Row{}
		for _, c := range groupCols {
			row = append(row, ms[0][c])
		}
		out = append(out, append(row, got[0]...))
	}
	return out
}

func evalsFor(cols []int) []Evaluator {
	evs := make([]Evaluator, len(cols))
	for i, c := range cols {
		evs[i] = ColumnEval(c)
	}
	return evs
}

// aggDifferential runs HashAggregate — evaluator path, stored-chunk fold
// path, and the Partial/Merge split — at DOP 1 and 4 against refAggregate.
// The measure is small integers, so sums are exact and rows compare
// exactly at every DOP; DOP 1 must keep first-seen group order and DOP 4
// the sorted-key order, and GroupsCreated must be the distinct group count.
func aggDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rows := keyedRows(rng, 3*colstore.ChunkSize+41)
	tbl := colTableOf(t, "a", rows)
	const measure = 2
	aggs := []AggSpec{
		{Func: sqlparser.AggCount, ArgCol: -1},
		{Func: sqlparser.AggCount, Arg: ColumnEval(measure), ArgCol: measure},
		{Func: sqlparser.AggSum, Arg: ColumnEval(measure), ArgCol: measure},
		{Func: sqlparser.AggAvg, Arg: ColumnEval(measure), ArgCol: measure},
		{Func: sqlparser.AggMin, Arg: ColumnEval(measure), ArgCol: measure},
		{Func: sqlparser.AggMax, Arg: ColumnEval(measure), ArgCol: measure},
	}
	inWidth := len(rows[0])

	run := func(label string, mk func() *HashAggregate, input []value.Row, groupCols []int, dops []int) {
		t.Helper()
		for _, dop := range dops {
			label := fmt.Sprintf("%s, DOP %d", label, dop)
			agg := mk()
			want := refAggregate(t, input, len(agg.Child.Schema()), groupCols, agg.Aggs,
				len(agg.Out), agg.Partial, agg.Merge, dop > 1)
			ctx := NewContext()
			ctx.DOP = dop
			got, err := Drain(agg, ctx)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			assertRows(t, label, got, want, true)
			if ctx.Stats.GroupsCreated != int64(len(want)) {
				t.Errorf("%s: GroupsCreated = %d, reference has %d groups", label, ctx.Stats.GroupsCreated, len(want))
			}
			if dop > 1 && ctx.Stats.ParallelWorkers == 0 {
				t.Errorf("%s: the aggregate did not fork", label)
			}
		}
	}

	// evaluator path: GroupCols nil, so nothing folds a column at a time
	for _, groupCols := range [][]int{{0}, {0, 1}, {1, 0}} {
		groupCols := groupCols
		run(fmt.Sprintf("evaluator, group by %v", groupCols), func() *HashAggregate {
			return &HashAggregate{Child: fullScan(tbl, "a"), Groups: evalsFor(groupCols), Aggs: aggs,
				Out: make(Schema, len(groupCols)+len(aggs))}
		}, rows, groupCols, []int{1, 4})
	}

	// stored-chunk fold: one structural group column over the bare scan
	for _, g := range []int{0, 1} {
		g := g
		agg := &HashAggregate{Child: fullScan(tbl, "a"), Groups: evalsFor([]int{g}), GroupCols: []int{g}, Aggs: aggs}
		if !foldsStoredChunks(t, agg, nil) {
			t.Fatalf("group by c%d does not fold the scan's chunks as stored", g)
		}
		run(fmt.Sprintf("stored fold, group by c%d", g), func() *HashAggregate {
			return &HashAggregate{Child: fullScan(tbl, "a"), Groups: evalsFor([]int{g}), GroupCols: []int{g},
				Aggs: aggs, Out: make(Schema, 1+len(aggs))}
		}, rows, []int{g}, []int{1, 4})
	}

	// Partial fragments (evaluator and stored fold), then Merge over their rows
	groupCols := []int{0, 1}
	partialWidth := len(groupCols) + 2*len(aggs)
	mkPartial := func() *HashAggregate {
		return &HashAggregate{Child: fullScan(tbl, "a"), Groups: evalsFor(groupCols), Aggs: aggs,
			Out: make(Schema, partialWidth), Partial: true}
	}
	run("partial", mkPartial, rows, groupCols, []int{1, 4})
	run("partial stored fold", func() *HashAggregate {
		return &HashAggregate{Child: fullScan(tbl, "a"), Groups: evalsFor([]int{1}), GroupCols: []int{1},
			Aggs: aggs, Out: make(Schema, 1+2*len(aggs)), Partial: true}
	}, rows, []int{1}, []int{1, 4})

	// three fragments' partial rows, concatenated as a Gather would
	var partials []value.Row
	for f := 0; f < 3; f++ {
		var frag []value.Row
		for i := f; i < len(rows); i += 3 {
			frag = append(frag, rows[i])
		}
		p, err := Drain(&HashAggregate{Child: &memOp{schema: make(Schema, inWidth), rows: frag},
			Groups: evalsFor(groupCols), Aggs: aggs, Out: make(Schema, partialWidth), Partial: true}, NewContext())
		if err != nil {
			t.Fatal(err)
		}
		partials = append(partials, p...)
	}
	mergeGroups := identityCols(len(groupCols))
	mkMerge := func() *HashAggregate {
		return &HashAggregate{Child: &memOp{schema: make(Schema, partialWidth), rows: partials},
			Groups: evalsFor(mergeGroups), Aggs: aggs, Out: make(Schema, len(groupCols)+len(aggs)), Merge: true}
	}
	run("merge", mkMerge, partials, mergeGroups, []int{1})
	// ... and the merged result is the unsplit aggregate's
	merged, err := Drain(mkMerge(), NewContext())
	if err != nil {
		t.Fatal(err)
	}
	whole := refAggregate(t, rows, inWidth, groupCols, aggs, len(groupCols)+len(aggs), false, false, false)
	assertRows(t, "merge vs unsplit", merged, whole, false)

	globalFoldDifferential(t)
}

// foldRows makes n rows of (i, q, s, tie, r, k): an int, a float in
// quarters (exact sums in any order), a string, a column of values that
// compare equal across kinds and signs (1 and 1.0, 0.0 and -0.0: MIN/MAX
// ties that only first-seen order decides), a float in tenths (sums that
// depend on order) — each NULL now and then — and a join key.
func foldRows(rng *rand.Rand, n int) []value.Row {
	ties := []value.Value{value.NewInt(1), value.NewFloat(1), value.NewFloat(0), value.NewFloat(math.Copysign(0, -1)),
		value.NewInt(0), value.NewInt(7), value.NewFloat(7)}
	rows := make([]value.Row, n)
	for i := range rows {
		r := value.Row{
			value.NewInt(int64(rng.Intn(400) - 200)),
			value.NewFloat(float64(rng.Intn(80)-40) / 4),
			value.NewString(fmt.Sprintf("s%02d", rng.Intn(40))),
			ties[rng.Intn(len(ties))],
			value.NewFloat(float64(rng.Intn(1000)) / 10),
			value.NewInt(int64(rng.Intn(300))),
		}
		for c := 0; c < 5; c++ {
			if rng.Intn(9) == 0 {
				r[c] = value.Null
			}
		}
		rows[i] = r
	}
	return rows
}

// globalFoldDifferential: an aggregate whose groups and arguments are bare
// columns (GroupCols set) folds a column at a time; ungrouped and grouped
// by a string and by an int column, over a join whose output batches are
// longer than BatchSize, over that join filtered (a selection reaching
// past BatchSize) — where it folds values — and over a filtered scan —
// whose chunks it folds as stored — its rows equal the row fold's
// (GroupCols nil) byte for byte, final and Partial, at DOP 1 and 4.
// Order-dependent columns (sums of tenths, cross-kind ties) run at DOP 1
// only, where both folds see one row order; at DOP 4 the merge order of
// the workers' states varies from run to run.
func globalFoldDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	probe := colTableOf(t, "f", foldRows(rng, 3*colstore.ChunkSize+77))
	buildRows := make([]value.Row, 500)
	for i := range buildRows {
		buildRows[i] = value.Row{value.NewInt(int64(rng.Intn(350))), value.NewInt(int64(i))}
	}
	build := colTableOf(t, "b", buildRows)
	filter := ScanFilter{{Sarg: Sarg{Shape: ShapeCmp, Op: sqlparser.OpLt, Lits: Lits{Values: []value.Value{value.NewInt(120)}}}, col: 5}}
	filter[0].specialise(nil)
	join := func() Operator {
		return NewHashJoin(fullScan(probe, "f"), fullScan(build, "b"), []int{5}, []int{0}, nil, nil)
	}
	long, j, ctx := false, join(), NewContext()
	if err := j.Open(ctx); err != nil {
		t.Fatal(err)
	}
	for b, err := j.Next(ctx); b != nil || err != nil; b, err = j.Next(ctx) {
		if err != nil {
			t.Fatal(err)
		}
		long = long || b.Len > BatchSize
	}
	j.Close()
	if !long {
		t.Fatal("precondition: no join output batch is longer than BatchSize")
	}
	odd := func(r value.Row, _ *Params) (value.Value, error) { return value.NewBool(r[7].I%2 == 1), nil }
	inputs := []struct {
		name   string
		stored bool
		child  func() Operator
	}{
		{"join", false, join},
		{"filtered join", false, func() Operator { return &FilterOp{Child: join(), Pred: odd} }},
		{"filtered scan", true, func() Operator {
			return NewColTableScan(probe, "f", identityCols(6), filter, nil)
		}},
	}
	for _, in := range inputs {
		for _, groupCols := range [][]int{{}, {2}, {5}} {
			for _, dop := range []int{1, 4} {
				cols := []int{0, 1, 2}
				if dop == 1 {
					cols = append(cols, 3, 4)
				}
				aggs := []AggSpec{{Func: sqlparser.AggCount, ArgCol: -1}}
				for _, c := range cols {
					for _, f := range []sqlparser.AggFunc{sqlparser.AggCount, sqlparser.AggSum, sqlparser.AggAvg, sqlparser.AggMin, sqlparser.AggMax} {
						aggs = append(aggs, AggSpec{Func: f, Arg: ColumnEval(c), ArgCol: c})
					}
				}
				for _, partial := range []bool{false, true} {
					label := fmt.Sprintf("fold over the %s, group by %v, DOP %d, partial %v", in.name, groupCols, dop, partial)
					width := len(aggs)
					if partial {
						width *= 2
					}
					agg := func(columnar bool) []value.Row {
						a := &HashAggregate{Child: in.child(), Groups: evalsFor(groupCols), Aggs: aggs,
							Out: make(Schema, len(groupCols)+width), Partial: partial}
						if columnar {
							a.GroupCols = groupCols
							if foldsStoredChunks(t, a, nil) != in.stored {
								t.Fatalf("%s: precondition: folds the scan's chunks as stored %v, want %v", label, !in.stored, in.stored)
							}
						}
						ctx := NewContext()
						ctx.DOP = dop
						rows, err := Drain(a, ctx)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						return rows
					}
					assertRows(t, label, agg(true), agg(false), true)
				}
			}
		}
	}
}

func TestHashAggregateDifferential(t *testing.T) { aggDifferential(t) }

// TestForcedHashCollisions reruns the differentials with every key hash
// forced to one value: all keys share a chain, so only keyEqual separates
// them. Correctness must not rest on the hash function.
func TestForcedHashCollisions(t *testing.T) {
	saved := keyHashMask
	keyHashMask = 0
	defer func() { keyHashMask = saved }()
	if hashRow(value.Row{value.NewInt(1)}) != hashRow(value.Row{value.NewString("x")}) {
		t.Fatal("the mask did not force a collision")
	}
	t.Run("join", joinDifferential)
	t.Run("aggregate", aggDifferential)
	t.Run("grouped fold", groupedFoldDifferential)
}

// ---------------------------------------------------------------- alias

// TestMultiColumnKeyAlias: ("a\x1f\x00sb","c") and ("a","b\x1f\x00sc")
// render the same concatenated Row.Key, so the string-keyed tables joined
// them to each other and folded them into one group. Per-column equality
// keeps them apart.
func TestMultiColumnKeyAlias(t *testing.T) {
	x := value.Row{value.NewString("a\x1f\x00sb"), value.NewString("c")}
	y := value.Row{value.NewString("a"), value.NewString("b\x1f\x00sc")}
	if x.Key([]int{0, 1}) != y.Key([]int{0, 1}) {
		t.Fatal("fixture no longer aliases under Row.Key")
	}
	if rowKeyEqual(x, y) {
		t.Fatal("rowKeyEqual aliases the two keys")
	}

	schema := make(Schema, 3)
	withID := func(r value.Row, id int64) value.Row { return append(r.Clone(), value.NewInt(id)) }

	// join: each probe row must meet only its own build row
	probe := &memOp{schema: schema, rows: []value.Row{withID(x, 1), withID(y, 2)}}
	build := &memOp{schema: schema, rows: []value.Row{withID(y, 20), withID(x, 10)}}
	joined, err := Drain(NewHashJoin(probe, build, []int{0, 1}, []int{0, 1}, nil, nil), NewContext())
	if err != nil {
		t.Fatal(err)
	}
	if len(joined) != 2 || joined[0][2].I != 1 || joined[0][5].I != 10 || joined[1][2].I != 2 || joined[1][5].I != 20 {
		t.Errorf("join of aliasing keys = %v, want (1,10) and (2,20) only", joined)
	}

	// GROUP BY, serial and parallel: two groups, never one. The parallel
	// emit order falls back to per-column renderings on the aliased key, so
	// it is the same on every run: "a" sorts before "a\x1f...".
	n := 2*colstore.ChunkSize + 10
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = withID(x, int64(i))
		if i%3 == 0 {
			rows[i] = withID(y, int64(i))
		}
	}
	tbl := colTableOf(t, "g", rows)
	wantY := int64((n + 2) / 3)
	for _, dop := range []int{1, 4} {
		ctx := NewContext()
		ctx.DOP = dop
		got, err := Drain(&HashAggregate{Child: fullScan(tbl, "g"), Groups: evalsFor([]int{0, 1}),
			Aggs: []AggSpec{{Func: sqlparser.AggCount, ArgCol: -1}}, Out: make(Schema, 3)}, ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 {
			t.Fatalf("DOP %d: GROUP BY of aliasing keys made %d groups, want 2: %v", dop, len(got), got)
		}
		first, second := y, x // y occupies row 0, and sorts first too
		if !rowKeyEqual(got[0][:2], first) || !rowKeyEqual(got[1][:2], second) ||
			got[0][2].I != wantY || got[1][2].I != int64(n)-wantY {
			t.Errorf("DOP %d: groups = %v, want %v×%d then %v×%d", dop, got, first, wantY, second, int64(n)-wantY)
		}
	}
}

// ---------------------------------------------------------------- lifetime

// TestHashJoinReleasesTableAtClose: pooled Runner trees outlive a query, so
// a closed join must not keep its build keys, kept columns or index arrays
// — the offset array included — reachable, in any form of the table.
func TestHashJoinReleasesTableAtClose(t *testing.T) {
	for _, c := range []struct {
		form  string
		key   value.Value // probed once, and held by the first two build rows
		third value.Value // the third build row's key
	}{
		{formDirect, value.NewInt(1), value.NewInt(3)},
		{formChained, value.NewInt(1), value.NewInt(1 << 40)},
		{formGeneric, value.NewString("1"), value.NewInt(3)},
	} {
		left := &memOp{schema: Schema{intCol("l", "k")}, rows: []value.Row{{c.key}, {value.NewInt(2)}}}
		right := &memOp{schema: Schema{intCol("r", "k")}, rows: []value.Row{{c.key}, {c.key}, {c.third}}}
		hj := NewHashJoin(left, right, []int{0}, []int{0}, nil, nil)
		ctx := NewContext()
		if err := hj.Open(ctx); err != nil {
			t.Fatal(err)
		}
		if got := tableForm(&hj.table); got != c.form {
			t.Fatalf("%s: table built in %s form", c.form, got)
		}
		var rows []value.Row
		for b, err := hj.Next(ctx); b != nil || err != nil; b, err = hj.Next(ctx) {
			if err != nil {
				t.Fatal(err)
			}
			rows = b.AppendRows(rows)
		}
		if err := hj.Close(); err != nil || len(rows) != 2 {
			t.Fatalf("%s: join = %v, err %v", c.form, rows, err)
		}
		tb := &hj.table
		if tb.ints != nil || tb.keys != nil || tb.hashes != nil || tb.cols.batch.Cols != nil ||
			tb.index.hashes != nil || tb.index.next != nil || tb.index.buckets != nil || tb.index.direct != nil {
			t.Errorf("%s: closed join still holds its table: %+v", c.form, *tb)
		}
	}
}
