package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"htapxplain/internal/catalog"
	"htapxplain/internal/colstore"
	"htapxplain/internal/repl"
	"htapxplain/internal/sqlparser"
	"htapxplain/internal/value"
)

// encodedValues draws n values of one of five shapes: small ints, wide
// ints, floats with NaN, -0 and ints among them, strings, or a mix of
// ints, strings and NULLs. Half the inputs repeat values in runs, so every
// encoding wins some chunk under the automatic policy.
func encodedValues(rng *rand.Rand, shape, ndist, n int) []value.Value {
	draw := func() value.Value {
		x := int64(rng.Intn(ndist))
		switch shape {
		case 0:
			return value.NewInt(x - int64(ndist)/2)
		case 1:
			return value.NewInt(x*(1<<40) + rng.Int63n(1<<20) - 1<<50)
		case 2:
			switch rng.Intn(8) {
			case 0:
				return value.NewFloat(math.NaN())
			case 1:
				return value.NewFloat(math.Copysign(0, -1))
			case 2:
				return value.NewInt(x)
			}
			return value.NewFloat(float64(x)/4 - 3)
		case 3:
			return value.NewString(fmt.Sprintf("s%d_%c", x, 'a'+rune(x%3)))
		}
		switch rng.Intn(4) {
		case 0:
			return value.Null
		case 1:
			return value.NewString(fmt.Sprint(x))
		}
		return value.NewInt(x)
	}
	runs := rng.Intn(2) == 0
	vals := make([]value.Value, n)
	for i := range vals {
		if runs && i > 0 && rng.Intn(8) != 0 {
			vals[i] = vals[i-1]
			continue
		}
		vals[i] = draw()
	}
	return vals
}

// encodedLiterals is a kernel's literal pool over vals: some of its
// values, their neighbours, NULL, NaN, ±0, the int64 extremes, strings
// (k > 'a' compares across kinds) and a bool.
func encodedLiterals(rng *rand.Rand, vals []value.Value) []value.Value {
	lits := []value.Value{value.Null, value.NewFloat(math.NaN()), value.NewFloat(math.Copysign(0, -1)),
		value.NewInt(0), value.NewInt(math.MinInt64), value.NewInt(math.MaxInt64), value.NewFloat(math.Inf(1)),
		value.NewString("a"), value.NewString(""), value.NewString("12"), value.NewBool(true)}
	for i := 0; i < 6; i++ {
		v := vals[rng.Intn(len(vals))]
		lits = append(lits, v)
		switch v.K {
		case value.KindInt:
			lits = append(lits, value.NewInt(v.I+1), value.NewInt(v.I-1), value.NewFloat(float64(v.I)+0.5))
		case value.KindFloat:
			lits = append(lits, value.NewFloat(v.Float()+0.125), value.NewInt(int64(v.Float())))
		case value.KindString:
			lits = append(lits, value.NewString(v.S+"\x00"))
		}
	}
	return lits
}

// encodedKernel draws a column kernel on column col of one of the four
// Sarg shapes, its literals from lits and its LIKE patterns cut from the
// rendering of a value of vals.
func encodedKernel(rng *rand.Rand, col int, vals, lits []value.Value) selKernel {
	lit := func() value.Value { return lits[rng.Intn(len(lits))] }
	k := selKernel{col: col}
	switch rng.Intn(4) {
	case 0:
		ops := []sqlparser.BinOp{sqlparser.OpEq, sqlparser.OpNe, sqlparser.OpLt, sqlparser.OpLe, sqlparser.OpGt, sqlparser.OpGe}
		k.Shape, k.Op = ShapeCmp, ops[rng.Intn(len(ops))]
		k.Lits.Values = []value.Value{lit()}
	case 1:
		k.Shape = ShapeBetween
		k.Lits.Values = []value.Value{lit(), lit()}
	case 2:
		k.Shape, k.Not = ShapeIn, rng.Intn(2) == 0
		for i := 0; i <= rng.Intn(4); i++ {
			k.Lits.Values = append(k.Lits.Values, lit())
		}
	default:
		s := vals[rng.Intn(len(vals))].String()
		cut := rng.Intn(len(s) + 1)
		pats := []string{s[:cut] + "%", "%" + s[cut:], "%" + s[cut/2:cut] + "%", "%", "", s,
			"_" + s[min(1, len(s)):]}
		k.Shape = ShapeLike
		k.Lits.Values = []value.Value{value.NewString(pats[rng.Intn(len(pats))])}
	}
	k.specialise(nil)
	return k
}

// encodedTable loads t(c0, id) — c0 the fuzzed values, id the row number —
// under policy, then deletes every dead-th base row (none at 0) and
// appends a few delta rows.
func encodedTable(t *testing.T, policy colstore.EncodingPolicy, vals []value.Value, dead int) *colstore.Table {
	t.Helper()
	rows := make([]value.Row, len(vals))
	for i, v := range vals {
		rows[i] = value.Row{v, value.NewInt(int64(i))}
	}
	cat := catalog.New(1)
	if err := cat.AddTable(&catalog.Table{Name: "t", Rows: int64(len(rows)), AvgRowBytes: 16,
		Columns: []catalog.Column{{Name: "c0", Type: catalog.TypeInt}, {Name: "id", Type: catalog.TypeInt}}}); err != nil {
		t.Fatal(err)
	}
	store, err := colstore.NewStore(cat, map[string][]value.Row{"t": rows}, colstore.WithEncoding(policy))
	if err != nil {
		t.Fatal(err)
	}
	mut := &repl.Mutation{LSN: 1, Table: "t"}
	for rid := 0; dead > 0 && rid < len(rows); rid += dead {
		mut.Deletes = append(mut.Deletes, int64(rid))
	}
	for i := 0; i < 5; i++ {
		id := len(rows) + i
		mut.Inserts = append(mut.Inserts, repl.RowVersion{RID: int64(id), Row: value.Row{vals[i%len(vals)], value.NewInt(int64(id))}})
	}
	if err := store.Apply(mut); err != nil {
		t.Fatal(err)
	}
	tbl, _ := store.Table("t")
	return tbl
}

// FuzzEncodedSelection is the encoded kernels' differential. Over a chunk
// built under every encoding policy and column kernels of all four Sarg
// shapes — NULL, NaN and -0 literals, mixed kinds, LIKE over ints — the
// encoded-domain narrowing (narrowChunk) keeps exactly the candidates keep
// keeps over the decoded values, with no candidate list and with one that
// shares the output's storage. A scan that reads the column only for its
// predicate, over deleted base rows and delta rows, emits exactly the ids of
// the rows keep keeps.
func FuzzEncodedSelection(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(7), uint16(1024), uint8(0))
	f.Add(int64(2), uint8(1), uint8(3), uint16(700), uint8(13))
	f.Add(int64(3), uint8(2), uint8(40), uint16(300), uint8(2))
	f.Add(int64(4), uint8(3), uint8(200), uint16(1024), uint8(7))
	f.Add(int64(5), uint8(4), uint8(9), uint16(64), uint8(1))
	f.Add(int64(6), uint8(3), uint8(2), uint16(1), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, shapeRaw, distRaw uint8, nRaw uint16, deadRaw uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%colstore.ChunkSize
		vals := encodedValues(rng, int(shapeRaw%5), 1+int(distRaw), n)
		lits := encodedLiterals(rng, vals)
		for _, policy := range colstore.AllPolicies {
			tbl := encodedTable(t, policy, vals, int(deadRaw%16))
			ch := tbl.Column(0).Chunk(0)
			decoded := ch.Decode(nil)
			for q := 0; q < 24; q++ {
				k := encodedKernel(rng, 0, vals, lits)
				label := fmt.Sprintf("%v chunk (%v) %v", ch.Enc, policy, k.Sarg)
				var cand []int32
				if q%2 == 1 {
					keepOne := rng.Intn(4) + 1
					for i := 0; i < n; i++ {
						if rng.Intn(keepOne) == 0 {
							cand = append(cand, int32(i))
						}
					}
				}
				var want []int32
				for i := 0; i < n; i++ {
					if (cand == nil || slices.Contains(cand, int32(i))) && k.keep(&decoded[i]) {
						want = append(want, int32(i))
					}
				}
				var keep []bool
				got, all, ok := k.narrowChunk(ch, nil, nil, &keep)
				if cand != nil {
					// the scan narrows in place: the output shares the list's storage
					buf := append(make([]int32, 0, len(cand)+3), cand...)
					got, all, ok = k.narrowChunk(ch, buf, buf[:0], &keep)
				}
				if !ok {
					continue // the scan tests decoded values (checked below)
				}
				if all {
					got = cand
					if got == nil {
						got = make([]int32, n)
						for i := range got {
							got[i] = int32(i)
						}
					}
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s over %d candidates: narrowChunk = %v (all %v), keep selects %v", label, len(cand), got, all, want)
				}
			}

			// the scan: c0 read for the predicate only, id emitted
			base := tbl.View()
			for q := 0; q < 8; q++ {
				k := encodedKernel(rng, 1, vals, lits)
				scan := NewColTableScan(tbl, "t", []int{1, 0}, ScanFilter{k}, nil)
				scan.Emit = 1
				rows, err := Drain(scan, NewContext())
				if err != nil {
					t.Fatal(err)
				}
				var want []value.Row
				for i := 0; i < n; i++ {
					if !base.BaseDead.Has(i) && k.keep(&vals[i]) {
						want = append(want, value.Row{value.NewInt(int64(i))})
					}
				}
				for _, r := range base.Delta {
					if k.keep(&r[0]) {
						want = append(want, value.Row{r[1]})
					}
				}
				assertRows(t, fmt.Sprintf("scan (%v) %v", policy, k.Sarg), rows, want, true)
			}
		}
	})
}
