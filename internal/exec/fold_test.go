package exec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"htapxplain/internal/catalog"
	"htapxplain/internal/colstore"
	"htapxplain/internal/repl"
	"htapxplain/internal/sqlparser"
	"htapxplain/internal/value"
)

// foldTable loads foldRows plus a group column g (c6: a few strings, never
// NULL, so a dictionary can hold it) under policy, then replicates one
// mutation that deletes every fifth row of the second chunk — of every
// chunk, with everyChunk — and inserts 300 delta rows: the chunks fold as
// stored under the scan's selection, deleted rows dropped from it, and the
// delta as decoded windows.
func foldTable(t testing.TB, policy colstore.EncodingPolicy, everyChunk bool) *colstore.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	const n = 3*colstore.ChunkSize + 77
	rows := foldRows(rng, n+300)
	for i := range rows {
		rows[i] = append(rows[i], value.NewString(fmt.Sprintf("g%d", rng.Intn(9))))
	}
	cols := make([]catalog.Column, len(rows[0]))
	for i := range cols {
		cols[i] = catalog.Column{Name: fmt.Sprintf("c%d", i), Type: catalog.TypeInt}
	}
	cat := catalog.New(1)
	if err := cat.AddTable(&catalog.Table{Name: "f", Columns: cols, Rows: n, AvgRowBytes: 56}); err != nil {
		t.Fatal(err)
	}
	store, err := colstore.NewStore(cat, map[string][]value.Row{"f": rows[:n]}, colstore.WithEncoding(policy))
	if err != nil {
		t.Fatal(err)
	}
	mut := &repl.Mutation{LSN: 1, Table: "f"}
	first, last := int64(colstore.ChunkSize), int64(2*colstore.ChunkSize)
	if everyChunk {
		first, last = 3, n
	}
	for rid := first; rid < last; rid += 5 {
		mut.Deletes = append(mut.Deletes, rid)
	}
	for i, r := range rows[n:] {
		mut.Inserts = append(mut.Inserts, repl.RowVersion{RID: int64(n + i), Row: r})
	}
	if err := store.Apply(mut); err != nil {
		t.Fatal(err)
	}
	tbl, _ := store.Table("f")
	v := tbl.View()
	for c := 0; c < 4; c++ {
		if want := everyChunk || c == 1; (v.BaseDead.Chunk(c) != nil) != want {
			t.Fatalf("%v: precondition: deletes in chunk %d %v, want %v", policy, c, !want, want)
		}
	}
	if len(v.Delta) != 300 {
		t.Fatalf("%v: precondition: %d delta rows, want 300", policy, len(v.Delta))
	}
	if policy == colstore.PolicyAuto && v.Cols[6].Chunk(0).Enc != colstore.EncDict {
		t.Fatalf("precondition: the group column is %v, not dictionary-encoded", v.Cols[6].Chunk(0).Enc)
	}
	return tbl
}

// foldsStoredChunks reports whether a, opened serially under p, asks its
// child scan for its base chunks as stored.
func foldsStoredChunks(t *testing.T, a *HashAggregate, p *Params) bool {
	t.Helper()
	c := a.Clone().(*HashAggregate)
	ctx := NewContext()
	ctx.Params = p
	if err := c.Open(ctx); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, ok := c.Child.(*ColTableScan)
	return ok && s.fold != nil
}

// groupedFoldDifferential: an aggregate over bare columns that folds its
// scan's chunks as stored — global, or grouped with per-row states
// resolved by dictionary code or by hash, then one typed kernel per slot —
// returns the evaluator path's rows byte for byte, under every encoding
// policy, over tables with deleted base rows (in one chunk, and in every
// chunk) and delta rows, final and Partial. The scans select every row;
// through an exact pruner; through an inexact pruner and a residual
// kernel; through a row kernel (LIKE and SUBSTRING … IN); and through a
// one-key IN pruner that the bound vector's three keys drop. The
// arguments are ints, quarters, strings, cross-kind MIN/MAX ties and
// tenths (sums that depend on order), each NULL now and then, and the
// dictionary group column itself, which the fold must then decode. At
// DOP 1 both paths fold one row order, so every column compares exactly;
// at DOP 4 the merge order of the workers' states varies from run to run,
// so the order-dependent ties and tenths run at DOP 1 only.
func groupedFoldDifferential(t *testing.T) {
	hi, lo := value.NewInt(200), value.NewInt(0)
	lt200 := selKernel{Sarg: Sarg{Shape: ShapeCmp, Op: sqlparser.OpLt, Lits: Lits{Values: []value.Value{hi}}}, col: 5}
	gt0 := selKernel{Sarg: Sarg{Shape: ShapeCmp, Op: sqlparser.OpGt, Lits: Lits{Values: []value.Value{lo}}}, col: 0}
	in := selKernel{Sarg: Sarg{Shape: ShapeIn, Lits: Lits{Values: []value.Value{value.NewInt(7)}, List: 1}}, col: 5}
	filter, residual, inList := ScanFilter{lt200}, ScanFilter{lt200, gt0}, ScanFilter{in}
	for _, f := range []ScanFilter{filter, residual, inList} {
		for i := range f {
			f[i].specialise(nil)
		}
	}
	exact := &colstore.RangePruner{Col: 5, Hi: &hi, HiStrict: true, Exact: true}
	inexact := &colstore.RangePruner{Col: 5, Hi: &hi, HiStrict: true}
	seven := value.NewInt(7)
	onKey := &colstore.RangePruner{Col: 5, Lo: &seven, Hi: &seven, Exact: true}
	threeKeys := &Params{vals: []value.Value{value.NewInt(7), value.NewInt(42), value.NewInt(199)}, ends: []int32{3}}
	for _, policy := range colstore.AllPolicies {
		for _, everyChunk := range []bool{false, true} {
			tbl := foldTable(t, policy, everyChunk)
			sch := NewColTableScan(tbl, "f", identityCols(7), nil, nil).Schema()
			sel, err := sqlparser.Parse("SELECT * FROM f WHERE c2 LIKE 's1%' AND SUBSTRING(c2, 3, 1) IN ('1', '3', '4')")
			if err != nil {
				t.Fatal(err)
			}
			rowKernel, err := CompileScanFilter(sqlparser.Conjuncts(sel.Where), sch)
			if err != nil || rowKernel[0].row == nil {
				t.Fatalf("precondition: the predicate compiles to %v, %v, not a row kernel", rowKernel, err)
			}
			scans := []struct {
				name   string
				params *Params
				scan   func() *ColTableScan
			}{
				{"all rows", nil, func() *ColTableScan { return fullScan(tbl, "f") }},
				{"c5 < 200", nil, func() *ColTableScan { return NewColTableScan(tbl, "f", identityCols(7), filter, exact) }},
				{"c5 < 200 AND c0 > 0", nil, func() *ColTableScan {
					s := NewColTableScan(tbl, "f", identityCols(7), residual, inexact)
					s.PrunerKernels = 1
					return s
				}},
				{"row kernel", nil, func() *ColTableScan { return NewColTableScan(tbl, "f", identityCols(7), rowKernel, nil) }},
				{"c5 IN (7, 42, 199)", threeKeys, func() *ColTableScan {
					s := NewColTableScan(tbl, "f", identityCols(7), inList, onKey)
					s.PrunerSlots, s.PrunerKernels = [2]int{1, 1}, 1
					return s
				}},
			}
			for _, sc := range scans {
				for _, groupCols := range [][]int{{6}, {5}, {}} {
					for _, dop := range []int{1, 4} {
						cols := []int{0, 1, 2, 6} // c6: an argument reading the group column
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
							label := fmt.Sprintf("%v, deletes in every chunk %v, %s, group by %v, DOP %d, partial %v",
								policy, everyChunk, sc.name, groupCols, dop, partial)
							width := len(aggs)
							if partial {
								width *= 2
							}
							agg := func(stored bool) []value.Row {
								a := &HashAggregate{Child: sc.scan(), Groups: evalsFor(groupCols), Aggs: aggs,
									Out: make(Schema, len(groupCols)+width), Partial: partial}
								if stored {
									a.GroupCols = groupCols
									if !foldsStoredChunks(t, a, sc.params) {
										t.Fatalf("%s: precondition: the aggregate does not fold its scan's chunks as stored", label)
									}
								}
								ctx := NewContext()
								ctx.DOP, ctx.Params = dop, sc.params
								rows, err := Drain(a, ctx)
								if err != nil {
									t.Fatalf("%s: %v", label, err)
								}
								if dop > 1 && ctx.Stats.ParallelWorkers == 0 {
									t.Fatalf("%s: the aggregate did not fork", label)
								}
								return rows
							}
							want := agg(false)
							if len(want) == 0 {
								t.Fatalf("%s: precondition: the scan selects nothing", label)
							}
							assertRows(t, label, agg(true), want, true)
						}
					}
				}
			}
		}
	}
}

func TestGroupedFoldDifferential(t *testing.T) { groupedFoldDifferential(t) }

// FuzzFoldKernels holds the typed fold kernels to accumulateArg: a column
// of Int, Float (NaN and -0.0 among them), String, Bool and NULL values
// built from the fuzz bytes, a selection over it and a group code per row
// fold into one state (foldSlot), into per-group states (foldSlotGroups)
// and as runs (foldRepeat), and every slot's count, sum (bit for bit), min,
// max and seen flag equals a per-value accumulateArg fold of the same
// values in the same order.
func FuzzFoldKernels(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, uint8(3), uint8(0xa5))
	f.Add([]byte("\x01\x00\x00\x00\x00\x00\x00\xf0\x7f\x02\x80\x00\x00\x00\x00\x00\x00\x00\x03ab\x04\x01"), uint8(2), uint8(0xff))
	f.Add([]byte{2, 0x3f, 0xb9, 0x99, 0x99, 0x99, 0x99, 0x99, 0x9a, 2, 0x3f, 0xc9, 0x99, 0x99, 0x99, 0x99, 0x99, 0x9a}, uint8(3), uint8(0x0f))
	f.Add(bytes.Repeat([]byte{2, 0x3f, 0xb9, 0x99, 0x99, 0x99, 0x99, 0x99, 0x9a}, 24), uint8(0), uint8(0xff)) // 0.1, 24 times
	funcs := []sqlparser.AggFunc{sqlparser.AggCount, sqlparser.AggSum, sqlparser.AggAvg, sqlparser.AggMin, sqlparser.AggMax}
	f.Fuzz(func(t *testing.T, data []byte, groups, mask uint8) {
		col := fuzzColumn(data)
		if len(col) > BatchSize {
			col = col[:BatchSize]
		}
		ngroups := int(groups%4) + 1
		var sel []int32
		for i := range col {
			if mask>>(i%8)&1 != 0 {
				sel = append(sel, int32(i))
			}
		}
		aggs := make([]AggSpec, len(funcs))
		for i, fn := range funcs {
			aggs[i] = AggSpec{Func: fn, ArgCol: 0}
		}
		a := &HashAggregate{Aggs: aggs}
		fresh := func() []*aggState {
			sts := make([]*aggState, ngroups)
			for g := range sts {
				sts[g] = a.newState(nil)
			}
			return sts
		}
		groupOf := func(p int32) int { return (int(p)*int(groups|1) + int(p)/3) % ngroups }

		// per-group states over the selection, by int32 ordinals (a hashed
		// group column) and by uint16 codes (a dictionary chunk's)
		ords, codes := make([]int32, len(col)), make([]uint16, len(col))
		for p := range col {
			ords[p] = int32(groupOf(int32(p)))
			codes[p] = uint16(ords[p])
		}
		ref, got, byCode := fresh(), fresh(), fresh()
		for i := range aggs {
			for _, p := range sel {
				accumulateArg(ref[groupOf(p)], i, col[p])
			}
			foldSlotGroups(got, ords, i, col, sel)
			foldSlotGroups(byCode, codes, i, col, sel)
		}
		compareStates(t, "foldSlotGroups by ordinal", got, ref)
		compareStates(t, "foldSlotGroups by code", byCode, ref)

		// one state, over the selection and over every row
		for _, s := range [][]int32{sel, allRows[:len(col)]} {
			ref, got := fresh()[:1], fresh()[:1]
			for i := range aggs {
				for _, p := range s {
					accumulateArg(ref[0], i, col[p])
				}
				foldSlot(got[0], i, col, s)
			}
			compareStates(t, "foldSlot", got, ref)
		}

		// runs: each value repeated 1, 4, 7 or 10 times, by its group
		ref, got = fresh()[:1], fresh()[:1]
		for i := range aggs {
			for p, v := range col {
				k := 3*groupOf(int32(p)) + 1
				for j := 0; j < k; j++ {
					accumulateArg(ref[0], i, v)
				}
				foldRepeat(got[0], i, v, k)
			}
		}
		compareStates(t, "foldRepeat", got, ref)
	})
}

// fuzzColumn decodes a value column: a kind byte, then the kind's payload
// (eight bytes for an Int or a Float's bits, a length byte and bytes for a
// String, one byte for a Bool, nothing for a NULL).
func fuzzColumn(data []byte) []value.Value {
	var col []value.Value
	for len(data) > 0 {
		kind := data[0] % 5
		data = data[1:]
		switch kind {
		case 0:
			col = append(col, value.Null)
		case 1, 2:
			var buf [8]byte
			data = data[copy(buf[:], data):]
			bits := binary.BigEndian.Uint64(buf[:])
			if kind == 1 {
				col = append(col, value.NewInt(int64(bits)))
			} else {
				col = append(col, value.NewFloat(math.Float64frombits(bits)))
			}
		case 3:
			n := 0
			if len(data) > 0 {
				n, data = int(data[0]%8), data[1:]
			}
			n = min(n, len(data))
			col = append(col, value.NewString(string(data[:n])))
			data = data[n:]
		case 4:
			b := len(data) > 0 && data[0]&1 != 0
			if len(data) > 0 {
				data = data[1:]
			}
			col = append(col, value.NewBool(b))
		}
	}
	return col
}

// compareStates fails unless every state's slots hold the reference's
// counts, sum bits, extremes (kind and payload) and seen flags.
func compareStates(t *testing.T, kernel string, got, ref []*aggState) {
	t.Helper()
	same := func(x, y value.Value) bool { return x.K == y.K && x.I == y.I && x.S == y.S }
	for g := range got {
		for i := range got[g].counts {
			a, b := got[g], ref[g]
			if a.counts[i] != b.counts[i] || math.Float64bits(a.sums[i]) != math.Float64bits(b.sums[i]) ||
				a.seen[i] != b.seen[i] || !same(a.mins[i], b.mins[i]) || !same(a.maxs[i], b.maxs[i]) {
				t.Fatalf("%s: group %d slot %d: count %d sum %v min %v max %v seen %v, accumulateArg gives %d %v %v %v %v",
					kernel, g, i, a.counts[i], a.sums[i], a.mins[i], a.maxs[i], a.seen[i],
					b.counts[i], b.sums[i], b.mins[i], b.maxs[i], b.seen[i])
			}
		}
	}
}
