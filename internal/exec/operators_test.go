package exec

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"htapxplain/internal/catalog"
	"htapxplain/internal/sqlparser"
	"htapxplain/internal/value"
)

// memOp is an in-memory test operator emitting its rows as batches.
type memOp struct {
	schema Schema
	rows   []value.Row
	em     rowEmitter
}

func (m *memOp) Schema() Schema       { return m.schema }
func (m *memOp) Clone() BatchOperator { return &memOp{schema: m.schema, rows: m.rows} }
func (m *memOp) Open(*Context) error {
	m.em.reset(m.rows, len(m.schema))
	return nil
}
func (m *memOp) Next(ctx *Context) (*Batch, error) { return m.em.next(ctx), nil }
func (m *memOp) Close() error                      { return nil }

func intCol(binding, name string) Col {
	return Col{Binding: binding, Name: name, Type: catalog.TypeInt}
}

func rowsOf(vals ...[]int64) []value.Row {
	out := make([]value.Row, len(vals))
	for i, vs := range vals {
		r := make(value.Row, len(vs))
		for j, v := range vs {
			r[j] = value.NewInt(v)
		}
		out[i] = r
	}
	return out
}

func TestFilterOp(t *testing.T) {
	child := &memOp{schema: Schema{intCol("t", "a")}, rows: rowsOf([]int64{1}, []int64{2}, []int64{3})}
	ev, err := Compile(&sqlparser.BinaryExpr{
		Op:   sqlparser.OpGt,
		Left: &sqlparser.ColumnRef{Table: "t", Column: "a"}, Right: &sqlparser.IntLit{V: 1},
	}, child.schema)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Drain(&FilterOp{Child: child, Pred: ev}, NewContext())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("filter kept %d rows", len(out))
	}
}

func TestProjectOp(t *testing.T) {
	child := &memOp{schema: Schema{intCol("t", "a"), intCol("t", "b")},
		rows: rowsOf([]int64{1, 10}, []int64{2, 20})}
	ev, _ := Compile(&sqlparser.BinaryExpr{
		Op:   sqlparser.OpAdd,
		Left: &sqlparser.ColumnRef{Column: "a"}, Right: &sqlparser.ColumnRef{Column: "b"},
	}, child.schema)
	p := &ProjectOp{Child: child, Evals: []Evaluator{ev}, Out: Schema{intCol("", "sum")}}
	out, err := Drain(p, NewContext())
	if err != nil {
		t.Fatal(err)
	}
	if out[0][0].I != 11 || out[1][0].I != 22 {
		t.Errorf("projection = %v", out)
	}
}

// joinEquiPred builds `l.k = r.k` over the concat schema.
func joinEquiPred(t *testing.T, concat Schema) Evaluator {
	t.Helper()
	ev, err := Compile(&sqlparser.BinaryExpr{
		Op:   sqlparser.OpEq,
		Left: &sqlparser.ColumnRef{Table: "l", Column: "k"}, Right: &sqlparser.ColumnRef{Table: "r", Column: "k"},
	}, concat)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// TestHashJoinEqualsNestedLoopProperty: on random inputs, hash join and
// nested-loop join must produce identical multisets.
func TestHashJoinEqualsNestedLoopProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func(bind string, n int) *memOp {
			rows := make([]value.Row, n)
			for i := range rows {
				rows[i] = value.Row{value.NewInt(int64(rng.Intn(6))), value.NewInt(int64(rng.Intn(100)))}
			}
			return &memOp{schema: Schema{intCol(bind, "k"), intCol(bind, "v")}, rows: rows}
		}
		left, right := mk("l", rng.Intn(25)), mk("r", rng.Intn(25))
		concat := left.Schema().Concat(right.Schema())
		pred := joinEquiPred(t, concat)

		nlj := NewNestedLoopJoin(left, right, pred)
		nljOut, err := Drain(nlj, NewContext())
		if err != nil {
			return false
		}
		hj := NewHashJoin(left, right, []int{0}, []int{0}, nil, nil)
		hjOut, err := Drain(hj, NewContext())
		if err != nil {
			return false
		}
		return sameMultiset(nljOut, hjOut)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func sameMultiset(a, b []value.Row) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(r value.Row) string {
		cols := make([]int, len(r))
		for i := range cols {
			cols[i] = i
		}
		return r.Key(cols)
	}
	counts := map[string]int{}
	for _, r := range a {
		counts[key(r)]++
	}
	for _, r := range b {
		counts[key(r)]--
	}
	for _, c := range counts {
		if c != 0 {
			return false
		}
	}
	return true
}

func TestHashJoinResidualPredicate(t *testing.T) {
	left := &memOp{schema: Schema{intCol("l", "k"), intCol("l", "v")},
		rows: rowsOf([]int64{1, 10}, []int64{1, 20})}
	right := &memOp{schema: Schema{intCol("r", "k"), intCol("r", "w")},
		rows: rowsOf([]int64{1, 5})}
	concat := left.Schema().Concat(right.Schema())
	residual, err := Compile(&sqlparser.BinaryExpr{
		Op:   sqlparser.OpGt,
		Left: &sqlparser.ColumnRef{Table: "l", Column: "v"}, Right: &sqlparser.IntLit{V: 15},
	}, concat)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Drain(NewHashJoin(left, right, []int{0}, []int{0}, residual, nil), NewContext())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0][1].I != 20 {
		t.Errorf("residual join = %v", out)
	}
}

// TestTopNEqualsSortLimitProperty: TopN must equal full-sort + offset/limit.
func TestTopNEqualsSortLimitProperty(t *testing.T) {
	prop := func(seed int64, nRaw, offRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := make([]value.Row, rng.Intn(60))
		for i := range rows {
			rows[i] = value.Row{value.NewInt(int64(rng.Intn(30))), value.NewInt(int64(i))}
		}
		child := func() *memOp {
			return &memOp{schema: Schema{intCol("t", "a"), intCol("t", "id")}, rows: rows}
		}
		keyEval, err := Compile(&sqlparser.ColumnRef{Table: "t", Column: "a"}, child().Schema())
		if err != nil {
			return false
		}
		keys := []SortKey{{Eval: keyEval, Desc: seed%2 == 0}}
		n, off := int64(nRaw%12), int64(offRaw%8)

		topOut, err := Drain(&TopNOp{Child: child(), Keys: keys, N: n, Offset: off}, NewContext())
		if err != nil {
			return false
		}
		sorted, err := Drain(&SortOp{Child: child(), Keys: keys}, NewContext())
		if err != nil {
			return false
		}
		limited, err := Drain(&LimitOp{Child: &memOp{schema: child().Schema(), rows: sorted}, N: n, Offset: off}, NewContext())
		if err != nil {
			return false
		}
		// compare only the sort keys (ties may reorder payloads)
		if len(topOut) != len(limited) {
			return false
		}
		for i := range topOut {
			if topOut[i][0].I != limited[i][0].I {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestSortStability(t *testing.T) {
	child := &memOp{schema: Schema{intCol("t", "a"), intCol("t", "id")},
		rows: rowsOf([]int64{1, 0}, []int64{1, 1}, []int64{0, 2}, []int64{1, 3})}
	keyEval, _ := Compile(&sqlparser.ColumnRef{Column: "a"}, child.schema)
	out, err := Drain(&SortOp{Child: child, Keys: []SortKey{{Eval: keyEval}}}, NewContext())
	if err != nil {
		t.Fatal(err)
	}
	// ties must preserve input order (ids 0,1,3)
	if out[1][1].I != 0 || out[2][1].I != 1 || out[3][1].I != 3 {
		t.Errorf("sort not stable: %v", out)
	}
}

func TestLimitOffsetEdges(t *testing.T) {
	mk := func() *memOp {
		return &memOp{schema: Schema{intCol("t", "a")}, rows: rowsOf([]int64{1}, []int64{2}, []int64{3})}
	}
	out, _ := Drain(&LimitOp{Child: mk(), N: 2, Offset: 0}, NewContext())
	if len(out) != 2 {
		t.Errorf("limit 2 = %d rows", len(out))
	}
	out, _ = Drain(&LimitOp{Child: mk(), N: 10, Offset: 2}, NewContext())
	if len(out) != 1 {
		t.Errorf("offset 2 = %d rows", len(out))
	}
	out, _ = Drain(&LimitOp{Child: mk(), N: 1, Offset: 99}, NewContext())
	if len(out) != 0 {
		t.Errorf("offset past end = %d rows", len(out))
	}
	out, _ = Drain(&LimitOp{Child: mk(), N: -1, Offset: 1}, NewContext())
	if len(out) != 2 {
		t.Errorf("offset without limit = %d rows", len(out))
	}
}

// TestAggregatesMatchManualComputationProperty validates COUNT/SUM/MIN/MAX
// against direct computation over random groups.
func TestAggregatesMatchManualComputationProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(80)
		rows := make([]value.Row, n)
		for i := range rows {
			rows[i] = value.Row{value.NewInt(int64(rng.Intn(4))), value.NewInt(int64(rng.Intn(100)))}
		}
		child := &memOp{schema: Schema{intCol("t", "g"), intCol("t", "v")}, rows: rows}
		gEval, _ := Compile(&sqlparser.ColumnRef{Column: "g"}, child.schema)
		vEval, _ := Compile(&sqlparser.ColumnRef{Column: "v"}, child.schema)
		agg := &HashAggregate{
			Child:  child,
			Groups: []Evaluator{gEval},
			Aggs: []AggSpec{
				{Func: sqlparser.AggCount},
				{Func: sqlparser.AggSum, Arg: vEval},
				{Func: sqlparser.AggMin, Arg: vEval},
				{Func: sqlparser.AggMax, Arg: vEval},
			},
			Out: Schema{intCol("t", "g"), intCol("", "count"), intCol("", "sum"), intCol("", "min"), intCol("", "max")},
		}
		out, err := Drain(agg, NewContext())
		if err != nil {
			return false
		}
		type stats struct {
			count    int64
			sum      float64
			min, max int64
			seen     bool
		}
		want := map[int64]*stats{}
		for _, r := range rows {
			g := r[0].I
			st, ok := want[g]
			if !ok {
				st = &stats{min: 1 << 62, max: -(1 << 62)}
				want[g] = st
			}
			st.count++
			st.sum += float64(r[1].I)
			if r[1].I < st.min {
				st.min = r[1].I
			}
			if r[1].I > st.max {
				st.max = r[1].I
			}
			st.seen = true
		}
		if len(out) != len(want) {
			return false
		}
		for _, r := range out {
			st := want[r[0].I]
			if st == nil || r[1].I != st.count || r[2].Float() != st.sum ||
				r[3].I != st.min || r[4].I != st.max {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestGlobalAggregateOverEmptyInput(t *testing.T) {
	child := &memOp{schema: Schema{intCol("t", "v")}}
	vEval, _ := Compile(&sqlparser.ColumnRef{Column: "v"}, child.schema)
	agg := &HashAggregate{
		Child: child,
		Aggs: []AggSpec{
			{Func: sqlparser.AggCount},
			{Func: sqlparser.AggSum, Arg: vEval},
			{Func: sqlparser.AggAvg, Arg: vEval},
			{Func: sqlparser.AggMin, Arg: vEval},
		},
		Out: Schema{intCol("", "c"), intCol("", "s"), intCol("", "a"), intCol("", "m")},
	}
	out, err := Drain(agg, NewContext())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("global aggregate over empty input must return 1 row, got %d", len(out))
	}
	if out[0][0].I != 0 {
		t.Errorf("COUNT(*) = %v, want 0", out[0][0])
	}
	for i := 1; i < 4; i++ {
		if !out[0][i].IsNull() {
			t.Errorf("agg %d over empty input = %v, want NULL", i, out[0][i])
		}
	}
}

func TestAggregateIgnoresNullArguments(t *testing.T) {
	child := &memOp{schema: Schema{intCol("t", "v")},
		rows: []value.Row{{value.NewInt(10)}, {value.Null}, {value.NewInt(20)}}}
	vEval, _ := Compile(&sqlparser.ColumnRef{Column: "v"}, child.schema)
	agg := &HashAggregate{
		Child: child,
		Aggs: []AggSpec{
			{Func: sqlparser.AggCount, Arg: vEval},
			{Func: sqlparser.AggAvg, Arg: vEval},
		},
		Out: Schema{intCol("", "c"), intCol("", "a")},
	}
	out, err := Drain(agg, NewContext())
	if err != nil {
		t.Fatal(err)
	}
	if out[0][0].I != 2 {
		t.Errorf("COUNT(v) = %v, want 2 (NULLs skipped)", out[0][0])
	}
	if out[0][1].Float() != 15 {
		t.Errorf("AVG(v) = %v, want 15", out[0][1])
	}
}

func TestStatsAccumulation(t *testing.T) {
	var a, b Stats
	a.RowsScanned, a.IndexProbes = 10, 2
	b.RowsScanned, b.HashBuildRows = 5, 7
	a.Add(b)
	if a.RowsScanned != 15 || a.IndexProbes != 2 || a.HashBuildRows != 7 {
		t.Errorf("Stats.Add: %+v", a)
	}
}

func TestNestedLoopJoinCountsComparisons(t *testing.T) {
	left := &memOp{schema: Schema{intCol("l", "k")}, rows: rowsOf([]int64{1}, []int64{2}, []int64{3})}
	right := &memOp{schema: Schema{intCol("r", "k")}, rows: rowsOf([]int64{1}, []int64{2})}
	ctx := NewContext()
	if _, err := Drain(NewNestedLoopJoin(left, right, nil), ctx); err != nil {
		t.Fatal(err)
	}
	if ctx.Stats.JoinComparisons != 6 {
		t.Errorf("comparisons = %d, want 3*2", ctx.Stats.JoinComparisons)
	}
}

func TestTopNKeepsLargestWhenDesc(t *testing.T) {
	child := &memOp{schema: Schema{intCol("t", "a")},
		rows: rowsOf([]int64{5}, []int64{1}, []int64{9}, []int64{3})}
	keyEval, _ := Compile(&sqlparser.ColumnRef{Column: "a"}, child.schema)
	out, err := Drain(&TopNOp{Child: child, Keys: []SortKey{{Eval: keyEval, Desc: true}}, N: 2}, NewContext())
	if err != nil {
		t.Fatal(err)
	}
	got := []int64{out[0][0].I, out[1][0].I}
	if got[0] != 9 || got[1] != 5 {
		t.Errorf("top-2 desc = %v", got)
	}
	_ = sort.SliceIsSorted
}

// topNKinds generate the sort-key values of TestTopNTypedBoundaryDifferential.
var topNKinds = map[string]func(r *rand.Rand) value.Value{
	"int":   func(r *rand.Rand) value.Value { return value.NewInt(int64(r.Intn(40) - 20)) },
	"float": func(r *rand.Rand) value.Value { return value.NewFloat(float64(r.Intn(80))/4 - 10) },
	"mixed": func(r *rand.Rand) value.Value {
		if r.Intn(2) == 0 {
			return value.NewInt(int64(r.Intn(20) - 10))
		}
		return value.NewFloat(float64(r.Intn(40))/2 - 10)
	},
	"null": func(r *rand.Rand) value.Value {
		if r.Intn(4) == 0 {
			return value.Null
		}
		return value.NewInt(int64(r.Intn(30)))
	},
	"nan": func(r *rand.Rand) value.Value {
		if r.Intn(5) == 0 {
			return value.NewFloat(math.NaN())
		}
		return value.NewFloat(float64(r.Intn(30)) / 2)
	},
	"string": func(r *rand.Rand) value.Value {
		if r.Intn(3) == 0 {
			return value.NewInt(int64(r.Intn(10)))
		}
		return value.NewString(string(rune('a' + r.Intn(12))))
	},
}

// TestTopNTypedBoundaryDifferential: the typed boundary reject moves no
// answer. Over int, float, mixed, NULL, NaN and string keys, ASC and DESC,
// LIMIT 0 and offsets past the end, through a filter's selection vector, a
// Top-N on a ColumnKey returns exactly what the same Top-N on an
// evaluator-only key returns — the comparison path it replaces — and,
// where no NaN makes the order partial, exactly the stable sort's
// offset/limit window: ties go to the earlier row. A two-key order takes
// the evaluator path and is held to the sort too.
func TestTopNTypedBoundaryDifferential(t *testing.T) {
	schema := Schema{{Binding: "t", Name: "k"}, intCol("t", "id")}
	dropSome := func(row value.Row, _ *Params) (value.Value, error) { return value.NewBool(row[1].I%7 != 3), nil }
	for kind, gen := range topNKinds {
		for seed := int64(0); seed < 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			rows := make([]value.Row, rng.Intn(3*BatchSize))
			for i := range rows {
				rows[i] = value.Row{gen(rng), value.NewInt(int64(i))}
			}
			child := func() Operator { return &FilterOp{Child: &memOp{schema: schema, rows: rows}, Pred: dropSome} }
			for _, desc := range []bool{false, true} {
				typed := []SortKey{ColumnKey(0, desc)}
				untyped := []SortKey{{Eval: typed[0].Eval, Desc: desc}}
				twoKeys := []SortKey{ColumnKey(0, desc), ColumnKey(1, !desc)}
				sorted := func(keys []SortKey) []value.Row {
					out, err := Drain(&SortOp{Child: child(), Keys: keys}, NewContext())
					if err != nil {
						t.Fatal(err)
					}
					return out
				}
				byOne, byTwo := sorted(typed), sorted(twoKeys)
				for _, lim := range [][2]int64{{0, 0}, {1, 0}, {7, 0}, {40, 3}, {150, 0}, {5, int64(len(rows))}, {10, 1 << 40}} {
					label := fmt.Sprintf("%s seed %d desc %v limit %d offset %d", kind, seed, desc, lim[0], lim[1])
					topN := func(keys []SortKey) []value.Row {
						out, err := Drain(&TopNOp{Child: child(), Keys: keys, N: lim[0], Offset: lim[1]}, NewContext())
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						return out
					}
					window := func(all []value.Row) []value.Row {
						lo := min(lim[1], int64(len(all)))
						return all[lo:min(lo+lim[0], int64(len(all)))]
					}
					got := topN(typed)
					assertRows(t, label+" vs evaluator key", got, topN(untyped), true)
					if kind != "nan" {
						assertRows(t, label+" vs sort", got, window(byOne), true)
						assertRows(t, label+" two keys vs sort", topN(twoKeys), window(byTwo), true)
					}
				}
			}
		}
	}
}

// topNScan is a warm Top-N over a 15 000-row column scan of (price, id),
// keeping the keep highest prices; asc loads the prices in ascending order,
// so every row enters the top, and random order otherwise.
func topNScan(t testing.TB, keep int64, asc bool) func() {
	t.Helper()
	const n = 15000
	rng := rand.New(rand.NewSource(1))
	rows := make([]value.Row, n)
	for i := range rows {
		p := float64(rng.Intn(1_000_000)) / 100
		if asc {
			p = float64(i) / 4
		}
		rows[i] = value.Row{value.NewFloat(p), value.NewInt(int64(i))}
	}
	op := &TopNOp{Child: fullScan(colTableOf(t, "orders", rows), "orders"), Keys: []SortKey{ColumnKey(0, true)}, N: keep}
	return func() {
		ctx := NewContext()
		if err := op.Open(ctx); err != nil {
			t.Fatal(err)
		}
		got := 0
		for b, err := op.Next(ctx); b != nil || err != nil; b, err = op.Next(ctx) {
			if err != nil {
				t.Fatal(err)
			}
			got += b.NumActive()
		}
		if err := op.Close(); err != nil {
			t.Fatal(err)
		}
		if got != int(keep) {
			t.Fatalf("Top-%d returned %d rows", keep, got)
		}
	}
}

// topNAllocs is what a warm Top-N allocates besides one row per keeper:
// its scratch row, the top's growth by doubling and its scan's cursor.
const topNAllocs = 11

// TestTopNClonesOnlyEntrants: a Top-N copies a row out of its batch only
// when the row enters the top, and an entrant past the first keep reuses
// the row it evicts — so a warm Top-N over 15 000 rows allocates keep rows
// plus a recorded constant, the same whether every row enters (ascending
// input) or few do.
func TestTopNClonesOnlyEntrants(t *testing.T) {
	const keep = 50
	measure := func(asc bool) float64 {
		run := topNScan(t, keep, asc)
		run()
		return testing.AllocsPerRun(5, run)
	}
	all, few := measure(true), measure(false)
	t.Logf("warm Top-%d over 15000 rows: %.0f allocations when all enter, %.0f in random order", keep, all, few)
	if all != few || all > keep+topNAllocs {
		t.Errorf("warm Top-%d allocates %.0f (all rows enter) and %.0f (random order), want both at most %d",
			keep, all, few, keep+topNAllocs)
	}
}

func BenchmarkTopNTyped(b *testing.B) {
	run := topNScan(b, 50, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
