package exec

import (
	"fmt"
	"sort"
	"testing"

	"htapxplain/internal/catalog"
	"htapxplain/internal/colstore"
	"htapxplain/internal/sqlparser"
	"htapxplain/internal/value"
)

// parallelFixture builds a column store with one table "p" of n rows:
// k ascending (sorted — zone maps prune tight ranges), g = k % 5,
// v = k % 97.
func parallelFixture(t testing.TB, n int) *colstore.Table {
	t.Helper()
	cat := catalog.New(1)
	if err := cat.AddTable(&catalog.Table{
		Name: "p",
		Columns: []catalog.Column{
			{Name: "k", Type: catalog.TypeInt},
			{Name: "g", Type: catalog.TypeInt},
			{Name: "v", Type: catalog.TypeInt},
		},
		Rows: int64(n), AvgRowBytes: 24,
	}); err != nil {
		t.Fatal(err)
	}
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{
			value.NewInt(int64(i)),
			value.NewInt(int64(i % 5)),
			value.NewInt(int64(i % 97)),
		}
	}
	s, err := colstore.NewStore(cat, map[string][]value.Row{"p": rows})
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := s.Table("p")
	return tbl
}

func parallelPred(t testing.TB, s Schema, col string, op sqlparser.BinOp, v int64) Evaluator {
	t.Helper()
	ev, err := Compile(&sqlparser.BinaryExpr{
		Op:   op,
		Left: &sqlparser.ColumnRef{Table: "p", Column: col}, Right: &sqlparser.IntLit{V: v},
	}, s)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func sortRows(rows []value.Row) {
	sort.Slice(rows, func(i, j int) bool {
		return fmt.Sprint(rows[i]) < fmt.Sprint(rows[j])
	})
}

func assertSameRows(t *testing.T, serial, parallel []value.Row) {
	t.Helper()
	if len(serial) != len(parallel) {
		t.Fatalf("row counts differ: serial %d, parallel %d", len(serial), len(parallel))
	}
	sortRows(serial)
	sortRows(parallel)
	for i := range serial {
		if fmt.Sprint(serial[i]) != fmt.Sprint(parallel[i]) {
			t.Fatalf("row %d differs: serial %v, parallel %v", i, serial[i], parallel[i])
		}
	}
}

// TestParallelFilterScanMatchesSerial: a filter+scan pipeline drained at
// DOP 4 must return the same multiset as the serial drain, with morsels
// spread across workers.
func TestParallelFilterScanMatchesSerial(t *testing.T) {
	tbl := parallelFixture(t, 10*colstore.ChunkSize+77)
	mk := func() BatchOperator {
		scan := NewColTableScan(tbl, "p", []int{0, 1, 2}, nil, nil)
		return &FilterOp{Child: scan, Pred: parallelPred(t, scan.Schema(), "v", sqlparser.OpLt, 9)}
	}
	serialCtx := NewContext()
	serial, err := Drain(mk(), serialCtx)
	if err != nil {
		t.Fatal(err)
	}
	parCtx := NewContext()
	parCtx.DOP = 4
	parallel, err := Drain(mk(), parCtx)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, serial, parallel)
	if parCtx.Stats.ParallelWorkers != 4 {
		t.Errorf("ParallelWorkers = %d, want 4", parCtx.Stats.ParallelWorkers)
	}
	if parCtx.Stats.MorselsDispatched != serialCtx.Stats.MorselsDispatched {
		t.Errorf("morsels: parallel %d != serial %d",
			parCtx.Stats.MorselsDispatched, serialCtx.Stats.MorselsDispatched)
	}
	if parCtx.Stats.RowsScanned != serialCtx.Stats.RowsScanned {
		t.Errorf("rows scanned: parallel %d != serial %d",
			parCtx.Stats.RowsScanned, serialCtx.Stats.RowsScanned)
	}
}

// TestParallelAggregateMatchesSerial: the partitioned hash-aggregate must
// merge partial states into exactly the serial result for every aggregate
// function.
func TestParallelAggregateMatchesSerial(t *testing.T) {
	tbl := parallelFixture(t, 12*colstore.ChunkSize+5)
	mk := func() BatchOperator {
		scan := NewColTableScan(tbl, "p", []int{0, 1, 2}, nil, nil)
		s := scan.Schema()
		gEv, _ := Compile(&sqlparser.ColumnRef{Table: "p", Column: "g"}, s)
		vEv, _ := Compile(&sqlparser.ColumnRef{Table: "p", Column: "v"}, s)
		return &HashAggregate{
			Child:  scan,
			Groups: []Evaluator{gEv},
			Aggs: []AggSpec{
				{Func: sqlparser.AggCount},
				{Func: sqlparser.AggSum, Arg: vEv},
				{Func: sqlparser.AggAvg, Arg: vEv},
				{Func: sqlparser.AggMin, Arg: vEv},
				{Func: sqlparser.AggMax, Arg: vEv},
			},
			Out: Schema{
				intCol("p", "g"),
				intCol("", "count"), intCol("", "sum"), intCol("", "avg"),
				intCol("", "min"), intCol("", "max"),
			},
		}
	}
	serialCtx := NewContext()
	serial, err := Drain(mk(), serialCtx)
	if err != nil {
		t.Fatal(err)
	}
	for _, dop := range []int{2, 4, 8} {
		ctx := NewContext()
		ctx.DOP = dop
		parallel, err := Drain(mk(), ctx)
		if err != nil {
			t.Fatalf("DOP %d: %v", dop, err)
		}
		assertSameRows(t, serial, parallel)
		if ctx.Stats.ParallelWorkers != int64(dop) {
			t.Errorf("DOP %d: ParallelWorkers = %d", dop, ctx.Stats.ParallelWorkers)
		}
		if ctx.Stats.GroupsCreated != serialCtx.Stats.GroupsCreated {
			t.Errorf("DOP %d: GroupsCreated = %d, serial reported %d — the stat must not vary with DOP",
				dop, ctx.Stats.GroupsCreated, serialCtx.Stats.GroupsCreated)
		}
	}
}

// TestParallelGlobalAggregateEmptyInput: a global aggregate over a fully
// filtered input must still emit its single row under parallel execution.
func TestParallelGlobalAggregateEmptyInput(t *testing.T) {
	tbl := parallelFixture(t, 4*colstore.ChunkSize)
	scan := NewColTableScan(tbl, "p", []int{0}, nil, nil)
	s := scan.Schema()
	pred := parallelPred(t, s, "k", sqlparser.OpLt, -1) // matches nothing
	agg := &HashAggregate{
		Child: &FilterOp{Child: scan, Pred: pred},
		Aggs:  []AggSpec{{Func: sqlparser.AggCount}},
		Out:   Schema{intCol("", "count")},
	}
	ctx := NewContext()
	ctx.DOP = 4
	rows, err := Drain(agg, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].I != 0 {
		t.Fatalf("global aggregate over empty input = %v, want one zero-count row", rows)
	}
}

// TestParallelLimitSharedBudget: a forked limit must emit exactly N rows
// across all workers, and the drained budget must cancel the fork scope so
// the workers stop early (morsels dispatched well below the full table).
func TestParallelLimitSharedBudget(t *testing.T) {
	const chunks = 64
	tbl := parallelFixture(t, chunks*colstore.ChunkSize)
	mk := func() BatchOperator {
		scan := NewColTableScan(tbl, "p", []int{0}, nil, nil)
		return &LimitOp{Child: scan, N: 10}
	}
	ctx := NewContext()
	ctx.DOP = 4
	rows, err := Drain(mk(), ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("parallel limit emitted %d rows, want 10", len(rows))
	}
	if ctx.Stats.MorselsDispatched >= chunks {
		t.Errorf("early termination did not stop the scan: %d morsels dispatched of %d",
			ctx.Stats.MorselsDispatched, chunks)
	}
}

// TestParallelScanZoneMapPruning: pruning lives in the shared morsel
// cursor, so a parallel scan must prune exactly the chunks a serial scan
// prunes — counted once across workers, not scanned.
func TestParallelScanZoneMapPruning(t *testing.T) {
	const chunks = 16
	tbl := parallelFixture(t, chunks*colstore.ChunkSize)
	lo := value.NewInt(int64(14 * colstore.ChunkSize))
	mk := func() BatchOperator {
		return NewColTableScan(tbl, "p", []int{0}, nil,
			&colstore.RangePruner{Col: 0, Lo: &lo})
	}
	serialCtx := NewContext()
	if _, err := Drain(mk(), serialCtx); err != nil {
		t.Fatal(err)
	}
	parCtx := NewContext()
	parCtx.DOP = 4
	if _, err := Drain(mk(), parCtx); err != nil {
		t.Fatal(err)
	}
	if serialCtx.Stats.ChunksSkipped != 14 {
		t.Fatalf("serial pruned %d chunks, want 14", serialCtx.Stats.ChunksSkipped)
	}
	if parCtx.Stats.ChunksSkipped != serialCtx.Stats.ChunksSkipped {
		t.Errorf("parallel pruned %d chunks, serial %d",
			parCtx.Stats.ChunksSkipped, serialCtx.Stats.ChunksSkipped)
	}
	if parCtx.Stats.ChunksScanned != 2 {
		t.Errorf("parallel scanned %d chunks, want 2", parCtx.Stats.ChunksScanned)
	}
}

// TestParallelWorkerErrorPropagates: an evaluator error inside one worker
// must surface from the drain and cancel the remaining workers.
func TestParallelWorkerErrorPropagates(t *testing.T) {
	tbl := parallelFixture(t, 8*colstore.ChunkSize)
	scan := NewColTableScan(tbl, "p", []int{0, 2}, nil, nil)
	boom := func(row value.Row, _ *Params) (value.Value, error) {
		if row[0].I == int64(3*colstore.ChunkSize+17) {
			return value.Null, fmt.Errorf("boom")
		}
		return value.NewBool(true), nil
	}
	ctx := NewContext()
	ctx.DOP = 4
	_, err := Drain(&FilterOp{Child: scan, Pred: boom}, ctx)
	if err == nil || err.Error() != "boom" {
		t.Fatalf("worker error did not propagate: %v", err)
	}
}

// TestForkableShapes: only per-morsel chains over a ParallelSource fork.
func TestForkableShapes(t *testing.T) {
	tbl := parallelFixture(t, 2*colstore.ChunkSize)
	scan := NewColTableScan(tbl, "p", []int{0}, nil, nil)
	mem := &memOp{schema: Schema{intCol("t", "a")}, rows: rowsOf([]int64{1})}
	cases := []struct {
		name string
		op   BatchOperator
		want bool
	}{
		{"col-scan", scan, true},
		{"filter-over-scan", &FilterOp{Child: scan}, true},
		{"limit-over-scan", &LimitOp{Child: scan, N: 5}, true},
		{"limit-with-offset", &LimitOp{Child: scan, N: 5, Offset: 2}, false},
		{"unbounded-limit", &LimitOp{Child: scan, N: -1}, false},
		{"row-emitter", mem, false},
		{"filter-over-row-emitter", &FilterOp{Child: mem}, false},
		{"sort-over-scan", &SortOp{Child: scan}, false},
	}
	for _, tc := range cases {
		if got := forkable(tc.op, nil); got != tc.want {
			t.Errorf("forkable(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestCanParallelize: only trees with a real fork point count — a Top-N
// that pulls its forkable scan serially must not claim parallelism (the
// gateway would reserve worker slots the execution can never use).
func TestCanParallelize(t *testing.T) {
	tbl := parallelFixture(t, 2*colstore.ChunkSize)
	scan := func() BatchOperator { return NewColTableScan(tbl, "p", []int{0}, nil, nil) }
	mem := &memOp{schema: Schema{intCol("t", "a")}, rows: rowsOf([]int64{1})}
	agg := func(child BatchOperator) BatchOperator {
		return &HashAggregate{Child: child, Aggs: []AggSpec{{Func: sqlparser.AggCount}},
			Out: Schema{intCol("", "count")}}
	}
	cases := []struct {
		name string
		op   BatchOperator
		want bool
	}{
		{"scan-root-drain", scan(), true},
		{"filter-root-drain", &FilterOp{Child: scan()}, true},
		{"topn-over-scan", &TopNOp{Child: scan(), N: 5}, false},
		{"topn-over-agg-over-scan", &TopNOp{Child: agg(scan()), N: 5}, true},
		{"agg-over-scan", agg(scan()), true},
		{"agg-over-row-emitter", agg(mem), false},
		{"sort-over-scan", &SortOp{Child: scan()}, true},
		{"project-over-topn-over-scan", &ProjectOp{Child: &TopNOp{Child: scan(), N: 5}}, false},
		{"hashjoin-forkable-build", NewHashJoin(mem, scan(), []int{0}, []int{0}, nil, nil), true},
		{"hashjoin-serial-sides", NewHashJoin(mem, mem, []int{0}, []int{0}, nil, nil), false},
	}
	for _, tc := range cases {
		if got := CanParallelize(tc.op); got != tc.want {
			t.Errorf("CanParallelize(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestParallelHashJoinBuild: the partitioned hash-join build must produce
// the same join result as the serial build.
func TestParallelHashJoinBuild(t *testing.T) {
	tbl := parallelFixture(t, 6*colstore.ChunkSize)
	mk := func() BatchOperator {
		build := NewColTableScan(tbl, "p", []int{1, 2}, nil, nil) // g, v
		probe := &memOp{schema: Schema{intCol("l", "g")},
			rows: rowsOf([]int64{0}, []int64{3}, []int64{4})}
		return NewHashJoin(probe, build, []int{0}, []int{0}, nil, nil)
	}
	serial, err := Drain(mk(), NewContext())
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext()
	ctx.DOP = 4
	parallel, err := Drain(mk(), ctx)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, serial, parallel)
	if ctx.Stats.ParallelWorkers == 0 {
		t.Error("hash-join build did not fork workers")
	}
}

// TestContextCancelScopes: canceling a forked scope must not cancel the
// parent, while canceling the parent is visible in the fork.
func TestContextCancelScopes(t *testing.T) {
	root := NewContext()
	workers := root.forkScope(2)
	workers[0].Cancel()
	if !workers[1].Canceled() {
		t.Error("sibling worker does not observe fork-scope cancel")
	}
	if root.Canceled() {
		t.Error("fork-scope cancel leaked into the parent context")
	}
	root2 := NewContext()
	root2.Cancel()
	w := root2.forkScope(1)
	if !w[0].Canceled() {
		t.Error("worker does not observe parent cancel")
	}

	// a cancel issued AFTER the fork must reach the workers, including on
	// a zero-value context (forkScope materializes the parent scope
	// before capturing it)
	root3 := &Context{}
	w3 := root3.forkScope(2)
	if w3[0].Canceled() {
		t.Error("fresh worker already canceled")
	}
	root3.Cancel()
	if !w3[0].Canceled() || !w3[1].Canceled() {
		t.Error("workers do not observe a parent cancel issued after the fork")
	}
}
