package exec

import (
	"fmt"
	"sync"
	"testing"

	"htapxplain/internal/catalog"
	"htapxplain/internal/colstore"
	"htapxplain/internal/sqlparser"
	"htapxplain/internal/value"
)

func TestBatchSelectionHelpers(t *testing.T) {
	b := &Batch{
		Cols: [][]value.Value{
			{value.NewInt(10), value.NewInt(20), value.NewInt(30)},
			{value.NewInt(1), value.NewInt(2), value.NewInt(3)},
		},
		Len: 3,
	}
	if b.NumActive() != 3 || b.PosAt(2) != 2 {
		t.Fatalf("dense batch: active=%d pos(2)=%d", b.NumActive(), b.PosAt(2))
	}
	b.Sel = []int32{0, 2}
	if b.NumActive() != 2 || b.PosAt(1) != 2 {
		t.Fatalf("selected batch: active=%d pos(1)=%d", b.NumActive(), b.PosAt(1))
	}
	scratch := make(value.Row, 2)
	row := b.FillRow(1, scratch)
	if row[0].I != 30 || row[1].I != 3 {
		t.Errorf("FillRow(1) = %v, want [30 3]", row)
	}
	rows := b.AppendRows(nil)
	if len(rows) != 2 || rows[0][0].I != 10 || rows[1][0].I != 30 {
		t.Errorf("AppendRows = %v", rows)
	}
	// materialized rows must not alias the batch vectors
	rows[0][0] = value.NewInt(99)
	if b.Cols[0][0].I != 10 {
		t.Error("AppendRows aliased the batch vector")
	}
}

// TestFilterNarrowsSelectionVector: a filter must keep the child's vectors
// (same physical Len) and only shrink the selection vector.
func TestFilterNarrowsSelectionVector(t *testing.T) {
	child := &memOp{schema: Schema{intCol("t", "a")},
		rows: rowsOf([]int64{1}, []int64{5}, []int64{2}, []int64{7})}
	ev, err := Compile(&sqlparser.BinaryExpr{
		Op:   sqlparser.OpGt,
		Left: &sqlparser.ColumnRef{Table: "t", Column: "a"}, Right: &sqlparser.IntLit{V: 4},
	}, child.schema)
	if err != nil {
		t.Fatal(err)
	}
	f := &FilterOp{Child: child, Pred: ev}
	ctx := NewContext()
	if err := f.Open(ctx); err != nil {
		t.Fatal(err)
	}
	b, err := f.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if b == nil {
		t.Fatal("filter returned no batch")
	}
	if b.Len != 4 {
		t.Errorf("physical Len = %d, want 4 (vectors must not be copied)", b.Len)
	}
	if len(b.Sel) != 2 || b.PosAt(0) != 1 || b.PosAt(1) != 3 {
		t.Errorf("Sel = %v, want positions [1 3]", b.Sel)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func tinyColTable(t testing.TB, n int, opts ...colstore.Option) *colstore.Table {
	t.Helper()
	cat := catalog.New(1)
	if err := cat.AddTable(&catalog.Table{
		Name: "t",
		Columns: []catalog.Column{
			{Name: "k", Type: catalog.TypeInt, NDV: int64(n)},
			{Name: "v", Type: catalog.TypeInt, NDV: 10},
		},
		Rows: int64(n), AvgRowBytes: 16,
	}); err != nil {
		t.Fatal(err)
	}
	rows := make([]value.Row, n)
	for i := 0; i < n; i++ {
		rows[i] = value.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 10))}
	}
	store, err := colstore.NewStore(cat, map[string][]value.Row{"t": rows}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	tb, _ := store.Table("t")
	return tb
}

// TestColTableScanAliasesChunks: over raw storage the columnar scan's
// batches must alias the stored vectors (zero per-row materialization),
// one batch per chunk. The encoding policy is pinned to raw — under the
// default policy this integer table would be FoR-encoded and served
// through the decode path instead (see TestColTableScanDecodesEncoded).
func TestColTableScanAliasesChunks(t *testing.T) {
	n := 2*colstore.ChunkSize + 100
	tb := tinyColTable(t, n, colstore.WithEncoding(colstore.PolicyRaw))
	scan := NewColTableScan(tb, "t", []int{0, 1}, nil, nil)
	ctx := NewContext()
	if err := scan.Open(ctx); err != nil {
		t.Fatal(err)
	}
	batches := 0
	total := 0
	for {
		b, err := scan.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		stored := tb.Column(0).Chunk(batches).Raw
		if &b.Cols[0][0] != &stored[0] {
			t.Errorf("batch %d does not alias the stored chunk", batches)
		}
		batches++
		total += b.NumActive()
	}
	if err := scan.Close(); err != nil {
		t.Fatal(err)
	}
	if batches != 3 || total != n {
		t.Errorf("got %d batches / %d rows, want 3 / %d", batches, total, n)
	}
	if ctx.Stats.BatchesProduced != 3 || ctx.Stats.RowsScanned != int64(n) {
		t.Errorf("stats = %+v", ctx.Stats)
	}
}

// TestColTableScanDecodesEncoded: over encoded storage the scan's batches
// are decoded copies — the other half of the "alias or decode, never
// mutate" contract: the batch must not alias encoded storage, mutating it
// must not corrupt the store, and the decoded values must round-trip
// exactly.
func TestColTableScanDecodesEncoded(t *testing.T) {
	n := 2*colstore.ChunkSize + 100
	tb := tinyColTable(t, n) // default policy: both int columns FoR-encode
	if ch := tb.Column(0).Chunk(0); ch.Enc == colstore.EncRaw {
		t.Fatalf("precondition: expected chunk 0 to be encoded, got %v", ch.Enc)
	}
	scan := NewColTableScan(tb, "t", []int{0, 1}, nil, nil)
	ctx := NewContext()
	if err := scan.Open(ctx); err != nil {
		t.Fatal(err)
	}
	next := int64(0)
	for {
		b, err := scan.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		for i := 0; i < b.NumActive(); i++ {
			if got := b.Cols[0][b.PosAt(i)].I; got != next {
				t.Fatalf("row %d: decoded k = %d", next, got)
			}
			next++
		}
		// mutating the batch must not reach storage
		b.Cols[0][0] = value.NewInt(-1)
	}
	if err := scan.Close(); err != nil {
		t.Fatal(err)
	}
	if next != int64(n) {
		t.Fatalf("scanned %d rows, want %d", next, n)
	}
	if v := tb.Column(0).Value(0); v.I != 0 {
		t.Fatalf("storage corrupted: column value(0) = %v", v)
	}
	if ctx.Stats.DecodedChunks != 3 || ctx.Stats.EncodedChunks != 0 {
		t.Errorf("decoded=%d encoded=%d, want 3/0 (full decode, no prefilter)",
			ctx.Stats.DecodedChunks, ctx.Stats.EncodedChunks)
	}
}

// TestClosedScanRowsSurviveReborrow: a scan gives its decode targets back
// at Close, so an idle scan holds none, and what it materialized is a copy:
// a second scan that re-borrows those targets and decodes another table
// into them (poisoned first, under the race detector) leaves the first
// scan's rows as they were.
func TestClosedScanRowsSurviveReborrow(t *testing.T) {
	const n = 2*colstore.ChunkSize + 100
	negated := make([]value.Row, n)
	for i := range negated {
		negated[i] = value.Row{value.NewInt(-int64(i) - 1), value.NewInt(-int64(i%10) - 1)}
	}
	drain := func(tb *colstore.Table) ([]value.Row, map[*[BatchSize]value.Value]bool) {
		t.Helper()
		scan := NewColTableScan(tb, tb.Meta.Name, []int{0}, nil, nil)
		ctx := NewContext()
		if err := scan.Open(ctx); err != nil {
			t.Fatal(err)
		}
		var rows []value.Row
		for {
			b, err := scan.Next(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
			rows = b.AppendRows(rows)
		}
		held := map[*[BatchSize]value.Value]bool{}
		for _, d := range scan.decodeBuf {
			held[d.buf] = true
		}
		if err := scan.Close(); err != nil {
			t.Fatal(err)
		}
		for j, d := range scan.decodeBuf {
			if d.buf != nil {
				t.Fatalf("column %d keeps its decode target past Close", j)
			}
		}
		if ctx.Stats.DecodedChunks == 0 {
			t.Fatal("precondition: the scan decoded nothing")
		}
		return rows, held
	}
	// one FoR-encoded column, the width at which a row could alias a batch
	// vector; no value of the second table is one of the first's
	first, firstHeld := drain(tinyColTable(t, n))
	_, secondHeld := drain(colTableOf(t, "o", negated))
	reborrowed := 0
	for buf := range secondHeld {
		if firstHeld[buf] {
			reborrowed++
		}
	}
	if reborrowed == 0 {
		t.Fatal("the second scan re-borrowed none of the targets the first gave back")
	}
	for i, r := range first {
		if r[0].I != int64(i) {
			t.Fatalf("row %d of the first scan reads %v after its decode target was re-borrowed", i, r)
		}
	}
}

// TestColTableScanPredicateAndPruning: the predicate narrows the selection
// vector and the zone-map pruner skips whole chunks, matching the legacy
// scan's counters.
func TestColTableScanPredicateAndPruning(t *testing.T) {
	n := 4 * colstore.ChunkSize
	tb := tinyColTable(t, n)
	// k < 10 touches only chunk 0; the pruner proves chunks 1..3 empty.
	lo := value.NewInt(0)
	hi := value.NewInt(9)
	filter, err := CompileScanFilter([]sqlparser.Expr{&sqlparser.BinaryExpr{
		Op:   sqlparser.OpLt,
		Left: &sqlparser.ColumnRef{Table: "t", Column: "k"}, Right: &sqlparser.IntLit{V: 10},
	}}, Schema{intCol("t", "k"), intCol("t", "v")})
	if err != nil {
		t.Fatal(err)
	}
	scan := NewColTableScan(tb, "t", []int{0, 1}, filter, &colstore.RangePruner{Col: 0, Lo: &lo, Hi: &hi})
	ctx := NewContext()
	rows, err := drainOp(scan, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Errorf("matched %d rows, want 10", len(rows))
	}
	if ctx.Stats.ChunksSkipped != 3 {
		t.Errorf("ChunksSkipped = %d, want 3", ctx.Stats.ChunksSkipped)
	}
	if ctx.Stats.RowsScanned != colstore.ChunkSize {
		t.Errorf("RowsScanned = %d, want %d (only chunk 0 visited)", ctx.Stats.RowsScanned, colstore.ChunkSize)
	}
}

// countingOp wraps an operator and counts Next calls.
type countingOp struct {
	inner     BatchOperator
	nextCalls int
}

func (c *countingOp) Schema() Schema       { return c.inner.Schema() }
func (c *countingOp) Clone() BatchOperator { return &countingOp{inner: c.inner.Clone()} }
func (c *countingOp) Open(ctx *Context) error {
	c.nextCalls = 0
	return c.inner.Open(ctx)
}
func (c *countingOp) Next(ctx *Context) (*Batch, error) {
	c.nextCalls++
	return c.inner.Next(ctx)
}
func (c *countingOp) Close() error { return c.inner.Close() }

// TestLimitStopsPullingChild: LIMIT must terminate the pipeline early
// instead of materializing the whole child — the batch engine's win over
// the old Run contract.
func TestLimitStopsPullingChild(t *testing.T) {
	rows := make([]value.Row, 3*BatchSize)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(i))}
	}
	child := &countingOp{inner: &memOp{schema: Schema{intCol("t", "a")}, rows: rows}}
	lim := &LimitOp{Child: child, N: 5, Offset: 0}
	ctx := NewContext()
	out, err := drainOp(lim, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 5 {
		t.Fatalf("limit 5 returned %d rows", len(out))
	}
	if child.nextCalls > 1 {
		t.Errorf("limit pulled %d child batches, want 1 (early termination)", child.nextCalls)
	}
}

// TestRunnerConcurrentDrains: a shared plan executed through a Runner from
// many goroutines must produce identical results with no interference —
// the contract the gateway's plan cache relies on (run under -race in CI).
func TestRunnerConcurrentDrains(t *testing.T) {
	child := &memOp{schema: Schema{intCol("t", "a"), intCol("t", "b")},
		rows: rowsOf([]int64{1, 10}, []int64{2, 20}, []int64{3, 30}, []int64{4, 40})}
	pred, err := Compile(&sqlparser.BinaryExpr{
		Op:   sqlparser.OpGt,
		Left: &sqlparser.ColumnRef{Table: "t", Column: "a"}, Right: &sqlparser.IntLit{V: 2},
	}, child.Schema())
	if err != nil {
		t.Fatal(err)
	}
	runner := NewRunner(&FilterOp{Child: child, Pred: pred})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				out, err := runner.Drain(NewContext())
				if err != nil {
					errs <- err
					return
				}
				if len(out) != 2 || out[0][0].I != 3 || out[1][0].I != 4 {
					errs <- fmt.Errorf("iteration %d: got %v", i, out)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestDrainRepeatable: draining the same shared tree twice must give the
// same result (Drain clones; state never leaks between runs).
func TestDrainRepeatable(t *testing.T) {
	child := &memOp{schema: Schema{intCol("t", "a")}, rows: rowsOf([]int64{1}, []int64{2})}
	op := &LimitOp{Child: child, N: 1, Offset: 1}
	for run := 0; run < 3; run++ {
		out, err := Drain(op, NewContext())
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 1 || out[0][0].I != 2 {
			t.Fatalf("run %d: got %v", run, out)
		}
	}
}

// TestZeroColumnBatch pins the contract batch.go states: a batch with no
// columns stands for Len (or len(Sel)) rows of nothing, and everything that
// handles batches counts those rows — the buffers that build one, the
// drain, and every operator between a join that emits nothing and the
// COUNT(*) that asked for nothing.
func TestZeroColumnBatch(t *testing.T) {
	b := &Batch{Len: 5}
	if rows := b.AppendRows(nil); len(rows) != 5 || rows[0] == nil || len(rows[0]) != 0 {
		t.Errorf("AppendRows of 5 zero-column rows = %v", rows)
	}
	b.Sel = []int32{1, 3}
	if rows := b.AppendRows(nil); b.NumActive() != 2 || len(rows) != 2 {
		t.Errorf("selected zero-column batch: active %d, %d rows", b.NumActive(), len(rows))
	}

	var rw rowWindow
	rw.init(0)
	if fb := rw.fill(make([]value.Row, 3)); fb.Len != 3 || len(fb.Cols) != 0 || fb.NumActive() != 3 {
		t.Errorf("rowWindow.fill of 3 empty rows = %+v", fb)
	}

	var ob outBuffer
	ob.init(0)
	for i := 0; i < 3*outInitCap; i++ {
		ob.appendRow(value.Row{})
	}
	ob.appendCols(&Batch{Len: 7}, nil)
	if ob.len() != 3*outInitCap+7 {
		t.Errorf("outBuffer holds %d zero-column rows, want %d", ob.len(), 3*outInitCap+7)
	}
	ob.resize(1000)
	if ob.len() != 1000 || ob.take(NewContext()).NumActive() != 1000 {
		t.Errorf("outBuffer resized to 1000 holds %d rows", ob.len())
	}

	// 2500 probe rows, each matching one build row; the join emits no column
	const n = 2500
	keys := make([]value.Row, n)
	for i := range keys {
		keys[i] = value.Row{value.NewInt(int64(i % 100))}
	}
	join := func() BatchOperator {
		probe := &memOp{schema: Schema{intCol("p", "k")}, rows: keys}
		build := &memOp{schema: Schema{intCol("b", "k")}, rows: keys[:100]}
		return NewHashJoin(probe, build, []int{0}, []int{0}, nil, []int{})
	}
	countOver := func(child BatchOperator) *HashAggregate {
		return &HashAggregate{Child: child, Aggs: []AggSpec{{Func: sqlparser.AggCount, ArgCol: -1}},
			Out: Schema{intCol("", "count(*)")}}
	}
	yes := func(value.Row, *Params) (value.Value, error) { return value.NewBool(true), nil }
	for _, tc := range []struct {
		name string
		op   BatchOperator
		want int64
	}{
		{"join", join(), n},
		{"filter", &FilterOp{Child: join(), Pred: yes}, n},
		{"limit", &LimitOp{Child: join(), N: 1500, Offset: 10}, 1500},
		{"gather", &Gather{Frags: []Fragment{{Root: join(), DOP: 1}, {Root: join(), DOP: 1}}}, 2 * n},
	} {
		if len(tc.op.Schema()) != 0 {
			t.Fatalf("%s: schema %v, want no columns", tc.name, tc.op.Schema())
		}
		rows, err := Drain(tc.op, NewContext())
		if err != nil || int64(len(rows)) != tc.want {
			t.Errorf("%s: drained %d rows (err %v), want %d", tc.name, len(rows), err, tc.want)
		}
		root, prof := Instrument(countOver(tc.op.Clone()))
		got, err := Drain(root, NewContext())
		if err != nil || len(got) != 1 || got[0][0].I != tc.want {
			t.Errorf("%s: COUNT(*) = %v (err %v), want %d", tc.name, got, err, tc.want)
		}
		if s := prof.Snapshot(); s.Children[0].Rows != tc.want {
			t.Errorf("%s: EXPLAIN ANALYZE counts %d rows out of it, want %d", tc.name, s.Children[0].Rows, tc.want)
		}
	}
}
