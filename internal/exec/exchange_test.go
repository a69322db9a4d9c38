package exec

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"htapxplain/internal/catalog"
	"htapxplain/internal/sqlparser"
	"htapxplain/internal/task"
	"htapxplain/internal/value"
)

func exchangeSchema() Schema {
	return Schema{
		{Binding: "t", Name: "k", Type: catalog.TypeInt},
		{Binding: "t", Name: "v", Type: catalog.TypeFloat},
	}
}

func kvRow(k int64, v float64) value.Row {
	return value.Row{value.NewInt(k), value.NewFloat(v)}
}

func multiset(rows []value.Row) map[string]int {
	out := make(map[string]int, len(rows))
	for _, r := range rows {
		var b strings.Builder
		for _, v := range r {
			b.WriteString(v.Key())
			b.WriteByte('|')
		}
		out[b.String()]++
	}
	return out
}

// rowsSource is a re-runnable leaf over a fixed row slice: unlike
// memSource it clones and re-opens, so it can sit under a pooled Gather.
// fail, when set, is what Open returns; boom makes Open panic instead;
// a sibling does not return from Open until its scope is canceled.
type rowsSource struct {
	rows    []value.Row
	out     Schema
	fail    error
	boom    bool
	sibling bool
	emit    rowEmitter
}

func (r *rowsSource) Schema() Schema { return r.out }
func (r *rowsSource) Clone() BatchOperator {
	return &rowsSource{rows: r.rows, out: r.out, fail: r.fail, boom: r.boom, sibling: r.sibling}
}
func (r *rowsSource) Open(ctx *Context) error {
	if r.boom {
		panic("fragment operator bug")
	}
	for deadline := time.Now().Add(10 * time.Second); r.sibling && !ctx.Canceled(); runtime.Gosched() {
		if time.Now().After(deadline) {
			return errors.New("the failed fragment's sibling was never canceled")
		}
	}
	r.emit.reset(r.rows, len(r.out))
	return r.fail
}
func (r *rowsSource) Next(ctx *Context) (*Batch, error) { return r.emit.next(ctx), nil }
func (r *rowsSource) Close() error                      { return nil }

// TestGatherIsAnOrdinaryOperator: a gather over its fragments is driven
// by a pooling Runner like any other tree — twice, so the second run
// reuses the first run's tree — and each run delivers exactly the union of
// the fragments' rows, counts one exchange hand-off of ⌈rows/BatchSize⌉
// batches per fragment, and does not count the fan-out as morsel workers.
func TestGatherIsAnOrdinaryOperator(t *testing.T) {
	sizes := []int{2500, 0, BatchSize, 1}
	g := &Gather{}
	var want []value.Row
	var wantBatches int64
	for p, n := range sizes {
		var rows []value.Row
		for i := 0; i < n; i++ {
			rows = append(rows, kvRow(int64(p*10000+i), float64(i)))
		}
		want = append(want, rows...)
		wantBatches += int64((n + BatchSize - 1) / BatchSize)
		g.Frags = append(g.Frags, Fragment{Root: &rowsSource{rows: rows, out: exchangeSchema()}, DOP: 1})
	}
	r := NewRunner(g)
	for run := 0; run < 2; run++ {
		ctx := NewContext()
		ctx.DOP = 8
		got, err := r.Drain(ctx)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if len(got) != len(want) {
			t.Fatalf("run %d gathered %d rows, want %d", run, len(got), len(want))
		}
		wm, gm := multiset(want), multiset(got)
		for k, n := range wm {
			if gm[k] != n {
				t.Fatalf("run %d multiset mismatch at %q: got %d want %d", run, k, gm[k], n)
			}
		}
		if ctx.Stats.ExchangeRows != int64(len(want)) || ctx.Stats.ExchangeBatches != wantBatches {
			t.Errorf("run %d exchange rows/batches = %d/%d, want %d/%d", run,
				ctx.Stats.ExchangeRows, ctx.Stats.ExchangeBatches, len(want), wantBatches)
		}
		if ctx.Stats.ParallelWorkers != 0 {
			t.Errorf("run %d counted %d parallel workers for the fragment fan-out", run, ctx.Stats.ParallelWorkers)
		}
	}
	if c, ok := g.Clone().(*Gather); !ok || c == g || c.Frags[0].Root == g.Frags[0].Root {
		t.Error("Gather.Clone must clone the gather and its fragments")
	}
}

// TestGatherRunsMovesBeforeFragments: a shuffle move's rows reach each
// fragment's MemScan through the execution's context — every
// fragment sees exactly the rows routed to it, from every sending shard —
// and a fragment run outside a gather fails instead of reading nothing.
func TestGatherRunsMovesBeforeFragments(t *testing.T) {
	const shards, perShard = 3, 2000
	mv := Move{Key: "t", Route: func(r value.Row) (int, error) { return int(r[0].I % shards), nil }}
	g := &Gather{}
	for s := 0; s < shards; s++ {
		var rows []value.Row
		for i := 0; i < perShard; i++ {
			rows = append(rows, kvRow(int64(s*perShard+i), float64(s)))
		}
		mv.Scans = append(mv.Scans, &rowsSource{rows: rows, out: exchangeSchema()})
		g.Frags = append(g.Frags, Fragment{Root: &MemScan{Out: exchangeSchema(), Key: "t"}, DOP: 1})
	}
	g.Moves = []Move{mv}
	ctx := NewContext()
	if err := g.Open(ctx); err != nil {
		t.Fatal(err)
	}
	for s, part := range g.parts {
		if len(part) != perShard {
			t.Errorf("fragment %d received %d rows, want %d", s, len(part), perShard)
		}
		for _, r := range part {
			if int(r[0].I%shards) != s {
				t.Fatalf("row k=%d delivered to fragment %d", r[0].I, s)
			}
		}
	}
	// a move scan is a template: the run drained a clone and dropped it, so
	// a pooled gather keeps no scan buffers between executions
	if tmpl := mv.Scans[0].(*rowsSource); tmpl.emit.rows != nil {
		t.Error("the move drained its template scan in place")
	}
	// shuffled once on send, gathered once on receive
	if want := int64(2 * shards * perShard); ctx.Stats.ExchangeRows != want {
		t.Errorf("ExchangeRows = %d, want %d", ctx.Stats.ExchangeRows, want)
	}
	if err := (&MemScan{Out: exchangeSchema(), Key: "t"}).Open(NewContext()); err == nil {
		t.Error("a MemScan opened outside a gather read nothing and said nothing")
	}
}

// TestGatherFragmentFailureFailsTheQuery: the first fragment to return an
// error, or to panic, fails the drain with that error and cancels the
// scope its siblings run in.
func TestGatherFragmentFailureFailsTheQuery(t *testing.T) {
	boom := errors.New("fragment failed")
	sibling := &rowsSource{rows: []value.Row{kvRow(1, 1)}, out: exchangeSchema(), sibling: true}
	g := &Gather{Frags: []Fragment{{Root: sibling, DOP: 1},
		{Root: &rowsSource{out: exchangeSchema(), fail: boom}, DOP: 1}}}
	if _, err := Drain(g, NewContext()); !errors.Is(err, boom) {
		t.Fatalf("Drain err = %v, want %v", err, boom)
	}
	g.Frags[1].Root = &rowsSource{out: exchangeSchema(), boom: true}
	_, err := Drain(g, NewContext())
	var pe *task.PanicError
	if !errors.As(err, &pe) || !strings.Contains(string(pe.Stack), "(*Gather).Open") {
		t.Fatalf("Drain err = %v, want a *task.PanicError recovered under (*Gather).Open", err)
	}
}

// TestShuffleRoutesByKey: every row must land on exactly the destination
// its route function names, regardless of sending order.
func TestShuffleRoutesByKey(t *testing.T) {
	const n, dests = 5000, 3
	var rows []value.Row
	for i := 0; i < n; i++ {
		rows = append(rows, kvRow(int64(i), float64(i)))
	}
	var em rowEmitter
	em.reset(rows, 2)
	src := &memSource{emit: &em, out: exchangeSchema()}

	bufs := make([]*RowBuffer, dests)
	sinks := make([]RowSink, dests)
	for i := range bufs {
		bufs[i] = &RowBuffer{}
		sinks[i] = bufs[i]
	}
	sh := &Shuffle{
		Route: func(r value.Row) (int, error) { return int(r[0].I % dests), nil },
		Dests: sinks,
	}
	ctx := NewContext()
	if err := sh.Run(ctx, src); err != nil {
		t.Fatalf("Shuffle.Run: %v", err)
	}
	total := 0
	for d, buf := range bufs {
		total += len(buf.Rows)
		for _, r := range buf.Rows {
			if int(r[0].I%dests) != d {
				t.Fatalf("row k=%d landed on destination %d", r[0].I, d)
			}
		}
	}
	if total != n {
		t.Fatalf("shuffled %d rows, want %d", total, n)
	}
	if ctx.Stats.ExchangeRows != int64(n) {
		t.Errorf("ExchangeRows = %d, want %d", ctx.Stats.ExchangeRows, n)
	}
}

// TestBroadcastReplicates: every destination receives every row.
func TestBroadcastReplicates(t *testing.T) {
	const n, dests = 1200, 4
	var rows []value.Row
	for i := 0; i < n; i++ {
		rows = append(rows, kvRow(int64(i), float64(i)))
	}
	var em rowEmitter
	em.reset(rows, 2)
	src := &memSource{emit: &em, out: exchangeSchema()}
	bufs := make([]*RowBuffer, dests)
	sinks := make([]RowSink, dests)
	for i := range bufs {
		bufs[i] = &RowBuffer{}
		sinks[i] = bufs[i]
	}
	ctx := NewContext()
	if err := (&Broadcast{Dests: sinks}).Run(ctx, src); err != nil {
		t.Fatalf("Broadcast.Run: %v", err)
	}
	for d, buf := range bufs {
		if len(buf.Rows) != n {
			t.Fatalf("destination %d got %d rows, want %d", d, len(buf.Rows), n)
		}
	}
	if ctx.Stats.ExchangeRows != int64(n*dests) {
		t.Errorf("ExchangeRows = %d, want %d", ctx.Stats.ExchangeRows, n*dests)
	}
}

// memSource streams a fixed row slice — a minimal BatchOperator leaf for
// exchange tests.
type memSource struct {
	emit *rowEmitter
	out  Schema
}

func (m *memSource) Schema() Schema          { return m.out }
func (m *memSource) Clone() BatchOperator    { return m }
func (m *memSource) Open(ctx *Context) error { return nil }
func (m *memSource) Close() error            { return nil }
func (m *memSource) Next(ctx *Context) (*Batch, error) {
	return m.emit.next(ctx), nil
}

// TestPartialMergeAggreesWithSerial: splitting an aggregation into
// Partial-mode fragments merged by a Merge-mode aggregate must reproduce
// the single-operator result exactly — including NULL handling, empty
// fragments and the empty-input global row.
func TestPartialMergeAgreesWithSerial(t *testing.T) {
	schema := exchangeSchema()
	aggs := []AggSpec{
		{Func: sqlparser.AggCount, Arg: nil, ArgCol: -1},
		{Func: sqlparser.AggSum, Arg: ColumnEval(1), ArgCol: 1},
		{Func: sqlparser.AggAvg, Arg: ColumnEval(1), ArgCol: 1},
		{Func: sqlparser.AggMin, Arg: ColumnEval(1), ArgCol: 1},
		{Func: sqlparser.AggMax, Arg: ColumnEval(1), ArgCol: 1},
	}
	finalOut := Schema{{Name: "k", Type: catalog.TypeInt},
		{Name: "count", Type: catalog.TypeInt}, {Name: "sum", Type: catalog.TypeFloat},
		{Name: "avg", Type: catalog.TypeFloat}, {Name: "min", Type: catalog.TypeFloat},
		{Name: "max", Type: catalog.TypeFloat}}
	partialOut := Schema{{Name: "k", Type: catalog.TypeInt}}
	for i := 0; i < len(aggs); i++ {
		partialOut = append(partialOut,
			Col{Name: fmt.Sprintf("p%d_state", i)}, Col{Name: fmt.Sprintf("p%d_count", i)})
	}

	var all []value.Row
	frags := make([][]value.Row, 3)
	for i := 0; i < 4000; i++ {
		r := kvRow(int64(i%7), float64(i%101)-50)
		if i%13 == 0 {
			r[1] = value.Null // NULL aggregation inputs
		}
		all = append(all, r)
		frags[i%2] = append(frags[i%2], r) // fragment 2 stays empty
	}

	serial := func(rows []value.Row, groups []Evaluator, partial bool, merge bool, out Schema, in Schema) []value.Row {
		var em rowEmitter
		em.reset(rows, len(in))
		ha := &HashAggregate{
			Child: &memSource{emit: &em, out: in}, Groups: groups, Aggs: aggs,
			Out: out, Partial: partial, Merge: merge,
		}
		got, err := Drain(ha, NewContext())
		if err != nil {
			t.Fatalf("aggregate: %v", err)
		}
		return got
	}
	groupBy := []Evaluator{ColumnEval(0)}

	want := serial(all, groupBy, false, false, finalOut, schema)

	var partials []value.Row
	for _, frag := range frags {
		partials = append(partials, serial(frag, groupBy, true, false, partialOut, schema)...)
	}
	got := serial(partials, []Evaluator{ColumnEval(0)}, false, true, finalOut, partialOut)

	sortRows := func(rs []value.Row) {
		sort.Slice(rs, func(i, j int) bool { return rs[i][0].Compare(rs[j][0]) < 0 })
	}
	sortRows(want)
	sortRows(got)
	if len(got) != len(want) {
		t.Fatalf("merged %d groups, want %d", len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if want[i][j].Compare(got[i][j]) != 0 {
				t.Fatalf("group %d col %d: got %s want %s", i, j, got[i][j], want[i][j])
			}
		}
	}

	// global aggregate over an empty input still yields one (all-empty) row
	// through the partial/merge split
	wantEmpty := serial(nil, nil, false, false, finalOut[1:], schema)
	gotEmpty := serial(serial(nil, nil, true, false, partialOut[1:], schema),
		nil, false, true, finalOut[1:], partialOut[1:])
	if len(wantEmpty) != 1 || len(gotEmpty) != 1 {
		t.Fatalf("empty-input global agg rows: want 1/1, got %d/%d", len(wantEmpty), len(gotEmpty))
	}
	for j := range wantEmpty[0] {
		if wantEmpty[0][j].Compare(gotEmpty[0][j]) != 0 {
			t.Fatalf("empty-input col %d: got %s want %s", j, gotEmpty[0][j], wantEmpty[0][j])
		}
	}
}
