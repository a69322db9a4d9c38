package exec

import (
	"sync"

	"htapxplain/internal/colstore"
	"htapxplain/internal/value"
)

// BatchSize is the number of rows per execution batch. It is aligned with
// the column store's chunk size so a columnar scan emits exactly one batch
// per zone-mapped chunk — raw chunks aliased with no per-row
// materialization, encoded chunks decoded once into pooled buffers.
const BatchSize = colstore.ChunkSize

// Batch is the unit of data flow in the vectorized engine: one vector per
// output column plus an optional selection vector. Operators that drop rows
// (filters, limits) shrink the selection vector instead of copying values;
// the vectors themselves may alias storage and must never be mutated by
// consumers.
type Batch struct {
	// Cols holds one value vector per schema column; every vector is Len
	// values long. Vectors either alias raw column-store chunks directly or
	// are pooled decode buffers owned by the producing scan — alias or
	// decode, never mutate.
	Cols [][]value.Value
	// Sel lists the active row positions in ascending order. A nil Sel
	// means all Len rows are active.
	Sel []int32
	// Len is the physical number of rows in each vector.
	Len int
}

// NumActive returns the number of selected rows.
func (b *Batch) NumActive() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.Len
}

// PosAt maps an active-row ordinal to its physical vector position.
func (b *Batch) PosAt(i int) int {
	if b.Sel != nil {
		return int(b.Sel[i])
	}
	return i
}

// FillRow copies the i-th active row into scratch (which must be
// len(b.Cols) long) and returns it — the bridge that lets row-oriented
// Evaluators run over a batch without allocating.
func (b *Batch) FillRow(i int, scratch value.Row) value.Row {
	p := b.PosAt(i)
	for j, col := range b.Cols {
		scratch[j] = col[p]
	}
	return scratch
}

// AppendRows materializes every active row as a fresh value.Row appended to
// dst — the final step of the legacy Drain contract. Rows never alias
// storage; the whole batch is carved from one allocation.
func (b *Batch) AppendRows(dst []value.Row) []value.Row {
	n := b.NumActive()
	w := len(b.Cols)
	if n == 0 {
		return dst
	}
	slab := make([]value.Value, n*w)
	for i := 0; i < n; i++ {
		p := b.PosAt(i)
		r := slab[i*w : (i+1)*w : (i+1)*w]
		for j, col := range b.Cols {
			r[j] = col[p]
		}
		dst = append(dst, value.Row(r))
	}
	return dst
}

// BatchOperator is a pull-based vectorized physical operator: Open prepares
// execution state, Next returns the next non-empty batch (nil at
// exhaustion), Close releases state. Operator trees held in the plan cache
// are executed concurrently, so a tree is never iterated directly — Clone
// returns a fresh execution instance sharing the immutable plan fields
// (children are cloned recursively) with zeroed iteration state.
type BatchOperator interface {
	Schema() Schema
	Clone() BatchOperator
	Open(ctx *Context) error
	Next(ctx *Context) (*Batch, error)
	Close() error
}

// Operator is the historical name of the physical-operator interface; the
// materializing Run contract it once carried survives only as Drain.
type Operator = BatchOperator

// Drain executes op to completion and materializes its output rows — the
// legacy Operator.Run contract. The tree is cloned first, so a shared
// (cached) plan can be drained by many goroutines concurrently.
func Drain(op BatchOperator, ctx *Context) ([]value.Row, error) {
	return drainOp(op.Clone(), ctx)
}

// drainOp runs Open/Next/Close on an already-private operator tree. When
// the query was granted a degree of parallelism and the tree is a
// forkable per-morsel pipeline, the drain fans out over worker clones
// sharing one morsel cursor and gathers their rows — this is the parallel
// entry point for plain scan/filter/project(/limit) queries and for
// blocking operators that materialize a child (sorts, nested-loop
// inners).
func drainOp(op BatchOperator, ctx *Context) ([]value.Row, error) {
	if ctx.DOP > 1 {
		if pipes, ok := forkPipeline(op, ctx.DOP); ok {
			return drainForked(ctx, pipes)
		}
	}
	if err := op.Open(ctx); err != nil {
		_ = op.Close()
		return nil, err
	}
	var out []value.Row
	for {
		b, err := op.Next(ctx)
		if err != nil {
			_ = op.Close()
			return nil, err
		}
		if b == nil {
			break
		}
		out = b.AppendRows(out)
	}
	if err := op.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// Runner executes one shared plan repeatedly, pooling cloned operator
// trees so steady-state executions reuse their batch buffers instead of
// reallocating them per query — the piece that keeps cached point-query
// plans fast under the vectorized engine. A pooled tree is only ever used
// by one goroutine at a time; concurrency comes from the pool handing out
// distinct clones.
type Runner struct {
	root BatchOperator
	pool sync.Pool
}

// NewRunner wraps a plan root for repeated execution. The root itself is
// seeded into the pool: the first (or any single-threaded) execution runs
// it directly, and clones are only made when executions overlap.
func NewRunner(root BatchOperator) *Runner {
	r := &Runner{root: root}
	r.pool.New = func() any { return root.Clone() }
	r.pool.Put(root)
	return r
}

// Drain executes the plan once and materializes its output rows. Trees
// that errored are discarded rather than returned to the pool.
func (r *Runner) Drain(ctx *Context) ([]value.Row, error) {
	op := r.pool.Get().(BatchOperator)
	rows, err := drainOp(op, ctx)
	if err != nil {
		return nil, err
	}
	r.pool.Put(op)
	return rows, nil
}

// rowWindow transposes a window of rows into a reusable columnar batch —
// the row-adapter used by row-store leaves and by operators that emit
// materialized intermediates (sort, aggregate). All vectors share one
// reusable slab, so a steady-state fill allocates nothing.
type rowWindow struct {
	batch Batch
	slab  []value.Value
}

func (w *rowWindow) init(width int) {
	if w.batch.Cols == nil || len(w.batch.Cols) != width {
		w.batch.Cols = make([][]value.Value, width)
	}
}

func (w *rowWindow) fill(rows []value.Row) *Batch {
	width := len(w.batch.Cols)
	n := len(rows)
	if need := width * n; cap(w.slab) < need {
		w.slab = make([]value.Value, need)
	}
	for j := range w.batch.Cols {
		col := w.slab[j*n : j*n+n : j*n+n]
		for i, r := range rows {
			col[i] = r[j]
		}
		w.batch.Cols[j] = col
	}
	w.batch.Len = n
	w.batch.Sel = nil
	return &w.batch
}

// rowEmitter streams a materialized row slice out as batches.
type rowEmitter struct {
	rows []value.Row
	pos  int
	rw   rowWindow
}

func (e *rowEmitter) reset(rows []value.Row, width int) {
	e.rows = rows
	e.pos = 0
	e.rw.init(width)
}

func (e *rowEmitter) next(ctx *Context) *Batch {
	if e.pos >= len(e.rows) {
		return nil
	}
	end := e.pos + BatchSize
	if end > len(e.rows) {
		end = len(e.rows)
	}
	b := e.rw.fill(e.rows[e.pos:end])
	e.pos = end
	ctx.Stats.BatchesProduced++
	return b
}

// outInitCap is the initial per-column capacity of an output buffer.
// Kept small — point-query results fit the first slab, and pooled runners
// retain grown capacity across executions.
const outInitCap = 8

// outBuffer accumulates produced rows column-wise — the output side of
// operators that construct new tuples (projections, joins). All columns
// live in one slab and grow together, so filling it costs O(log n)
// allocations regardless of width.
type outBuffer struct {
	batch Batch
	cap   int // shared per-column capacity
}

func (o *outBuffer) init(width int) {
	if o.batch.Cols == nil || len(o.batch.Cols) != width {
		o.batch.Cols = make([][]value.Value, width)
		o.cap = 0
	}
	o.reset()
}

func (o *outBuffer) reset() {
	for j := range o.batch.Cols {
		o.batch.Cols[j] = o.batch.Cols[j][:0]
	}
	o.batch.Len = 0
	o.batch.Sel = nil
}

// grow doubles every column's capacity inside one new shared slab.
func (o *outBuffer) grow() {
	ncap := o.cap * 2
	if ncap == 0 {
		ncap = outInitCap
	}
	slab := make([]value.Value, len(o.batch.Cols)*ncap)
	for j, col := range o.batch.Cols {
		ncol := slab[j*ncap : j*ncap+len(col) : (j+1)*ncap]
		copy(ncol, col)
		o.batch.Cols[j] = ncol
	}
	o.cap = ncap
}

// appendRow appends one constructed row (copied value-wise).
func (o *outBuffer) appendRow(r value.Row) {
	n := o.batch.Len
	if n == o.cap {
		o.grow()
	}
	for j := range o.batch.Cols {
		o.batch.Cols[j] = o.batch.Cols[j][:n+1]
		o.batch.Cols[j][n] = r[j]
	}
	o.batch.Len = n + 1
}

// appendSplit appends a join output row taken directly from its two
// sources: the left values from physical position pos of batch b, the
// right values from row tail — no intermediate scratch row.
func (o *outBuffer) appendSplit(b *Batch, pos, leftWidth int, tail value.Row) {
	n := o.batch.Len
	if n == o.cap {
		o.grow()
	}
	cols := o.batch.Cols
	for c := 0; c < leftWidth; c++ {
		cols[c] = cols[c][:n+1]
		cols[c][n] = b.Cols[c][pos]
	}
	// indexed, not `for c, v := range tail`: the range copy goes through a
	// 40-byte stack temporary, and when that straddles a cache line — which
	// depends on how deep the caller's stack is — the probe loop runs a
	// third slower
	for c := range tail {
		cols[leftWidth+c] = cols[leftWidth+c][:n+1]
		cols[leftWidth+c][n] = tail[c]
	}
	o.batch.Len = n + 1
}

func (o *outBuffer) len() int { return o.batch.Len }

func (o *outBuffer) take(ctx *Context) *Batch {
	ctx.Stats.BatchesProduced++
	return &o.batch
}
