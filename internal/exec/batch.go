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
//
// A batch may have no columns at all: Len and Sel then stand for that many
// rows of nothing, which is what a join hands a COUNT(*) that reads none of
// its columns. Every operator and helper here takes its row count from
// NumActive, never from a vector's length, so a zero-column batch flows
// through filters, limits, aggregates, drains (as empty, non-nil rows) and
// EXPLAIN ANALYZE row counts like any other.
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
// storage; the whole batch is carved from one allocation (none for a
// zero-column batch, whose rows are empty but still counted).
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

// Runner executes one shared plan repeatedly, pooling cloned operator
// trees so steady-state executions reuse their batch buffers instead of
// reallocating them per query — the piece that keeps cached point-query
// plans fast under the vectorized engine. The largest buffers, a scan's
// decode targets and a hash join's table arrays, are not kept by the tree:
// they go back to the exec-wide recycler at Close (see recycle.go). A
// pooled tree is only ever used
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
// reusable slab, so a steady-state fill allocates nothing. Zero-width rows
// fill a zero-column batch of the same length.
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
// operators that construct new tuples (projections, joins) and the column
// store of a hash join's build side. All columns live in one slab and grow
// together, so filling it costs O(log n) allocations regardless of width;
// with no columns it allocates nothing and only counts rows.
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

// grow moves every column into one new shared slab whose per-column
// capacity is the current one doubled until it reaches need.
func (o *outBuffer) grow(need int) {
	ncap := max(o.cap*2, outInitCap)
	for ncap < need {
		ncap *= 2
	}
	o.setCap(ncap)
}

// setCap moves every column into one new shared slab with room for ncap
// rows per column.
func (o *outBuffer) setCap(ncap int) {
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
		o.grow(n + 1)
	}
	for j := range o.batch.Cols {
		o.batch.Cols[j] = o.batch.Cols[j][:n+1]
		o.batch.Cols[j][n] = r[j]
	}
	o.batch.Len = n + 1
}

// appendCols appends every active row of b, taking buffer column i from b's
// column cols[i] — a column at a time, one copy per column when b has no
// selection vector.
func (o *outBuffer) appendCols(b *Batch, cols []int) {
	n, add := o.batch.Len, b.NumActive()
	if n+add > o.cap {
		o.grow(n + add)
	}
	for j, c := range cols {
		dst, src := o.batch.Cols[j][:n+add], b.Cols[c]
		if b.Sel == nil {
			copy(dst[n:], src[:b.Len])
		} else {
			for i, p := range b.Sel {
				dst[n+i] = src[p]
			}
		}
		o.batch.Cols[j] = dst
	}
	o.batch.Len = n + add
}

// resize makes the buffer n rows long with unspecified contents, for a
// producer that then fills whole columns by position (gather).
func (o *outBuffer) resize(n int) {
	if n > o.cap {
		o.reset() // nothing worth copying into the new slab
		o.grow(n)
	}
	for j := range o.batch.Cols {
		o.batch.Cols[j] = o.batch.Cols[j][:n]
	}
	o.batch.Len = n
	o.batch.Sel = nil
}

// gather fills column j, already resized to len(idx) rows, with src[idx[i]].
func (o *outBuffer) gather(j int, src []value.Value, idx []int32) {
	dst := o.batch.Cols[j]
	for i, p := range idx {
		dst[i] = src[p]
	}
}

func (o *outBuffer) len() int { return o.batch.Len }

func (o *outBuffer) take(ctx *Context) *Batch {
	ctx.Stats.BatchesProduced++
	return &o.batch
}
