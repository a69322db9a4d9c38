package exec

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"htapxplain/internal/colstore"
	"htapxplain/internal/rowstore"
	"htapxplain/internal/sqlparser"
	"htapxplain/internal/value"
)

// Every physical operator implements the vectorized BatchOperator
// interface.
var (
	_ BatchOperator = (*RowTableScan)(nil)
	_ BatchOperator = (*RowIndexScan)(nil)
	_ BatchOperator = (*RowIndexOrderScan)(nil)
	_ BatchOperator = (*ColTableScan)(nil)
	_ BatchOperator = (*FilterOp)(nil)
	_ BatchOperator = (*ProjectOp)(nil)
	_ BatchOperator = (*NestedLoopJoin)(nil)
	_ BatchOperator = (*IndexNLJoin)(nil)
	_ BatchOperator = (*HashJoin)(nil)
	_ BatchOperator = (*HashAggregate)(nil)
	_ BatchOperator = (*SortOp)(nil)
	_ BatchOperator = (*TopNOp)(nil)
	_ BatchOperator = (*LimitOp)(nil)
)

// ---------------------------------------------------------------- scans

// RowTableScan is a full heap scan of a row-store table, adapted into
// batches at the leaf (the row store has no native vectors).
type RowTableScan struct {
	Table   *rowstore.Table
	Binding string
	out     Schema

	rows   []value.Row
	pos    int
	rw     rowWindow
	closed bool
}

// NewRowTableScan constructs a full-table scan.
func NewRowTableScan(t *rowstore.Table, binding string) *RowTableScan {
	return &RowTableScan{Table: t, Binding: binding, out: TableSchema(t.Meta, binding)}
}

func (s *RowTableScan) Schema() Schema { return s.out }

func (s *RowTableScan) Clone() BatchOperator {
	return &RowTableScan{Table: s.Table, Binding: s.Binding, out: s.out}
}

func (s *RowTableScan) Open(ctx *Context) error {
	s.closed = false
	s.rows = s.Table.Scan()
	s.pos = 0
	s.rw.init(len(s.out))
	return nil
}

func (s *RowTableScan) Next(ctx *Context) (*Batch, error) {
	if s.pos >= len(s.rows) {
		return nil, nil
	}
	end := s.pos + BatchSize
	if end > len(s.rows) {
		end = len(s.rows)
	}
	b := s.rw.fill(s.rows[s.pos:end])
	n := int64(end - s.pos)
	s.pos = end
	ctx.Stats.RowsScanned += n
	ctx.Stats.BytesScanned += n * s.Table.Meta.AvgRowBytes
	ctx.Stats.BatchesProduced++
	return b, nil
}

func (s *RowTableScan) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.rows = nil
	return nil
}

// RowIndexScan fetches rows through an ordered index: either a set of
// point keys (equality / IN list) or a single range. Keys and bounds are
// read at Open, from the literal vector when one is bound.
type RowIndexScan struct {
	Table   *rowstore.Table
	Index   *rowstore.Index
	Binding string
	Keys    *Lits // point lookups; nil → use range
	Lo, Hi  *Lit  // range bounds; nil is open
	out     Schema

	ids     []int32
	keyBuf  []value.Value
	heap    []value.Row
	pos     int
	rowsBuf []value.Row
	rw      rowWindow
	closed  bool
}

// NewRowIndexScan constructs an index access path.
func NewRowIndexScan(t *rowstore.Table, ix *rowstore.Index, binding string, keys *Lits, lo, hi *Lit) *RowIndexScan {
	return &RowIndexScan{Table: t, Index: ix, Binding: binding, Keys: keys, Lo: lo, Hi: hi,
		out: TableSchema(t.Meta, binding)}
}

func (s *RowIndexScan) Schema() Schema { return s.out }

func (s *RowIndexScan) Clone() BatchOperator {
	return &RowIndexScan{Table: s.Table, Index: s.Index, Binding: s.Binding,
		Keys: s.Keys, Lo: s.Lo, Hi: s.Hi, out: s.out}
}

func (s *RowIndexScan) Open(ctx *Context) error {
	s.closed = false
	s.ids = s.ids[:0]
	s.pos = 0
	if s.Keys != nil {
		// keys that compare equal (7, 7, 7.0) share a posting, probed once
		keys := s.Keys.bind(ctx.Params, &s.keyBuf)
		for i, k := range keys {
			if !slices.ContainsFunc(keys[:i], k.Equal) {
				ctx.Stats.IndexProbes++
				s.ids = s.Index.LookupAppend(k, s.ids)
			}
		}
		if len(keys) > 1 {
			slices.Sort(s.ids) // each row in heap order
		}
	} else {
		ctx.Stats.IndexProbes++
		var lo, hi *value.Value
		if s.Lo != nil {
			v := s.Lo.bind(ctx.Params)
			lo = &v
		}
		if s.Hi != nil {
			v := s.Hi.bind(ctx.Params)
			hi = &v
		}
		s.ids = append(s.ids, s.Index.Range(lo, hi)...)
	}
	// snapshot the heap after collecting ids: every id collected above is
	// below the snapshot's length, and heap slots are immutable once written
	s.heap = s.Table.Heap()
	s.rw.init(len(s.out))
	return nil
}

func (s *RowIndexScan) Next(ctx *Context) (*Batch, error) {
	if s.pos >= len(s.ids) {
		return nil, nil
	}
	end := s.pos + BatchSize
	if end > len(s.ids) {
		end = len(s.ids)
	}
	s.rowsBuf = s.rowsBuf[:0]
	for _, id := range s.ids[s.pos:end] {
		s.rowsBuf = append(s.rowsBuf, s.heap[id])
	}
	n := int64(end - s.pos)
	s.pos = end
	ctx.Stats.RowsScanned += n
	ctx.Stats.BytesScanned += n * s.Table.Meta.AvgRowBytes
	ctx.Stats.BatchesProduced++
	return s.rw.fill(s.rowsBuf), nil
}

func (s *RowIndexScan) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.rowsBuf, s.heap = nil, nil
	return nil
}

// RowIndexOrderScan returns rows in index-key order, stopping after
// LimitHint rows pass the optional predicate — the access path behind TP's
// index-ordered Top-N plans. It copies the index a chunk at a time: with
// no predicate the first chunk is the LimitHint ids the scan returns;
// otherwise each chunk is about BatchSize ids of whole keys, and the next
// resumes at the key after the last one copied.
type RowIndexOrderScan struct {
	Table     *rowstore.Table
	Index     *rowstore.Index
	Binding   string
	Desc      bool
	LimitHint int // <=0 means no early stop
	Slots     CountSlots
	Pred      Evaluator
	out       Schema

	hint    int // LimitHint under the execution's literal vector
	ids     []int32
	last    value.Value // last key copied into ids
	more    bool        // keys remain past last
	heap    []value.Row
	pos     int
	matched int
	rowsBuf []value.Row
	rw      rowWindow
	closed  bool
}

// NewRowIndexOrderScan constructs an index-order scan.
func NewRowIndexOrderScan(t *rowstore.Table, ix *rowstore.Index, binding string, desc bool, limitHint int, pred Evaluator) *RowIndexOrderScan {
	return &RowIndexOrderScan{Table: t, Index: ix, Binding: binding, Desc: desc,
		LimitHint: limitHint, Pred: pred, out: TableSchema(t.Meta, binding)}
}

func (s *RowIndexOrderScan) Schema() Schema { return s.out }

func (s *RowIndexOrderScan) Clone() BatchOperator {
	return &RowIndexOrderScan{Table: s.Table, Index: s.Index, Binding: s.Binding,
		Desc: s.Desc, LimitHint: s.LimitHint, Slots: s.Slots, Pred: s.Pred, out: s.out}
}

func (s *RowIndexOrderScan) Open(ctx *Context) error {
	s.closed = false
	s.pos, s.matched = 0, 0
	hint, _ := s.Slots.bind(ctx.Params, int64(s.LimitHint), 0)
	s.hint = int(hint)
	n, whole := BatchSize, true
	if s.Pred == nil && s.hint > 0 {
		// every id read is returned: the first chunk is the whole answer
		n, whole = s.hint, false
	}
	s.ids, s.last, s.more = s.Index.AppendOrdered(s.ids[:0], s.Desc, nil, n, whole)
	s.more = s.more && whole
	// snapshot the heap after collecting ids: every id collected above is
	// below the snapshot's length, and heap slots are immutable once written
	s.heap = s.Table.Heap()
	s.rw.init(len(s.out))
	return nil
}

// nextChunk replaces the consumed chunk with the next one, reporting
// false at the end of the index.
func (s *RowIndexOrderScan) nextChunk() bool {
	if !s.more {
		return false
	}
	last := s.last
	s.ids, s.last, s.more = s.Index.AppendOrdered(s.ids[:0], s.Desc, &last, BatchSize, true)
	s.heap = s.Table.Heap()
	s.pos = 0
	return len(s.ids) > 0
}

func (s *RowIndexOrderScan) Next(ctx *Context) (*Batch, error) {
	if s.hint > 0 && s.matched >= s.hint {
		return nil, nil
	}
	s.rowsBuf = s.rowsBuf[:0]
	for len(s.rowsBuf) < BatchSize {
		if s.pos >= len(s.ids) && !s.nextChunk() {
			break
		}
		row := s.heap[s.ids[s.pos]]
		s.pos++
		ctx.Stats.RowsScanned++
		ctx.Stats.BytesScanned += s.Table.Meta.AvgRowBytes
		if s.Pred != nil {
			ok, err := Truthy(s.Pred, row, ctx.Params)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		s.rowsBuf = append(s.rowsBuf, row)
		s.matched++
		if s.hint > 0 && s.matched >= s.hint {
			break
		}
	}
	if len(s.rowsBuf) == 0 {
		return nil, nil
	}
	ctx.Stats.BatchesProduced++
	return s.rw.fill(s.rowsBuf), nil
}

func (s *RowIndexOrderScan) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	// ids is at most a chunk now, so a pooled tree keeps it, like
	// RowIndexScan does
	s.rowsBuf, s.heap, s.last = nil, nil, value.Value{}
	return nil
}

// ColTableScan is a columnar scan reading only the referenced columns, with
// optional predicate and zone-map pruning. It is the engine's native batch
// source and its native ParallelSource: scan work is drawn morsel-at-a-time
// from a colstore.Morsels cursor — a private one over a freshly pinned view
// in serial execution, or a shared one (built by ForkShared) that spreads
// disjoint chunk-aligned morsels across worker clones. Zone-map pruning
// lives inside the morsel cursor, so skipped chunks are counted at dispatch
// and never reach the scan. Each non-pruned base morsel becomes one batch
// under the "alias or decode, never mutate" contract: raw chunk vectors
// are aliased directly with zero per-row materialization, and encoded
// chunks are decoded into buffers the clone borrows until Close. The
// predicate — the pruner's encoded-domain prefilter, the delete set, then a
// ScanFilter, an ordered list of selection kernels (see filter.go) — runs
// on positions and codes before anything is decoded, and each emitted
// column is then decoded once, at the surviving rows only. The scan reads
// Cols but emits only the first Emit of them: the rest are the columns
// only its predicate reads, tested in the scan and never passed up (late
// materialization). Under an aggregate that folds its chunks as stored
// (see storedFold), the columns it folds that way are not decoded either:
// the morsel's chunks go up beside the batch. The pinned view unions the
// immutable base chunks with the replicated delta rows, which are batched
// through a private projection slab — AP reads are fresh up to the column
// store's replication watermark, and the delta snapshot is pinned exactly
// once per query however many workers share the cursor.
type ColTableScan struct {
	Table   *colstore.Table
	Binding string
	// Cols are the table column positions the scan reads (projection
	// pushdown): the Emit columns it emits, then those only Filter reads.
	// Filter is compiled against all of them.
	Cols   []int
	Emit   int
	Filter ScanFilter
	Pruner *colstore.RangePruner
	// PrunerSlots are the slots of Pruner's Lo and Hi (0: the planned
	// bound); a one-key IN list's slot is both.
	PrunerSlots [2]int
	// PrunerKernels marks the positions in Filter (below 64) of the
	// conjuncts Pruner's range stands for, bit for bit. On a base chunk
	// that the pruner prefiltered, those column kernels would only test its
	// survivors again, and they are skipped.
	PrunerKernels uint64
	out           Schema // the schema of Cols; the scan's is out[:Emit]

	// shared, when set (by ForkShared), is the cross-worker morsel cursor
	// this clone draws from instead of pinning its own view.
	shared *colstore.Morsels

	// filter and pruner are Filter and Pruner under the execution's literal
	// vector (see bind); kernels and bounded hold them when a slot moved
	// them.
	filter  ScanFilter
	pruner  *colstore.RangePruner
	kernels ScanFilter
	bounded struct {
		pr     colstore.RangePruner
		bounds [2]value.Value // Lo, Hi
	}

	src   *colstore.Morsels
	view  colstore.View
	batch Batch // its Cols are vecs[:Emit]
	// vecs are the read columns' vectors; ready marks those that hold
	// their values at every current candidate of the morsel.
	vecs    [][]value.Value
	ready   []bool
	selBuf  []int32
	preSel  []int32 // encoded-domain prefilter scratch
	keepBuf []bool  // per-dictionary-entry or per-run kernel results
	scratch value.Row
	// chunkBuf holds the current morsel's per-column encoded chunks;
	// decodeBuf is the per-column decode target for encoded chunks,
	// borrowed from the process-wide recycler on a column's first encoded
	// chunk and kept across morsels, then given back at Close — an idle
	// pooled tree holds none. fullDecode records that the current morsel
	// decoded some column at every row.
	chunkBuf   []*colstore.EncodedChunk
	decodeBuf  []decodeTarget
	fullDecode bool
	deltaSlab  []value.Value
	closed     bool
	// fold, set by the aggregate this scan feeds (see storedFold), leaves
	// undecoded the columns that aggregate folds as stored; stored is then
	// the current batch's emitted chunks as stored, nil for a delta batch.
	fold   *storedFold
	stored []*colstore.EncodedChunk
	// forks are the clones ForkShared made, kept for the next execution.
	forks []*ColTableScan
}

// NewColTableScan constructs a columnar scan over the given column subset,
// emitting all of it; filter is compiled against the subset's schema.
func NewColTableScan(t *colstore.Table, binding string, cols []int, filter ScanFilter, pruner *colstore.RangePruner) *ColTableScan {
	out := make(Schema, len(cols))
	full := TableSchema(t.Meta, binding)
	for i, c := range cols {
		out[i] = full[c]
	}
	return &ColTableScan{Table: t, Binding: binding, Cols: cols, Emit: len(cols), Filter: filter, Pruner: pruner, out: out}
}

func (s *ColTableScan) Schema() Schema { return s.out[:s.Emit] }

func (s *ColTableScan) Clone() BatchOperator {
	return &ColTableScan{Table: s.Table, Binding: s.Binding, Cols: s.Cols, Emit: s.Emit,
		Filter: s.Filter, Pruner: s.Pruner, PrunerSlots: s.PrunerSlots, PrunerKernels: s.PrunerKernels, out: s.out}
}

// bind specialises the scan to the literal vector p, once per execution:
// its selection kernels, and its pruner's bounds — which chunks the morsel
// cursor skips and the encoded prefilter selects.
func (s *ColTableScan) bind(p *Params) {
	s.filter = s.Filter.bind(p, &s.kernels)
	s.pruner = s.Pruner
	if s.Pruner == nil || !p.bound() || s.PrunerSlots == [2]int{} {
		return
	}
	b := &s.bounded
	b.pr = *s.Pruner
	for i, slot := range s.PrunerSlots {
		if slot == 0 {
			continue
		}
		vs := p.span(slot)
		if len(vs) != 1 {
			// a one-key IN list bound to several keys: no one range
			// stands for them, and the kernels alone select
			s.pruner = nil
			return
		}
		b.bounds[i] = vs[0]
		if i == 0 {
			b.pr.Lo = &b.bounds[0]
		} else {
			b.pr.Hi = &b.bounds[1]
		}
	}
	s.pruner = &b.pr
}

// ForkShared pins one view of the table and returns scan clones that all
// draw morsels from a single shared cursor — the ParallelSource contract.
// The clone count is dop clamped to the morsel supply: workers beyond it
// would only pay goroutine and Open overhead to receive nothing. Pruning
// state (bound to p) and the delta snapshot live in the shared cursor;
// per-batch buffers stay private to each clone. The scan keeps its clones,
// so the next execution of a pooled tree forks the same ones, their
// buffers made at their first Open.
func (s *ColTableScan) ForkShared(dop int, p *Params) []BatchOperator {
	s.bind(p)
	src := colstore.NewMorsels(s.Table.View(), s.pruner)
	if n := src.NumMorsels(); dop > n {
		dop = n
	}
	if dop < 1 {
		dop = 1
	}
	for len(s.forks) < dop {
		s.forks = append(s.forks, s.Clone().(*ColTableScan))
	}
	out := make([]BatchOperator, dop)
	for i := range out {
		s.forks[i].shared = src
		out[i] = s.forks[i]
	}
	return out
}

func (s *ColTableScan) Open(ctx *Context) error {
	s.closed = false
	s.bind(ctx.Params)
	if s.shared != nil {
		s.src = s.shared
		s.view = s.shared.View
	} else {
		s.view = s.Table.View()
		s.src = colstore.NewMorsels(s.view, s.pruner)
	}
	if s.vecs == nil {
		s.vecs = make([][]value.Value, len(s.Cols))
		s.ready = make([]bool, len(s.Cols))
		s.batch.Cols = s.vecs[:s.Emit]
		s.scratch = make(value.Row, len(s.Cols))
		s.chunkBuf = make([]*colstore.EncodedChunk, len(s.Cols))
		s.decodeBuf = make([]decodeTarget, len(s.Cols))
	}
	return nil
}

func (s *ColTableScan) Next(ctx *Context) (*Batch, error) {
	// modeled bytes: column subset width only — the columnar advantage
	perCol := s.Table.Meta.AvgRowBytes / int64(len(s.Table.Meta.Columns))
	if perCol < 1 {
		perCol = 1
	}
	for {
		if ctx.Canceled() {
			return nil, nil // early termination reads as exhaustion
		}
		m, pruned, ok := s.src.Next()
		ctx.Stats.ChunksSkipped += pruned
		if !ok {
			return nil, nil
		}
		ctx.Stats.MorselsDispatched++
		var b *Batch
		var err error
		if m.Base {
			ctx.Stats.ChunksScanned++
			b, err = s.baseBatch(ctx, m, perCol)
		} else {
			b, err = s.deltaBatch(ctx, m, perCol)
		}
		if err != nil {
			return nil, err
		}
		if b == nil {
			continue // fully filtered morsel
		}
		ctx.Stats.BatchesProduced++
		return b, nil
	}
}

// baseBatch turns one base-chunk morsel into a batch under the "alias or
// decode, never mutate" contract, selecting before it decodes: the
// pruner's encoded-domain prefilter, the delete set and the selection
// kernels narrow the candidate positions on the chunks as stored (see
// selectBase), and only then is each emitted column aliased (raw) or
// decoded (encoded) — at the survivors only when some row was dropped. A
// chunk with an encoded read column counts as decoded when some column was
// decoded at every row, as encoded otherwise. Returns nil when no row
// survives.
func (s *ColTableScan) baseBatch(ctx *Context, m colstore.Morsel, perCol int64) (*Batch, error) {
	rows := m.Rows()
	ctx.Stats.RowsScanned += int64(rows)
	ctx.Stats.BytesScanned += int64(rows) * perCol * int64(len(s.Cols))
	anyEnc := false
	for j, c := range s.Cols {
		ch := s.view.Cols[c].Chunk(m.Chunk)
		s.chunkBuf[j], s.ready[j] = ch, false
		if ch.Enc != colstore.EncRaw {
			anyEnc = true
		}
	}
	s.fullDecode = false
	sel, some, err := s.selectBase(ctx, m, anyEnc)
	if err == nil && some {
		for j := 0; j < s.Emit; j++ {
			if !s.foldsStored(j) {
				s.vector(j, sel)
			}
		}
	}
	if anyEnc {
		if s.fullDecode {
			ctx.Stats.DecodedChunks++
		} else {
			ctx.Stats.EncodedChunks++
		}
	}
	if err != nil || !some {
		return nil, err
	}
	s.batch.Len, s.batch.Sel = rows, sel
	if s.fold != nil {
		s.stored = s.chunkBuf[:s.Emit]
	}
	return &s.batch, nil
}

// foldsStored reports whether the aggregate this scan feeds folds emitted
// column j of the current morsel as stored, so it is not decoded.
func (s *ColTableScan) foldsStored(j int) bool {
	f := s.fold
	return f != nil && (f.global || j == f.byCode && s.chunkBuf[j].Enc == colstore.EncDict)
}

// selectBase narrows the morsel's rows to the predicate's survivors (nil:
// every row), with some false when none survives. When the pruner
// is an exact representation of the scan's predicate, the chunk-level
// RangeSel over the (possibly encoded) pruner column IS the filter, and
// the selection kernels never run on base chunks; otherwise it only
// pre-narrows the candidates (the conjuncts it stands for bound every
// match), and their column kernels are not run again.
func (s *ColTableScan) selectBase(ctx *Context, m colstore.Morsel, anyEnc bool) (sel []int32, some bool, err error) {
	rows := m.Rows()
	selExact := false      // sel already reflects the full predicate
	var prefiltered uint64 // the kernels the prefilter applied
	if pr := s.pruner; pr != nil && (pr.Exact || anyEnc) {
		pch := s.view.Cols[pr.Col].Chunk(m.Chunk)
		res, all := pch.RangeSel(pr.Lo, pr.Hi, pr.LoStrict, pr.HiStrict, s.preSel[:0])
		s.preSel = res
		if !all {
			if len(res) == 0 {
				return nil, false, nil
			}
			sel = res
		}
		selExact, prefiltered = pr.Exact, s.PrunerKernels
	}
	if dead := s.view.BaseDead.Chunk(m.Chunk); dead != nil {
		out := s.selBuf[:0]
		n := rows
		if sel != nil {
			n = len(sel)
		}
		for ii := 0; ii < n; ii++ {
			i := ii
			if sel != nil {
				i = int(sel[ii])
			}
			if !dead.Has(i) {
				out = append(out, int32(i))
			}
		}
		s.selBuf, sel = out, out
		if len(sel) == 0 {
			return nil, false, nil
		}
	}
	if selExact {
		return sel, true, nil
	}
	for i := range s.filter {
		if prefiltered>>i&1 != 0 && s.filter[i].row == nil {
			continue
		}
		out, all, err := s.narrowBase(&s.filter[i], rows, sel, ctx.Params)
		if err != nil {
			return nil, false, err
		}
		if !all {
			s.selBuf, sel = out, out
			if len(sel) == 0 {
				return nil, false, nil
			}
		}
	}
	return sel, true, nil
}

// narrowBase runs one selection kernel over the morsel's candidates (nil:
// every row), reporting all when it kept every one. A column kernel runs
// on its column's chunk as stored where the encoding allows (narrowChunk)
// and on its decoded values otherwise; the row kernel decodes every read
// column at the candidates and evaluates the predicate over rows.
func (s *ColTableScan) narrowBase(k *selKernel, rows int, cand []int32, p *Params) ([]int32, bool, error) {
	if k.row == nil {
		if out, all, ok := k.narrowChunk(s.chunkBuf[k.col], cand, s.selBuf[:0], &s.keepBuf); ok {
			return out, all, nil
		}
		s.vector(k.col, cand)
		out, err := k.narrow(s.vecs, rows, cand, s.selBuf[:0], nil, p)
		return out, false, err
	}
	for j := range s.Cols {
		s.vector(j, cand)
	}
	out, err := narrowRows(k.row, s.vecs, rows, cand, s.selBuf[:0], s.scratch, p)
	return out, false, err
}

// vector makes read column j's vector hold its values at every candidate
// (cand; nil: all rows), once per morsel: a raw chunk is aliased, an
// encoded one decoded into the column's borrowed target — at the
// candidates only, when there is a list. Candidates only ever narrow, so a
// vector made ready stays ready for the rest of the morsel.
func (s *ColTableScan) vector(j int, cand []int32) {
	if s.ready[j] {
		return
	}
	s.ready[j] = true
	var full bool
	s.vecs[j], full = valuesAt(s.chunkBuf[j], &s.decodeBuf[j], cand)
	s.fullDecode = s.fullDecode || full
}

// valuesAt returns chunk ch's values at the positions cand (every row when
// cand is nil): a raw chunk's own vector, never to be mutated, or ch
// decoded into d — at cand only, so other positions hold stale values.
// full reports a decode of every row.
func valuesAt(ch *colstore.EncodedChunk, d *decodeTarget, cand []int32) (vals []value.Value, full bool) {
	if ch.Enc == colstore.EncRaw {
		return ch.Raw, false
	}
	buf := d.get(ch.N)
	if cand != nil {
		ch.DecodeSel(buf, cand)
		return buf, false
	}
	return ch.Decode(buf), true
}

// deltaBatch emits one window of the replicated-but-unmerged delta rows,
// projected into a private reusable slab and narrowed by the selection
// kernels. Returns nil when no row survives the predicate.
func (s *ColTableScan) deltaBatch(ctx *Context, m colstore.Morsel, perCol int64) (*Batch, error) {
	rows := s.view.Delta[m.Lo:m.Hi]
	s.deltaSlab = projectRows(s.vecs, rows, s.Cols, s.deltaSlab)
	s.batch.Len, s.batch.Sel, s.stored = len(rows), nil, nil
	ctx.Stats.RowsScanned += int64(len(rows))
	ctx.Stats.BytesScanned += int64(len(rows)) * perCol * int64(len(s.Cols))
	if len(s.filter) > 0 {
		sel, err := s.filter.apply(s.vecs, len(rows), nil, &s.selBuf, s.scratch, ctx.Params)
		if err != nil || len(sel) == 0 {
			return nil, err
		}
		s.batch.Sel = sel
	}
	return &s.batch, nil
}

// projectRows sets vecs to rows projected onto the table columns cols, a
// column at a time — delta rows are full table width, a scan reads only
// its subset — in slab, grown as needed and returned.
func projectRows(vecs [][]value.Value, rows []value.Row, cols []int, slab []value.Value) []value.Value {
	nr := len(rows)
	if cap(slab) < nr*len(cols) {
		slab = make([]value.Value, nr*len(cols))
	}
	for j, c := range cols {
		col := slab[j*nr : j*nr+nr : j*nr+nr]
		for i, r := range rows {
			col[i] = r[c]
		}
		vecs[j] = col
	}
	return slab
}

func (s *ColTableScan) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	for j := range s.vecs {
		s.vecs[j] = nil // drop storage aliases
	}
	for j := range s.chunkBuf {
		s.chunkBuf[j] = nil // drop encoded-chunk aliases
	}
	for j := range s.decodeBuf {
		s.decodeBuf[j].release()
	}
	s.view = colstore.View{}
	s.src = nil
	return nil
}

// ---------------------------------------------------------------- filter / project

// FilterOp applies a predicate to its child's output by narrowing the
// selection vector in place — no values are copied.
type FilterOp struct {
	Child Operator
	Pred  Evaluator

	scratch value.Row
	selBuf  []int32
	closed  bool
}

func (f *FilterOp) Schema() Schema { return f.Child.Schema() }

func (f *FilterOp) Clone() BatchOperator {
	return &FilterOp{Child: f.Child.Clone(), Pred: f.Pred}
}

func (f *FilterOp) Open(ctx *Context) error {
	f.closed = false
	if f.scratch == nil {
		f.scratch = make(value.Row, len(f.Schema()))
	}
	return f.Child.Open(ctx)
}

func (f *FilterOp) Next(ctx *Context) (*Batch, error) {
	for {
		b, err := f.Child.Next(ctx)
		if err != nil || b == nil {
			return nil, err
		}
		sel := f.selBuf[:0]
		n := b.NumActive()
		for i := 0; i < n; i++ {
			p := b.PosAt(i)
			for j := range b.Cols {
				f.scratch[j] = b.Cols[j][p]
			}
			ok, err := Truthy(f.Pred, f.scratch, ctx.Params)
			if err != nil {
				return nil, err
			}
			if ok {
				sel = append(sel, int32(p))
			}
		}
		f.selBuf = sel
		if len(sel) == 0 {
			continue
		}
		b.Sel = sel
		ctx.Stats.BatchesProduced++
		return b, nil
	}
}

func (f *FilterOp) Close() error {
	if f.closed {
		return nil
	}
	f.closed = true
	return f.Child.Close()
}

// ProjectOp evaluates expressions into a new schema, producing dense output
// vectors (one value per active input row).
type ProjectOp struct {
	Child Operator
	Evals []Evaluator
	Out   Schema

	scratch value.Row
	out     outBuffer
	rowBuf  value.Row
	closed  bool
}

func (p *ProjectOp) Schema() Schema { return p.Out }

func (p *ProjectOp) Clone() BatchOperator {
	return &ProjectOp{Child: p.Child.Clone(), Evals: p.Evals, Out: p.Out}
}

func (p *ProjectOp) Open(ctx *Context) error {
	p.closed = false
	if p.scratch == nil {
		p.scratch = make(value.Row, len(p.Child.Schema()))
		p.rowBuf = make(value.Row, len(p.Evals))
	}
	p.out.init(len(p.Evals))
	return p.Child.Open(ctx)
}

func (p *ProjectOp) Next(ctx *Context) (*Batch, error) {
	b, err := p.Child.Next(ctx)
	if err != nil || b == nil {
		return nil, err
	}
	p.out.reset()
	n := b.NumActive()
	for i := 0; i < n; i++ {
		b.FillRow(i, p.scratch)
		for j, ev := range p.Evals {
			v, err := ev(p.scratch, ctx.Params)
			if err != nil {
				return nil, err
			}
			p.rowBuf[j] = v
		}
		p.out.appendRow(p.rowBuf)
	}
	return p.out.take(ctx), nil
}

func (p *ProjectOp) Close() error {
	if p.closed {
		return nil
	}
	p.closed = true
	return p.Child.Close()
}

// ---------------------------------------------------------------- joins

// NestedLoopJoin joins outer × inner with an arbitrary predicate over the
// concatenated schema. The inner input is materialized once at Open and
// rescanned per outer row (comparisons are counted — this is what makes
// indexless TP joins slow at scale); the outer side streams batch-at-a-time.
type NestedLoopJoin struct {
	Outer, Inner Operator
	Pred         Evaluator // may be nil (cross join)
	out          Schema

	innerRows []value.Row
	combined  value.Row
	outBuf    outBuffer
	closed    bool
}

// NewNestedLoopJoin constructs the join; pred must be compiled against
// outer.Schema().Concat(inner.Schema()).
func NewNestedLoopJoin(outer, inner Operator, pred Evaluator) *NestedLoopJoin {
	return &NestedLoopJoin{Outer: outer, Inner: inner, Pred: pred,
		out: outer.Schema().Concat(inner.Schema())}
}

func (j *NestedLoopJoin) Schema() Schema { return j.out }

func (j *NestedLoopJoin) Clone() BatchOperator {
	return &NestedLoopJoin{Outer: j.Outer.Clone(), Inner: j.Inner.Clone(),
		Pred: j.Pred, out: j.out}
}

func (j *NestedLoopJoin) Open(ctx *Context) error {
	j.closed = false
	// the tree is private by the time it executes (Drain/Runner clone it),
	// so the inner child can be drained in place, keeping its buffers
	rows, err := drainOp(j.Inner, ctx)
	if err != nil {
		return err
	}
	j.innerRows = rows
	if j.combined == nil {
		j.combined = make(value.Row, len(j.out))
	}
	j.outBuf.init(len(j.out))
	return j.Outer.Open(ctx)
}

func (j *NestedLoopJoin) Next(ctx *Context) (*Batch, error) {
	outerWidth := len(j.Outer.Schema())
	for {
		ob, err := j.Outer.Next(ctx)
		if err != nil || ob == nil {
			return nil, err
		}
		j.outBuf.reset()
		n := ob.NumActive()
		for i := 0; i < n; i++ {
			p := ob.PosAt(i)
			for c := 0; c < outerWidth; c++ {
				j.combined[c] = ob.Cols[c][p]
			}
			for _, in := range j.innerRows {
				ctx.Stats.JoinComparisons++
				copy(j.combined[outerWidth:], in)
				ok := true
				if j.Pred != nil {
					ok, err = Truthy(j.Pred, j.combined, ctx.Params)
					if err != nil {
						return nil, err
					}
				}
				if ok {
					j.outBuf.appendRow(j.combined)
				}
			}
		}
		if j.outBuf.len() > 0 {
			return j.outBuf.take(ctx), nil
		}
	}
}

func (j *NestedLoopJoin) Close() error {
	if j.closed {
		return nil
	}
	j.closed = true
	j.innerRows = nil
	return j.Outer.Close()
}

// IndexNLJoin is a nested-loop join whose inner side is an index probe:
// each outer batch is probed row-by-row through the inner index. This is
// TP's preferred join when an index exists on the inner join column.
type IndexNLJoin struct {
	Outer       Operator
	OuterKeyCol int
	InnerTable  *rowstore.Table
	InnerIndex  *rowstore.Index
	InnerBind   string
	Residual    Evaluator // over concat schema; may be nil
	out         Schema

	combined  value.Row
	innerHeap []value.Row
	idsBuf    []int32
	outBuf    outBuffer
	closed    bool
}

// NewIndexNLJoin constructs an index nested-loop join.
func NewIndexNLJoin(outer Operator, outerKeyCol int, it *rowstore.Table, ix *rowstore.Index, innerBind string, residual Evaluator) *IndexNLJoin {
	return &IndexNLJoin{
		Outer: outer, OuterKeyCol: outerKeyCol, InnerTable: it, InnerIndex: ix,
		InnerBind: innerBind, Residual: residual,
		out: outer.Schema().Concat(TableSchema(it.Meta, innerBind)),
	}
}

func (j *IndexNLJoin) Schema() Schema { return j.out }

func (j *IndexNLJoin) Clone() BatchOperator {
	return &IndexNLJoin{Outer: j.Outer.Clone(), OuterKeyCol: j.OuterKeyCol,
		InnerTable: j.InnerTable, InnerIndex: j.InnerIndex, InnerBind: j.InnerBind,
		Residual: j.Residual, out: j.out}
}

func (j *IndexNLJoin) Open(ctx *Context) error {
	j.closed = false
	if j.combined == nil {
		j.combined = make(value.Row, len(j.out))
	}
	j.innerHeap = j.InnerTable.Heap()
	j.outBuf.init(len(j.out))
	return j.Outer.Open(ctx)
}

// innerRow resolves a probed heap id against the pinned heap snapshot,
// refreshing it when a concurrently inserted row lies beyond the
// snapshot (heap slots are immutable and append-only, so the refreshed
// snapshot is a superset).
func (j *IndexNLJoin) innerRow(id int32) value.Row {
	if int(id) >= len(j.innerHeap) {
		j.innerHeap = j.InnerTable.Heap()
	}
	return j.innerHeap[id]
}

func (j *IndexNLJoin) Next(ctx *Context) (*Batch, error) {
	outerWidth := len(j.Outer.Schema())
	for {
		ob, err := j.Outer.Next(ctx)
		if err != nil || ob == nil {
			return nil, err
		}
		j.outBuf.reset()
		n := ob.NumActive()
		for i := 0; i < n; i++ {
			p := ob.PosAt(i)
			ctx.Stats.IndexProbes++
			ids := j.InnerIndex.LookupAppend(ob.Cols[j.OuterKeyCol][p], j.idsBuf[:0])
			j.idsBuf = ids
			if len(ids) == 0 {
				continue
			}
			for c := 0; c < outerWidth; c++ {
				j.combined[c] = ob.Cols[c][p]
			}
			for _, id := range ids {
				in := j.innerRow(id)
				ctx.Stats.RowsScanned++
				ctx.Stats.BytesScanned += j.InnerTable.Meta.AvgRowBytes
				copy(j.combined[outerWidth:], in)
				if j.Residual != nil {
					ok, err := Truthy(j.Residual, j.combined, ctx.Params)
					if err != nil {
						return nil, err
					}
					if !ok {
						continue
					}
				}
				j.outBuf.appendRow(j.combined)
			}
		}
		if j.outBuf.len() > 0 {
			return j.outBuf.take(ctx), nil
		}
	}
}

func (j *IndexNLJoin) Close() error {
	if j.closed {
		return nil
	}
	j.closed = true
	j.innerHeap = nil
	return j.Outer.Close()
}

// HashJoin builds a hash table on the Build child at Open and probes it a
// batch at a time with the Probe child. It outputs the columns of
// probe ++ build (probe side first, matching the AP optimizer's plan
// rendering) that Emit lists — the ones some operator above reads; a
// COUNT(*) over a join chain moves one key column per stage and nothing at
// the top.
//
// The table (joinTable) is columnar: the build key, the build columns the
// output or the residual needs, and a hashIndex over the rows (see
// hashkey.go). No row is materialized and no per-row key rendered on either
// side. Chains run in build order, so a probe row meets its matches in the
// order the build child produced them. The table's integer arrays come from
// the recycler (recycle.go), and Close gives them back — a pooled Runner
// tree outlives the query, and the table must not.
//
// A built table also reduces the builds below it (semi-join reduction):
// with one key column, Open traces the probe key down the probe chain —
// through hash joins and EXPLAIN ANALYZE wrappers, nothing else — and, when
// it comes out of a lower join's build side, gives that join a keyFilter
// before opening the probe child, which opens (and builds) that join
// next. The lower build then keeps only rows whose key the table contains
// under match's rules, and pushes its own smaller table further down.
// Every join here is an inner equi-join and the trace crosses only joins,
// which copy key values unchanged, so a dropped build row could only have
// produced rows this join drops: a residual above does not matter, the
// filter being only a necessary condition. Plans, EXPLAIN text and costs
// are untouched; HashBuildRows counts the rows kept.
type HashJoin struct {
	Probe, Build         Operator
	ProbeKeys, BuildKeys []int
	Residual             Evaluator // over concat(probe, build); may be nil
	out                  Schema

	// Plan-time shape, shared by clones: the probe columns emitted, the build
	// columns the table keeps (the emitted ones; all of them under a
	// residual, which reads whole rows), and for every emitted build column
	// its position among the kept ones.
	emitProbe, keep, emitKept []int

	table    joinTable
	filters  []keyFilter // upper joins' tables, for the next build only
	pIdx     []int32     // current probe batch's matches: probe position ...
	bIdx     []int32     // ... and build row, pairwise
	combined value.Row
	outBuf   outBuffer
	closed   bool
}

// NewHashJoin constructs a hash join. emit lists, ascending, the positions
// of concat(probe, build) the join outputs; nil outputs all of them.
func NewHashJoin(probe, build Operator, probeKeys, buildKeys []int, residual Evaluator, emit []int) *HashJoin {
	concat := probe.Schema().Concat(build.Schema())
	pw, bw := len(probe.Schema()), len(build.Schema())
	if emit == nil {
		emit = identityCols(len(concat))
	}
	j := &HashJoin{Probe: probe, Build: build, ProbeKeys: probeKeys, BuildKeys: buildKeys,
		Residual: residual, out: make(Schema, len(emit))}
	var emitBuild []int
	for i, c := range emit {
		j.out[i] = concat[c]
		if c < pw {
			j.emitProbe = append(j.emitProbe, c)
		} else {
			emitBuild = append(emitBuild, c-pw)
		}
	}
	j.keep, j.emitKept = emitBuild, identityCols(len(emitBuild))
	if residual != nil {
		j.keep, j.emitKept = identityCols(bw), emitBuild
	}
	return j
}

func identityCols(n int) []int {
	cols := make([]int, n)
	for i := range cols {
		cols[i] = i
	}
	return cols
}

func (j *HashJoin) Schema() Schema { return j.out }

func (j *HashJoin) Clone() BatchOperator {
	return &HashJoin{Probe: j.Probe.Clone(), Build: j.Build.Clone(),
		ProbeKeys: j.ProbeKeys, BuildKeys: j.BuildKeys, Residual: j.Residual, out: j.out,
		emitProbe: j.emitProbe, keep: j.keep, emitKept: j.emitKept}
}

func (j *HashJoin) Open(ctx *Context) error {
	j.closed = false
	if err := j.build(ctx); err != nil {
		return err
	}
	if j.Residual != nil && j.combined == nil {
		j.combined = make(value.Row, len(j.Probe.Schema())+len(j.Build.Schema()))
	}
	j.outBuf.init(len(j.out))
	j.pushFilter()
	return j.Probe.Open(ctx)
}

// keyFilter is an upper join's table handed to a lower join's build: a
// build row whose column col holds no key of table cannot reach a row the
// upper join keeps.
type keyFilter struct {
	col   int
	table *joinTable
}

// pushFilter traces a one-column probe key down the probe chain and, when
// a lower join's build side supplies it, files this join's table as a
// filter on that build. Each join's output column is a probe column
// (emitProbe) or a kept build column (keep[emitKept[…]]); an EXPLAIN
// ANALYZE wrapper is transparent, and any other operator ends the trace.
func (j *HashJoin) pushFilter() {
	if len(j.ProbeKeys) != 1 {
		return
	}
	c, op := j.ProbeKeys[0], j.Probe
	for {
		switch x := op.(type) {
		case *analyzeOp:
			op = x.child
		case *HashJoin:
			if c < len(x.emitProbe) {
				c, op = x.emitProbe[c], x.Probe
				continue
			}
			x.filters = append(x.filters, keyFilter{col: x.keep[x.emitKept[c-len(x.emitProbe)]], table: &j.table})
			return
		default:
			return
		}
	}
}

// joinTable is a hash join's build side, held column-wise. While the join
// has one key column and every build key met so far is an int, the keys are
// a bare []int64, and the complete build is indexed by offset from its
// smallest key when the keys are dense (a primary key's 1..N) or chained
// under hashInt otherwise; the probe works on integers inline either way.
// The first key of any other kind (NULL, float, bool, string) spills the
// table to the generic form — one value vector per key column plus a hash
// per row — so which form a join runs in is decided by its data, and
// hashkey.go's key semantics hold in every form: an int matches only an
// int.
type joinTable struct {
	ints   []int64         // int form: row i's key; nil in the generic form
	keys   [][]value.Value // generic form: one vector per key column
	hashes []uint64        // generic form: row i's key hash
	cols   outBuffer       // the kept build columns; its Len is the row count
	index  hashIndex       // over the rows, linked once the build is complete
}

// init readies an empty table for a join with nkeys key columns keeping
// width build columns: the key (or hash) array, taken from the recycler,
// with room for bound rows, the columns presized for colBound.
func (t *joinTable) init(nkeys, width, bound, colBound int) {
	if nkeys == 1 {
		t.ints = keyArrays.take(bound)[:0]
	} else {
		t.keys = make([][]value.Value, nkeys)
		t.hashes = hashArrays.take(bound)[:0]
	}
	t.cols.init(width)
	t.cols.setCap(colBound)
}

// spill leaves the int form: the keys so far become a value vector and
// their hashes, exactly what the generic form would have stored for them.
func (t *joinTable) spill() {
	vec := make([]value.Value, len(t.ints))
	t.hashes = hashArrays.take(cap(t.ints))[:len(t.ints)]
	for i, k := range t.ints {
		vec[i] = value.NewInt(k)
		t.hashes[i] = hashInt(k)
	}
	keyArrays.give(t.ints)
	t.keys, t.ints = [][]value.Value{vec}, nil
}

// release gives the table's recycled arrays back and empties it.
func (t *joinTable) release() {
	keyArrays.give(t.ints)
	hashArrays.give(t.hashes)
	t.index.release()
	*t = joinTable{}
}

// add appends b's active rows: keys from columns keyCols, kept columns from
// columns keep.
func (t *joinTable) add(b *Batch, keyCols, keep []int) {
	n := b.NumActive()
	if t.ints != nil {
		t.ints = keyArrays.grow(t.ints, n)
		kc, base := b.Cols[keyCols[0]], len(t.ints)
		for i := 0; i < n; i++ {
			v := &kc[b.PosAt(i)]
			if v.K != value.KindInt {
				t.ints = t.ints[:base]
				t.spill()
				break
			}
			t.ints = append(t.ints, v.I)
		}
	}
	if t.ints == nil {
		t.hashes = hashArrays.grow(t.hashes, n)
		for i := 0; i < n; i++ {
			p := b.PosAt(i)
			t.hashes = append(t.hashes, hashBatchCols(b, p, keyCols))
			for k, c := range keyCols {
				t.keys[k] = append(t.keys[k], b.Cols[c][p])
			}
		}
	}
	t.cols.appendCols(b, keep)
}

// absorb appends all of o's rows, spilling either side so the forms agree,
// and leaves o empty, its arrays back in the recycler.
func (t *joinTable) absorb(o *joinTable) {
	defer o.release()
	if o.cols.len() == 0 {
		return
	}
	if t.cols.len() == 0 {
		t.release()
		*t, *o = *o, joinTable{}
		return
	}
	if t.ints != nil && o.ints != nil {
		t.ints = append(keyArrays.grow(t.ints, len(o.ints)), o.ints...)
	} else {
		if t.ints != nil {
			t.spill()
		}
		if o.ints != nil {
			o.spill()
		}
		t.hashes = append(hashArrays.grow(t.hashes, len(o.hashes)), o.hashes...)
		for k := range t.keys {
			t.keys[k] = append(t.keys[k], o.keys[k]...)
		}
	}
	t.cols.appendCols(&o.cols.batch, identityCols(len(o.cols.batch.Cols)))
}

// build constructs the hash table from the Build child: serially, or — when
// the query has a degree of parallelism and the build side is a forkable
// per-morsel pipeline — partitioned, each worker filling a table of its own
// from disjoint morsels. Partitions are concatenated in worker order before
// the chains are linked (match order for duplicate keys is then worker
// order, arrival order within a worker — a multiset-equivalent reordering).
// Every worker's key array has room for the whole pipeline's row bound, so
// the parts join without regrowth, the emptied ones going back to the
// recycler; the kept columns, which are not recycled, are presized for an
// even share. A forked build readies every part before it starts, so it
// takes as many arrays each time whichever workers draw morsels; a serial
// one readies its table on its first batch, once its leaf is open.
//
// Rows that fail a key filter (see pushFilter) are dropped before add; the
// filters are spent once the build ends.
func (j *HashJoin) build(ctx *Context) error {
	defer func() { j.filters = nil }()
	pipes := forkPipeline(j.Build, ctx)
	parts := make([]joinTable, len(pipes))
	if len(pipes) > 1 {
		for w := range parts {
			j.ready(&parts[w], pipes[w], len(pipes))
		}
	}
	var kept []Batch // per worker: the filtered view of its current batch
	if len(j.filters) > 0 {
		kept = make([]Batch, len(pipes))
	}
	err := runForked(ctx, pipes, func(w int, wctx *Context, b *Batch) error {
		t := &parts[w]
		if t.ints == nil && t.keys == nil {
			j.ready(t, pipes[w], len(pipes))
		}
		if kept != nil {
			b = j.filterBuild(b, &kept[w])
		}
		wctx.Stats.HashBuildRows += int64(b.NumActive())
		t.add(b, j.BuildKeys, j.keep)
		return nil
	})
	for w := range kept {
		linkArrays.give(kept[w].Sel)
	}
	if err != nil {
		for i := range parts {
			parts[i].release()
		}
		return err
	}
	t := &parts[0]
	for i := range parts[1:] {
		t.absorb(&parts[1+i])
	}
	if t.cols.len() == 0 {
		t.release() // an empty build is the generic form, whatever its workers readied
	}
	if t.ints != nil {
		t.index.buildInts(t.ints)
	} else {
		t.index.build(t.hashes)
	}
	j.table = *t
	return nil
}

// ready readies t, one of nparts parts of a build, for the rows of pipe.
func (j *HashJoin) ready(t *joinTable, pipe BatchOperator, nparts int) {
	bound := rowBound(pipe)
	if len(j.filters) > 0 {
		bound = 0 // a reduced build keeps few of the rows its leaf holds
	}
	t.init(len(j.BuildKeys), len(j.keep), bound, bound/nparts)
}

// filterBuild returns the rows of b that pass every key filter, as a view
// in *kept: a copy of b's header with a selection of its own — never nil,
// since a nil Sel means every row, so it is empty when no row survives. b
// itself is not touched; each filter after the first narrows the view's
// selection in place. The selection's array comes from the recycler, and
// build gives it back.
func (j *HashJoin) filterBuild(b *Batch, kept *Batch) *Batch {
	sel := kept.Sel[:0]
	if sel == nil {
		sel = linkArrays.take(BatchSize)[:0]
	}
	*kept = *b
	for _, f := range j.filters {
		kept.Sel = f.table.semiJoin(kept, f.col, sel[:0])
	}
	return kept
}

// The three table forms each find a key through one lookup, shared by
// match and semiJoin: directHead and seekInt for the int forms, which a
// key of any other kind never matches, seekKey for the generic form.

// directHead returns the chain of int key k in the direct index d over
// keys from lo (+1, 0 when k is outside the build's key range or absent);
// every entry of it holds k. It takes the index's fields, not the index, so
// that match's probe loop keeps them in registers.
func directHead(d []int32, lo uint64, k int64) int32 {
	o := uint64(k) - lo
	if o >= uint64(len(d)) {
		return 0
	}
	return d[o]
}

// seekInt returns the first entry from e on (+1, 0 at the chain's end) of a
// chained int table whose key is k.
func (t *joinTable) seekInt(e int32, k int64) int32 {
	for e != 0 && t.ints[e-1] != k {
		e = t.index.next[e-1]
	}
	return e
}

// seekKey returns the first entry from e on (+1, 0 at the chain's end) of a
// generic table whose key equals the one in columns cols of b's row p,
// whose hash is h.
func (t *joinTable) seekKey(e int32, h uint64, b *Batch, p int, cols []int) int32 {
chain:
	for ; e != 0; e = t.index.next[e-1] {
		if t.index.hashes[e-1] != h {
			continue
		}
		for k, c := range cols {
			if !keyEqual(b.Cols[c][p], t.keys[k][e-1]) {
				continue chain
			}
		}
		return e
	}
	return 0
}

// semiJoin appends to sel the positions of b's active rows whose key in
// column c the one-column table holds — the rows match would pair with
// some build row — and returns it. sel may share b.Sel's array: no position
// is written before it is read.
func (t *joinTable) semiJoin(b *Batch, c int, sel []int32) []int32 {
	if t.cols.len() == 0 {
		return sel // an empty build side matches nothing
	}
	n, kc, x := b.NumActive(), b.Cols[c], &t.index
	switch {
	case x.direct != nil:
		d, lo := x.direct, uint64(x.lo)
		for i := 0; i < n; i++ {
			p := b.PosAt(i)
			if kc[p].K == value.KindInt && directHead(d, lo, kc[p].I) != 0 {
				sel = append(sel, int32(p))
			}
		}
	case t.ints != nil:
		for i := 0; i < n; i++ {
			p := b.PosAt(i)
			if k := kc[p].I; kc[p].K == value.KindInt && t.seekInt(x.first(hashInt(k)), k) != 0 {
				sel = append(sel, int32(p))
			}
		}
	default:
		cols := [1]int{c}
		for i := 0; i < n; i++ {
			p := b.PosAt(i)
			if h := hashBatchCols(b, p, cols[:]); t.seekKey(x.first(h), h, b, p, cols[:]) != 0 {
				sel = append(sel, int32(p))
			}
		}
	}
	return sel
}

// match collects in pIdx/bIdx every (probe position, build row) pair of pb
// with equal keys, in probe order and, per probe row, build order.
func (j *HashJoin) match(pb *Batch) {
	t, x := &j.table, &j.table.index
	j.pIdx, j.bIdx = j.pIdx[:0], j.bIdx[:0]
	if t.cols.len() == 0 {
		return // an empty build side matches nothing
	}
	n := pb.NumActive()
	if x.direct != nil {
		kc, lo, d := pb.Cols[j.ProbeKeys[0]], uint64(x.lo), x.direct
		for i := 0; i < n; i++ {
			p := pb.PosAt(i)
			if kc[p].K != value.KindInt {
				continue
			}
			for e := directHead(d, lo, kc[p].I); e != 0; e = x.next[e-1] {
				j.pIdx, j.bIdx = append(j.pIdx, int32(p)), append(j.bIdx, e-1)
			}
		}
		return
	}
	if t.ints != nil {
		kc := pb.Cols[j.ProbeKeys[0]]
		for i := 0; i < n; i++ {
			p := pb.PosAt(i)
			if kc[p].K != value.KindInt {
				continue // every build key is an int, and only an int equals one
			}
			k := kc[p].I
			for e := t.seekInt(x.first(hashInt(k)), k); e != 0; e = t.seekInt(x.next[e-1], k) {
				j.pIdx, j.bIdx = append(j.pIdx, int32(p)), append(j.bIdx, e-1)
			}
		}
		return
	}
	for i := 0; i < n; i++ {
		p := pb.PosAt(i)
		h := hashBatchCols(pb, p, j.ProbeKeys)
		for e := t.seekKey(x.first(h), h, pb, p, j.ProbeKeys); e != 0; e = t.seekKey(x.next[e-1], h, pb, p, j.ProbeKeys) {
			j.pIdx, j.bIdx = append(j.pIdx, int32(p)), append(j.bIdx, e-1)
		}
	}
}

// filterMatches keeps the matched pairs whose concatenated row satisfies
// the residual.
func (j *HashJoin) filterMatches(pb *Batch, p *Params) error {
	pw, kept := len(pb.Cols), 0
	for m, pos := range j.pIdx {
		for c, col := range pb.Cols {
			j.combined[c] = col[pos]
		}
		for c, col := range j.table.cols.batch.Cols {
			j.combined[pw+c] = col[j.bIdx[m]]
		}
		ok, err := Truthy(j.Residual, j.combined, p)
		if err != nil {
			return err
		}
		if ok {
			j.pIdx[kept], j.bIdx[kept] = pos, j.bIdx[m]
			kept++
		}
	}
	j.pIdx, j.bIdx = j.pIdx[:kept], j.bIdx[:kept]
	return nil
}

func (j *HashJoin) Next(ctx *Context) (*Batch, error) {
	for {
		pb, err := j.Probe.Next(ctx)
		if err != nil || pb == nil {
			return nil, err
		}
		ctx.Stats.HashProbeRows += int64(pb.NumActive())
		j.match(pb)
		if j.Residual != nil {
			if err := j.filterMatches(pb, ctx.Params); err != nil {
				return nil, err
			}
		}
		if len(j.pIdx) == 0 {
			continue
		}
		// the output is gathered a column at a time from the matched pairs;
		// with nothing emitted it is just their count
		j.outBuf.resize(len(j.pIdx))
		for o, c := range j.emitProbe {
			j.outBuf.gather(o, pb.Cols[c], j.pIdx)
		}
		for o, c := range j.emitKept {
			j.outBuf.gather(len(j.emitProbe)+o, j.table.cols.batch.Cols[c], j.bIdx)
		}
		return j.outBuf.take(ctx), nil
	}
}

func (j *HashJoin) Close() error {
	j.filters = nil
	if j.closed {
		return nil
	}
	j.closed = true
	j.table.release()
	return j.Probe.Close()
}

// ---------------------------------------------------------------- aggregation

// AggSpec describes one aggregate in the output.
type AggSpec struct {
	Func sqlparser.AggFunc
	Arg  Evaluator // nil for COUNT(*)
	// ArgCol is the argument's child-schema column position when Arg is a
	// bare column reference, -1 for COUNT(*). It is only meaningful on
	// operators whose GroupCols is non-nil (the optimizer sets both
	// together); the Arg evaluator stays authoritative everywhere else.
	ArgCol int
}

// HashAggregate groups its input by the group expressions and computes the
// aggregates, consuming the child stream batch-at-a-time without
// materializing it. With no group expressions it produces a single global
// row. Both engines use this operator; their optimizers label it
// differently ('Group aggregate' vs 'Aggregate') and cost it differently.
type HashAggregate struct {
	Child  Operator
	Groups []Evaluator
	Aggs   []AggSpec
	Out    Schema // group columns followed by aggregate columns
	// GroupCols, when non-nil, carries the structural shape a column fold
	// needs (see pushdown.go): every GROUP BY term is a bare column and
	// GroupCols[i] is its child-schema position (an empty non-nil slice
	// means a global aggregate), and every AggSpec.ArgCol is resolved. The
	// optimizer sets it; operators built by hand leave it nil and always
	// take the evaluator path.
	GroupCols []int
	// Partial makes the aggregate emit mergeable partial states instead of
	// final values: each output row is the group columns followed by one
	// (state, count) column pair per aggregate, where count > 0 marks a
	// valid state (counts advance exactly when sums/mins/maxs do). Out must
	// be the matching partial schema. This is the shard-local half of a
	// distributed partial/final aggregate split.
	Partial bool
	// Merge makes the aggregate consume partial-state rows (the output of
	// Partial-mode fragments, typically through a Gather exchange) instead
	// of raw input: group columns lead each input row and every aggregate
	// folds its (state, count) pair additively. Out is the final schema.
	Merge bool

	stored storedFold // what it folds as stored of its child scan's chunks
	folds  []*aggFold // per-worker fold scratch
	emit   rowEmitter
	closed bool
}

func (a *HashAggregate) Schema() Schema { return a.Out }

func (a *HashAggregate) Clone() BatchOperator {
	return &HashAggregate{Child: a.Child.Clone(), Groups: a.Groups, Aggs: a.Aggs,
		Out: a.Out, GroupCols: a.GroupCols, Partial: a.Partial, Merge: a.Merge}
}

type aggState struct {
	aggs   []AggSpec // the operator's, for which slots are MIN/MAX
	group  value.Row
	counts []int64
	sums   []float64
	mins   []value.Value
	maxs   []value.Value
	seen   []bool
}

func (a *HashAggregate) newState(group value.Row) *aggState {
	return &aggState{
		aggs:   a.Aggs,
		group:  group,
		counts: make([]int64, len(a.Aggs)),
		sums:   make([]float64, len(a.Aggs)),
		mins:   make([]value.Value, len(a.Aggs)),
		maxs:   make([]value.Value, len(a.Aggs)),
		seen:   make([]bool, len(a.Aggs)),
	}
}

// accumulate folds one input row into its group's state.
func (a *HashAggregate) accumulate(st *aggState, row value.Row, p *Params) error {
	if a.Merge {
		return a.mergeAccumulate(st, row)
	}
	for i, spec := range a.Aggs {
		if spec.Arg == nil { // COUNT(*)
			st.counts[i]++
			continue
		}
		v, err := spec.Arg(row, p)
		if err != nil {
			return err
		}
		accumulateArg(st, i, v)
	}
	return nil
}

// accumulateArg folds one evaluated aggregate argument into state slot i —
// the single definition of per-value aggregation semantics (NULLs skipped;
// count always advances for non-NULL; sum only for numerics; min/max by
// value.Compare with first-seen ties kept). The encoded kernels call it —
// or replicate it bit-exactly — so encoded and raw execution agree byte
// for byte.
func accumulateArg(st *aggState, i int, v value.Value) {
	if v.IsNull() {
		return
	}
	st.counts[i]++
	if f, ok := v.AsFloat(); ok {
		st.sums[i] += f
	}
	applyMinMax(st, i, v)
}

// applyMinMax folds v into slot i's min and max without touching count or
// sum — for kernels that reduce a chunk's extremes before consulting the
// running state. Only a MIN or MAX slot keeps extremes: COUNT, SUM and AVG
// never read them, so they pay for no comparison.
func applyMinMax(st *aggState, i int, v value.Value) {
	if st.aggs[i].extreme() {
		foldExtreme(st, i, v)
	}
}

// extreme reports whether the aggregate keeps a running MIN or MAX.
func (s AggSpec) extreme() bool { return s.Func == sqlparser.AggMin || s.Func == sqlparser.AggMax }

// foldExtreme folds non-NULL v into slot i's min and max, first-seen ties
// kept.
func foldExtreme(st *aggState, i int, v value.Value) {
	if !st.seen[i] {
		st.mins[i], st.maxs[i] = v, v
		st.seen[i] = true
		return
	}
	if v.Compare(st.mins[i]) < 0 {
		st.mins[i] = v
	}
	if v.Compare(st.maxs[i]) > 0 {
		st.maxs[i] = v
	}
}

// The typed fold kernels fold one argument column into one slot over a
// selection: sel lists the positions of col to fold, in row order (allRows
// for every row of a vector up to BatchSize long). They are accumulateArg
// unrolled over a column — NULLs skipped, every other value counted, Int
// and Float values added to the sum in row order through the same float
// additions, MIN/MAX extremes by value.Compare with first-seen ties kept —
// so their results are accumulateArg's bit for bit. Only a MIN or MAX slot
// makes a second pass for its extremes.

// allRows is the identity selection, shared and read-only: allRows[:n]
// folds a vector's first n values.
var allRows = func() []int32 {
	sel := make([]int32, BatchSize)
	for i := range sel {
		sel[i] = int32(i)
	}
	return sel
}()

// foldSlot folds col at sel into slot i of the one state st, its count and
// sum kept in registers across the loop.
func foldSlot(st *aggState, i int, col []value.Value, sel []int32) {
	n, sum := st.counts[i], st.sums[i]
	for _, p := range sel {
		switch v := &col[p]; v.K {
		case value.KindNull:
			continue
		case value.KindInt:
			sum += float64(v.I)
		case value.KindFloat:
			sum += v.Float()
		}
		n++
	}
	st.counts[i], st.sums[i] = n, sum
	if !st.aggs[i].extreme() {
		return
	}
	for _, p := range sel {
		if v := col[p]; !v.IsNull() {
			foldExtreme(st, i, v)
		}
	}
}

// foldSlotGroups folds col at sel into slot i of per-group states: the
// row at position p folds into states[groups[p]]. groups is a dictionary
// chunk's codes (states indexed by code) or the rows' ordinals in an
// aggregation table's states.
func foldSlotGroups[G uint16 | int32](states []*aggState, groups []G, i int, col []value.Value, sel []int32) {
	if len(sel) == 0 {
		return
	}
	for _, p := range sel {
		st := states[groups[p]]
		switch v := &col[p]; v.K {
		case value.KindNull:
			continue
		case value.KindInt:
			st.sums[i] += float64(v.I)
		case value.KindFloat:
			st.sums[i] += v.Float()
		}
		st.counts[i]++
	}
	if !states[groups[sel[0]]].aggs[i].extreme() {
		return
	}
	for _, p := range sel {
		if v := col[p]; !v.IsNull() {
			foldExtreme(states[groups[p]], i, v)
		}
	}
}

// foldRepeat folds v into slot i of st k times over — one RLE run's
// candidates — with k sequential additions, not f*k: float addition does
// not distribute.
func foldRepeat(st *aggState, i int, v value.Value, k int) {
	if k == 0 || v.IsNull() {
		return
	}
	st.counts[i] += int64(k)
	if f, ok := v.AsFloat(); ok {
		sum := st.sums[i]
		for j := 0; j < k; j++ {
			sum += f
		}
		st.sums[i] = sum
	}
	applyMinMax(st, i, v)
}

// aggTable is one (per-worker or global) aggregation hash table: the
// group states in first-seen order, a hashIndex over their group rows (see
// hashkey.go), and the scratch rows batches are folded through. A group's
// values are evaluated into gkey and cloned only when the group is new.
type aggTable struct {
	states  []*aggState // first-seen order
	index   hashIndex   // over states, keyed on aggState.group
	scratch value.Row   // child-schema row
	gkey    value.Row   // evaluated group values of the current row
}

func (a *HashAggregate) newTable() *aggTable {
	return &aggTable{
		scratch: make(value.Row, len(a.Child.Schema())),
		gkey:    make(value.Row, len(a.Groups)),
	}
}

// find returns the ordinal in states of the group whose key row is g
// (hash h), or -1.
func (t *aggTable) find(h uint64, g value.Row) int {
	x := &t.index
	for e := x.first(h); e != 0; e = x.next[e-1] {
		if x.hashes[e-1] == h && rowKeyEqual(t.states[e-1].group, g) {
			return int(e - 1)
		}
	}
	return -1
}

// insert adds st (hash h) as the newest group; the caller has checked with
// find that its key is absent.
func (t *aggTable) insert(h uint64, st *aggState) {
	t.index.add(h)
	t.states = append(t.states, st)
}

// groupOf resolves, creating on first sight, the group whose key row is g
// and returns its ordinal in t.states. g is caller scratch: it is cloned
// only for a new group.
func (a *HashAggregate) groupOf(t *aggTable, g value.Row) int32 {
	h := hashRow(g)
	e := t.find(h, g)
	if e < 0 {
		e = len(t.states)
		t.insert(h, a.newState(g.Clone()))
	}
	return int32(e)
}

// stateFor resolves, creating on first sight, the state of the group whose
// key row is g.
func (a *HashAggregate) stateFor(t *aggTable, g value.Row) *aggState {
	return t.states[a.groupOf(t, g)]
}

// foldBatch folds every active row of b into the table, with f as its
// scratch. A global aggregate has one state: it is resolved once per
// batch, not hashed and looked up per row; when every aggregate is
// COUNT(*) the batch folds as its row count. When every group and argument
// is a bare column (columnar), a global aggregate folds a column at a time
// (foldStored over a scan's stored chunks, foldColumns over values) and a
// one-column GROUP BY resolves its rows' groups and then folds a slot at a
// time (foldGrouped); anything else evaluates row by row.
func (a *HashAggregate) foldBatch(t *aggTable, f *aggFold, b *Batch, p *Params) error {
	n := b.NumActive()
	if len(a.Groups) == 0 {
		st := a.stateFor(t, nil)
		switch {
		case !a.Merge && a.countStarOnly():
			for i := range a.Aggs {
				st.counts[i] += int64(n)
			}
		case a.columnar() && f.stored() != nil:
			f.foldStored(st, b)
		case a.columnar():
			a.foldColumns(st, b)
		default:
			for i := 0; i < n; i++ {
				if err := a.accumulate(st, b.FillRow(i, t.scratch), p); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if len(a.GroupCols) == 1 && a.columnar() {
		f.foldGrouped(t, b)
		return nil
	}
	for i := 0; i < n; i++ {
		b.FillRow(i, t.scratch)
		for gi, ev := range a.Groups {
			v, err := ev(t.scratch, p)
			if err != nil {
				return err
			}
			t.gkey[gi] = v
		}
		if err := a.accumulate(a.stateFor(t, t.gkey), t.scratch, p); err != nil {
			return err
		}
	}
	return nil
}

// foldColumns folds b into the global state st a column and a slot at a
// time: COUNT(*) by the batch's row count, and every other aggregate by
// its argument's column vector at the active positions through foldSlot
// (a batch with no selection in allRows-long pieces: a join's output can
// be longer). Each slot takes its values in row order, as the row fold
// gives them, so the results — float sums included — are byte-identical to
// it.
func (a *HashAggregate) foldColumns(st *aggState, b *Batch) {
	n := b.NumActive()
	for i, spec := range a.Aggs {
		if spec.Arg == nil {
			st.counts[i] += int64(n)
			continue
		}
		col := b.Cols[spec.ArgCol]
		if b.Sel != nil {
			foldSlot(st, i, col, b.Sel)
			continue
		}
		for lo := 0; lo < b.Len; lo += len(allRows) {
			foldSlot(st, i, col[lo:], allRows[:min(len(allRows), b.Len-lo)])
		}
	}
}

// foldGroups folds a's argument vectors argv (indexed by aggregate) at sel
// into per-group states a slot at a time: the row at position p folds into
// states[groups[p]], resolved for every row before any slot folds.
func foldGroups[G uint16 | int32](a *HashAggregate, states []*aggState, groups []G, argv [][]value.Value, sel []int32) {
	for i, spec := range a.Aggs {
		if spec.ArgCol < 0 {
			for _, p := range sel {
				states[groups[p]].counts[i]++
			}
			continue
		}
		foldSlotGroups(states, groups, i, argv[i], sel)
	}
}

// columnar reports whether batches fold a column and a slot at a time:
// not a Merge, GroupCols set with every group a bare column, and ArgCol -1
// exactly for COUNT(*).
func (a *HashAggregate) columnar() bool {
	if a.Merge || a.GroupCols == nil || len(a.GroupCols) != len(a.Groups) {
		return false
	}
	for _, spec := range a.Aggs {
		if (spec.Arg == nil) != (spec.ArgCol < 0) {
			return false
		}
	}
	return true
}

// countStarOnly reports whether every aggregate is COUNT(*).
func (a *HashAggregate) countStarOnly() bool {
	for _, spec := range a.Aggs {
		if spec.Arg != nil {
			return false
		}
	}
	return true
}

// mergeState folds a partial aggregation state into dst — the merge half
// of partitioned parallel aggregation. COUNT/SUM/AVG merge additively
// (AVG keeps sum and count separately), MIN/MAX combine, so every
// supported aggregate decomposes exactly.
func (a *HashAggregate) mergeState(dst, src *aggState) {
	for i := range a.Aggs {
		dst.counts[i] += src.counts[i]
		dst.sums[i] += src.sums[i]
		if !src.seen[i] {
			continue
		}
		if !dst.seen[i] {
			dst.mins[i], dst.maxs[i] = src.mins[i], src.maxs[i]
			dst.seen[i] = true
			continue
		}
		if src.mins[i].Compare(dst.mins[i]) < 0 {
			dst.mins[i] = src.mins[i]
		}
		if src.maxs[i].Compare(dst.maxs[i]) > 0 {
			dst.maxs[i] = src.maxs[i]
		}
	}
}

// mergeAccumulate folds one partial-state row into its group's state
// (Merge mode). The input layout is the Partial emit layout: group
// columns, then a (state, count) pair per aggregate. count <= 0 means the
// fragment never saw a non-NULL value for that aggregate, so the pair is
// skipped — which is exactly how accumulateArg treats NULLs.
func (a *HashAggregate) mergeAccumulate(st *aggState, row value.Row) error {
	base := len(row) - 2*len(a.Aggs)
	for i, spec := range a.Aggs {
		state, cnt := row[base+2*i], row[base+2*i+1]
		if cnt.K != value.KindInt {
			return fmt.Errorf("exec: merge aggregate expects int count, got %s", cnt.K)
		}
		n := cnt.I
		if n <= 0 {
			continue
		}
		st.counts[i] += n
		switch spec.Func {
		case sqlparser.AggSum, sqlparser.AggAvg:
			f, ok := state.AsFloat()
			if !ok {
				return fmt.Errorf("exec: merge aggregate expects numeric sum state, got %s", state.K)
			}
			st.sums[i] += f
		case sqlparser.AggMin, sqlparser.AggMax:
			if !st.seen[i] {
				st.mins[i], st.maxs[i] = state, state
				st.seen[i] = true
				continue
			}
			if state.Compare(st.mins[i]) < 0 {
				st.mins[i] = state
			}
			if state.Compare(st.maxs[i]) > 0 {
				st.maxs[i] = state
			}
		}
	}
	return nil
}

// emitPartialRows renders mergeable partial states (Partial mode): group
// columns, then per aggregate the state value (SUM/AVG: the running sum;
// MIN/MAX: the extremum so far; COUNT: unused NULL) and the non-NULL input
// count.
func (a *HashAggregate) emitPartialRows(t *aggTable) ([]value.Row, error) {
	out := make([]value.Row, 0, len(t.states))
	for _, st := range t.states {
		row := make(value.Row, 0, len(a.Out))
		row = append(row, st.group...)
		for i, spec := range a.Aggs {
			state := value.Null
			if st.seen[i] || st.counts[i] > 0 {
				switch spec.Func {
				case sqlparser.AggCount:
					state = value.Null
				case sqlparser.AggSum, sqlparser.AggAvg:
					state = value.NewFloat(st.sums[i])
				case sqlparser.AggMin:
					state = st.mins[i]
				case sqlparser.AggMax:
					state = st.maxs[i]
				default:
					return nil, fmt.Errorf("exec: unsupported aggregate %v", spec.Func)
				}
			}
			row = append(row, state, value.NewInt(st.counts[i]))
		}
		out = append(out, row)
	}
	return out, nil
}

// emitRows renders the output rows from the (merged) table — partial
// states in Partial mode, final aggregate values otherwise.
func (a *HashAggregate) emitRows(t *aggTable) ([]value.Row, error) {
	// global aggregate over empty input still yields one row
	if len(a.Groups) == 0 && len(t.states) == 0 {
		a.stateFor(t, nil)
	}
	if a.Partial {
		return a.emitPartialRows(t)
	}
	out := make([]value.Row, 0, len(t.states))
	for _, st := range t.states {
		row := make(value.Row, 0, len(a.Out))
		row = append(row, st.group...)
		for i, spec := range a.Aggs {
			switch spec.Func {
			case sqlparser.AggCount:
				row = append(row, value.NewInt(st.counts[i]))
			case sqlparser.AggSum:
				if st.counts[i] == 0 {
					row = append(row, value.Null)
				} else {
					row = append(row, value.NewFloat(st.sums[i]))
				}
			case sqlparser.AggAvg:
				if st.counts[i] == 0 {
					row = append(row, value.Null)
				} else {
					row = append(row, value.NewFloat(st.sums[i]/float64(st.counts[i])))
				}
			case sqlparser.AggMin:
				if !st.seen[i] {
					row = append(row, value.Null)
				} else {
					row = append(row, st.mins[i])
				}
			case sqlparser.AggMax:
				if !st.seen[i] {
					row = append(row, value.Null)
				} else {
					row = append(row, st.maxs[i])
				}
			default:
				return nil, fmt.Errorf("exec: unsupported aggregate %v", spec.Func)
			}
		}
		out = append(out, row)
	}
	return out, nil
}

func (a *HashAggregate) Open(ctx *Context) error {
	a.closed = false
	pipes := forkPipeline(a.Child, ctx)
	a.readyFolds(pipes)
	parts := make([]*aggTable, len(pipes))
	for w := range parts {
		parts[w] = a.newTable()
	}
	err := runForked(ctx, pipes, func(w int, wctx *Context, b *Batch) error {
		return a.foldBatch(parts[w], a.folds[w], b, wctx.Params)
	})
	for _, f := range a.folds {
		f.release()
	}
	if err != nil {
		return err
	}
	if len(parts) > 1 {
		return a.emitMerged(ctx, parts)
	}
	return a.emitTable(ctx, parts[0])
}

// emitTable counts t's groups and readies their rows for Next, in t's
// (first-seen) order.
func (a *HashAggregate) emitTable(ctx *Context, t *aggTable) error {
	ctx.Stats.GroupsCreated += int64(len(t.states))
	out, err := a.emitRows(t)
	if err != nil {
		return err
	}
	a.emit.reset(out, len(a.Out))
	return nil
}

// emitMerged is the merge stage of a parallel aggregate: each worker
// folded its share of morsels into a private table; combine them, count
// the distinct groups — so the stat a query reports does not vary with the
// granted DOP — and emit in sorted-key order (worker arrival order is
// nondeterministic, so the merge sorts to keep parallel output
// deterministic run-to-run).
func (a *HashAggregate) emitMerged(ctx *Context, parts []*aggTable) error {
	merged := a.mergeParts(parts)
	sortStatesByKey(merged.states)
	return a.emitTable(ctx, merged)
}

// mergeParts combines per-worker partial aggregation tables into one, in
// worker order, by (stored hash, keyEqual) — no key is re-hashed.
func (a *HashAggregate) mergeParts(parts []*aggTable) *aggTable {
	merged := a.newTable()
	for _, p := range parts {
		if p == nil {
			continue
		}
		for i, src := range p.states {
			h := p.index.hashes[i]
			if e := merged.find(h, src.group); e >= 0 {
				a.mergeState(merged.states[e], src)
			} else {
				merged.insert(h, src)
			}
		}
	}
	return merged
}

// sortStatesByKey puts merged groups into the parallel paths' emit order:
// ascending value.Row.Key rendering of the group row, rendered once per
// group. Distinct groups whose renderings alias (strings that contain the
// rendering's separators) fall back to per-column renderings, so the order
// is total and independent of worker arrival. After the sort the states no
// longer line up with their table's index; the table is only emitted.
func sortStatesByKey(states []*aggState) {
	if len(states) < 2 {
		return
	}
	cols := make([]int, len(states[0].group))
	for i := range cols {
		cols[i] = i
	}
	type keyed struct {
		key string
		st  *aggState
	}
	ks := make([]keyed, len(states))
	for i, st := range states {
		ks[i] = keyed{st.group.Key(cols), st}
	}
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].key != ks[j].key {
			return ks[i].key < ks[j].key
		}
		for c, v := range ks[i].st.group {
			if ki, kj := v.Key(), ks[j].st.group[c].Key(); ki != kj {
				return ki < kj
			}
		}
		return false
	})
	for i := range ks {
		states[i] = ks[i].st
	}
}

func (a *HashAggregate) Next(ctx *Context) (*Batch, error) {
	return a.emit.next(ctx), nil
}

func (a *HashAggregate) Close() error {
	if a.closed {
		return nil
	}
	a.closed = true
	a.emit.reset(nil, len(a.Out))
	return a.Child.Close()
}

// ---------------------------------------------------------------- ordering

// SortKey is one ORDER BY term.
type SortKey struct {
	Eval Evaluator
	Desc bool
	// col is 1 + the input column a ColumnKey reads, 0 for any other key.
	col int
}

// ColumnKey orders by input column col. Its Eval reads the column, and a
// Top-N over this one key reads it straight from the batch instead.
func ColumnKey(col int, desc bool) SortKey {
	return SortKey{Eval: ColumnEval(col), Desc: desc, col: col + 1}
}

func compareByKeys(keys []SortKey, a, b value.Row, p *Params) (int, error) {
	for _, k := range keys {
		av, err := k.Eval(a, p)
		if err != nil {
			return 0, err
		}
		bv, err := k.Eval(b, p)
		if err != nil {
			return 0, err
		}
		c := av.Compare(bv)
		if k.Desc {
			c = -c
		}
		if c != 0 {
			return c, nil
		}
	}
	return 0, nil
}

// SortOp fully sorts its input, which it drains at Open. Drained rows are
// freshly materialized (never storage-aliased), so the sort is safe to run
// in place.
type SortOp struct {
	Child Operator
	Keys  []SortKey

	emit   rowEmitter
	closed bool
}

func (s *SortOp) Schema() Schema { return s.Child.Schema() }

func (s *SortOp) Clone() BatchOperator {
	return &SortOp{Child: s.Child.Clone(), Keys: s.Keys}
}

func (s *SortOp) Open(ctx *Context) error {
	s.closed = false
	rows, err := drainOp(s.Child, ctx)
	if err != nil {
		return err
	}
	ctx.Stats.RowsSorted += int64(len(rows))
	var sortErr error
	sort.SliceStable(rows, func(i, j int) bool {
		c, err := compareByKeys(s.Keys, rows[i], rows[j], ctx.Params)
		if err != nil && sortErr == nil {
			sortErr = err
		}
		return c < 0
	})
	if sortErr != nil {
		return sortErr
	}
	s.emit.reset(rows, len(s.Schema()))
	return nil
}

func (s *SortOp) Next(ctx *Context) (*Batch, error) {
	return s.emit.next(ctx), nil
}

func (s *SortOp) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.emit.reset(nil, len(s.Schema()))
	return s.Child.Close()
}

// TopNOp keeps the first N+Offset rows in key order using a bounded
// selection (cheaper than a full sort) over the child's batch stream, then
// applies the offset. Once the top is full, most candidates cost one
// comparison against its last keeper (rejects); a row is copied out of its
// batch only when it enters, into the row it evicts.
type TopNOp struct {
	Child  Operator
	Keys   []SortKey
	N      int64
	Offset int64
	Slots  CountSlots

	emit   rowEmitter
	closed bool
}

func (t *TopNOp) Schema() Schema { return t.Child.Schema() }

func (t *TopNOp) Clone() BatchOperator {
	return &TopNOp{Child: t.Child.Clone(), Keys: t.Keys, N: t.N, Offset: t.Offset, Slots: t.Slots}
}

func (t *TopNOp) Open(ctx *Context) error {
	t.closed = false
	if err := t.Child.Open(ctx); err != nil {
		return err
	}
	p := ctx.Params
	n, offset := t.Slots.bind(p, t.N, t.Offset)
	keep := n + offset
	if keep < 0 {
		keep = 0
	}
	scratch := make(value.Row, len(t.Child.Schema()))
	// bounded insertion into a sorted prefix of size keep
	var top []value.Row
	var insErr error
	for {
		b, err := t.Child.Next(ctx)
		if err != nil {
			_ = t.Child.Close()
			return err
		}
		if b == nil {
			break
		}
		n := b.NumActive()
		ctx.Stats.RowsTopN += int64(n)
		for i := 0; i < n; i++ {
			if int64(len(top)) >= keep {
				if keep == 0 {
					continue
				}
				reject, err := t.rejects(b, i, top[len(top)-1], scratch, p)
				if err != nil {
					_ = t.Child.Close()
					return err
				}
				if reject {
					continue
				}
			}
			row := b.FillRow(i, scratch)
			pos := sort.Search(len(top), func(k int) bool {
				c, err := compareByKeys(t.Keys, row, top[k], p)
				if err != nil && insErr == nil {
					insErr = err
				}
				return c < 0
			})
			switch {
			case int64(len(top)) < keep:
				top = append(top, nil)
				copy(top[pos+1:], top[pos:])
				top[pos] = row.Clone()
			case pos < len(top):
				evicted := top[len(top)-1]
				copy(top[pos+1:], top[pos:len(top)-1])
				top[pos] = append(evicted[:0], row...)
			}
		}
		if insErr != nil {
			_ = t.Child.Close()
			return insErr
		}
	}
	if offset >= int64(len(top)) {
		top = nil
	} else {
		top = top[offset:]
	}
	t.emit.reset(top, len(t.Schema()))
	return nil
}

// rejects reports whether the i-th active row of b stays out of a full top
// whose last keeper is last: a row that does not sort strictly before it
// never enters (ties lose to earlier rows). A single ColumnKey is read
// straight from the batch and, when both keys are ints or floats, compared
// as float64 — what value.Compare does for numeric kinds, NaN comparing
// equal to everything; NULL, strings and multi-key orders compare through
// the keys' evaluators.
func (t *TopNOp) rejects(b *Batch, i int, last, scratch value.Row, p *Params) (bool, error) {
	if len(t.Keys) == 1 && t.Keys[0].col > 0 {
		c := t.Keys[0].col - 1
		vf, vok := b.Cols[c][b.PosAt(i)].AsFloat()
		lf, lok := last[c].AsFloat()
		if vok && lok {
			if t.Keys[0].Desc {
				return !(vf > lf), nil
			}
			return !(vf < lf), nil
		}
	}
	c, err := compareByKeys(t.Keys, b.FillRow(i, scratch), last, p)
	return c >= 0, err
}

func (t *TopNOp) Next(ctx *Context) (*Batch, error) {
	return t.emit.next(ctx), nil
}

func (t *TopNOp) Close() error {
	if t.closed {
		return nil
	}
	t.closed = true
	t.emit.reset(nil, len(t.Schema()))
	return t.Child.Close()
}

// LimitOp applies LIMIT/OFFSET without ordering by trimming selection
// vectors; it stops pulling from its child as soon as the limit is
// satisfied (early termination the materializing engine could not do).
//
// When a limit pipeline is forked for parallel execution (offset-free
// only — see forkPipeline), every worker clone shares one atomic row
// budget: each clone claims rows from the budget before emitting them,
// and the clone that drains it cancels the fork's execution scope so
// sibling workers stop fetching morsels — cross-worker early termination
// via a shared atomic plus context cancellation.
type LimitOp struct {
	Child  Operator
	N      int64
	Offset int64
	Slots  CountSlots

	// budget, when set by forkPipeline, is the cross-worker shared
	// remaining-row count.
	budget *atomic.Int64

	n, offset int64 // N and Offset under the execution's literal vector
	skipped   int64
	emitted   int64
	selBuf    []int32
	closed    bool
}

func (l *LimitOp) Schema() Schema { return l.Child.Schema() }

func (l *LimitOp) Clone() BatchOperator {
	return &LimitOp{Child: l.Child.Clone(), N: l.N, Offset: l.Offset, Slots: l.Slots}
}

func (l *LimitOp) Open(ctx *Context) error {
	l.closed = false
	l.n, l.offset = l.Slots.bind(ctx.Params, l.N, l.Offset)
	l.skipped, l.emitted = 0, 0
	return l.Child.Open(ctx)
}

// claim reserves up to n rows: from the shared cross-worker budget when
// parallel, from the private emitted count otherwise. A zero grant with
// a shared budget cancels the fork scope — the whole fork is done.
func (l *LimitOp) claim(ctx *Context, n int) int {
	if l.budget == nil {
		if l.n < 0 {
			return n
		}
		take := l.n - l.emitted
		if take > int64(n) {
			take = int64(n)
		}
		return int(take)
	}
	for {
		rem := l.budget.Load()
		if rem <= 0 {
			ctx.Cancel()
			return 0
		}
		take := int64(n)
		if take > rem {
			take = rem
		}
		if l.budget.CompareAndSwap(rem, rem-take) {
			if rem == take {
				// budget drained: stop sibling workers eagerly
				ctx.Cancel()
			}
			return int(take)
		}
	}
}

func (l *LimitOp) Next(ctx *Context) (*Batch, error) {
	if l.budget == nil && l.n >= 0 && l.emitted >= l.n {
		return nil, nil
	}
	for {
		b, err := l.Child.Next(ctx)
		if err != nil || b == nil {
			return nil, err
		}
		n := b.NumActive()
		skip := 0
		if l.skipped < l.offset {
			skip = int(l.offset - l.skipped)
			if skip > n {
				skip = n
			}
			l.skipped += int64(skip)
		}
		if skip >= n {
			continue
		}
		take := l.claim(ctx, n-skip)
		if take == 0 {
			return nil, nil
		}
		l.emitted += int64(take)
		if skip == 0 && take == n {
			ctx.Stats.BatchesProduced++
			return b, nil
		}
		sel := l.selBuf[:0]
		for i := skip; i < skip+take; i++ {
			sel = append(sel, int32(b.PosAt(i)))
		}
		l.selBuf = sel
		b.Sel = sel
		ctx.Stats.BatchesProduced++
		return b, nil
	}
}

func (l *LimitOp) Close() error {
	if l.closed {
		return nil
	}
	l.closed = true
	return l.Child.Close()
}
