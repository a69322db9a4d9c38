package exec

import (
	"slices"

	"htapxplain/internal/colstore"
	"htapxplain/internal/rowstore"
	"htapxplain/internal/value"
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
	// ints are the emitted columns' int forms, the batch's: a FoR chunk no
	// kernel decoded goes up as ints, decoded into the column's intBuf, a
	// target borrowed and given back like decodeBuf; an int form
	// materializes as values into decodeBuf, which then holds none.
	ints      intForms
	intBuf    []target[int64]
	deltaSlab []value.Value
	closed    bool
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
		s.ints = intForms{cols: make([][]int64, s.Emit), vals: s.decodeBuf[:s.Emit]}
		s.intBuf = make([]target[int64], s.Emit)
		s.batch.ints = &s.ints
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
// decoded (encoded; a FoR chunk into its int form, see emitCol) — at the
// survivors only when some row was dropped. A
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
	clear(s.ints.cols)
	sel, some, err := s.selectBase(ctx, m, anyEnc)
	if err == nil && some {
		for j := 0; j < s.Emit; j++ {
			if !s.foldsStored(j) {
				s.emitCol(j, sel)
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

// emitCol makes emitted column j hold its values at the survivors sel
// (nil: every row): a FoR chunk that no kernel decoded is decoded into the
// column's int form, its value vector left nil; any other column is made
// ready as values (vector).
func (s *ColTableScan) emitCol(j int, sel []int32) {
	ch := s.chunkBuf[j]
	if s.ready[j] || ch.Enc != colstore.EncFoR {
		s.vector(j, sel)
		return
	}
	s.ready[j] = true
	ints := s.intBuf[j].get(&keyArrays, ch.N)
	if sel != nil {
		ch.DecodeIntsSel(ints, sel)
	} else {
		ch.DecodeInts(ints)
		s.fullDecode = true
	}
	s.vecs[j], s.ints.cols[j] = nil, ints
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
	buf := d.get(&decodeTargets, ch.N)
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
	clear(s.ints.cols)
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
		s.decodeBuf[j].release(&decodeTargets)
	}
	clear(s.ints.cols)
	for j := range s.intBuf {
		s.intBuf[j].release(&keyArrays)
	}
	s.view = colstore.View{}
	s.src = nil
	return nil
}
