package exec

import (
	"slices"

	"htapxplain/internal/rowstore"
	"htapxplain/internal/value"
)

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
			ob.FillRow(i, j.combined)
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
			ids := j.InnerIndex.LookupAppend(ob.at(j.OuterKeyCol, p), j.idsBuf[:0])
			j.idsBuf = ids
			if len(ids) == 0 {
				continue
			}
			ob.fillAt(p, j.combined)
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
	hitPos   []int32     // matchDirect's probe positions whose key has a chain ...
	hitHead  []int32     // ... and that chain's head, pairwise
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
		if ik := b.intCol(keyCols[0]); ik == nil {
			kc, base := b.Cols[keyCols[0]], len(t.ints)
			for i := 0; i < n; i++ {
				k := kc[b.PosAt(i)]
				if k.K != value.KindInt {
					t.ints = t.ints[:base]
					t.spill()
					break
				}
				t.ints = append(t.ints, k.I)
			}
		} else if b.Sel == nil {
			t.ints = append(t.ints, ik[:b.Len]...)
		} else {
			for _, p := range b.Sel {
				t.ints = append(t.ints, ik[p])
			}
		}
	}
	if t.ints == nil {
		t.hashes = hashArrays.grow(t.hashes, n)
		for i := 0; i < n; i++ {
			p := b.PosAt(i)
			t.hashes = append(t.hashes, hashBatchCols(b, p, keyCols))
			for k, c := range keyCols {
				t.keys[k] = append(t.keys[k], b.at(c, p))
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
// key of any other kind never matches, seekKey for the generic form. The
// int forms read a probe key through intKey, from the column's int form
// when it has one — except that a direct index reads an int form in a loop
// of its own (matchDirect, and semiJoin's first case).

// intKey returns the one-column key at position p: from the int form ik
// when there is one, else from the values kc, with ok false when the value
// there is no int.
func intKey(ik []int64, kc []value.Value, p int) (int64, bool) {
	if ik != nil {
		return ik[p], true
	}
	return kc[p].I, kc[p].K == value.KindInt
}

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
			if !keyEqual(b.at(c, p), t.keys[k][e-1]) {
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
	n, ik, kc, x := b.NumActive(), b.intCol(c), b.Cols[c], &t.index
	switch {
	case x.direct != nil && ik != nil:
		d, lo := x.direct, uint64(x.lo)
		if b.Sel == nil {
			for p, k := range ik[:b.Len] {
				if directHead(d, lo, k) != 0 {
					sel = append(sel, int32(p))
				}
			}
		} else {
			for _, p := range b.Sel {
				if directHead(d, lo, ik[p]) != 0 {
					sel = append(sel, p)
				}
			}
		}
	case x.direct != nil:
		d, lo := x.direct, uint64(x.lo)
		for i := 0; i < n; i++ {
			p := b.PosAt(i)
			if k, ok := intKey(ik, kc, p); ok && directHead(d, lo, k) != 0 {
				sel = append(sel, int32(p))
			}
		}
	case t.ints != nil:
		for i := 0; i < n; i++ {
			p := b.PosAt(i)
			if k, ok := intKey(ik, kc, p); ok && t.seekInt(x.first(hashInt(k)), k) != 0 {
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
	if t.ints != nil {
		c := j.ProbeKeys[0]
		ik, kc := pb.intCol(c), pb.Cols[c]
		if x.direct != nil {
			lo, d := uint64(x.lo), x.direct
			if ik != nil {
				j.matchDirect(ik, pb.Sel, pb.Len, d, lo)
				return
			}
			for i := 0; i < n; i++ {
				p := pb.PosAt(i)
				k, ok := intKey(ik, kc, p)
				if !ok {
					continue
				}
				for e := directHead(d, lo, k); e != 0; e = x.next[e-1] {
					j.pIdx, j.bIdx = append(j.pIdx, int32(p)), append(j.bIdx, e-1)
				}
			}
			return
		}
		for i := 0; i < n; i++ {
			p := pb.PosAt(i)
			k, ok := intKey(ik, kc, p)
			if !ok {
				continue // every build key is an int, and only an int equals one
			}
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

// matchDirect is match over a direct index for probe keys in their int
// form, the active positions being sel, or all n (at least len(sel)) when
// sel is nil. A first loop lists the positions whose key has a chain, with
// no call or append in it, and a second walks their chains: the appends'
// register spills then cost only the hits, which makes a probe batch of
// which a fifth or more rows meet the build about a third faster.
func (j *HashJoin) matchDirect(ik []int64, sel []int32, n int, d []int32, lo uint64) {
	hp, he := slices.Grow(j.hitPos[:0], n)[:n], slices.Grow(j.hitHead[:0], n)[:n]
	m := 0
	if sel == nil {
		for p, k := range ik[:n] {
			e := directHead(d, lo, k)
			hp[m], he[m] = int32(p), e
			if e != 0 {
				m++
			}
		}
	} else {
		for _, p := range sel {
			e := directHead(d, lo, ik[p])
			hp[m], he[m] = p, e
			if e != 0 {
				m++
			}
		}
	}
	pIdx, bIdx, next := j.pIdx, j.bIdx, j.table.index.next
	for i, e := range he[:m] {
		for ; e != 0; e = next[e-1] {
			pIdx, bIdx = append(pIdx, hp[i]), append(bIdx, e-1)
		}
	}
	j.hitPos, j.hitHead, j.pIdx, j.bIdx = hp, he, pIdx, bIdx
}

// filterMatches keeps the matched pairs whose concatenated row satisfies
// the residual.
func (j *HashJoin) filterMatches(pb *Batch, p *Params) error {
	pw, kept := len(pb.Cols), 0
	for m, pos := range j.pIdx {
		pb.fillAt(int(pos), j.combined)
		j.table.cols.batch.fillAt(int(j.bIdx[m]), j.combined[pw:])
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
			j.outBuf.gather(o, pb, c, j.pIdx)
		}
		for o, c := range j.emitKept {
			j.outBuf.gather(len(j.emitProbe)+o, &j.table.cols.batch, c, j.bIdx)
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
