package exec

import (
	"htapxplain/internal/colstore"
	"htapxplain/internal/value"
)

// Encoded aggregation pushdown: when a structurally simple aggregate sits
// directly on a bare columnar scan, the aggregate runs its own morsel loop
// and consumes encoded chunks natively instead of pulling decoded batches —
// COUNT/SUM/MIN/MAX fold RLE runs run-at-a-time and dictionary chunks
// code-at-a-time, FoR chunks are unpacked to machine integers without ever
// building a Value vector, raw vectors fold through the typed kernels
// (foldSlot), and an exact pruner's encoded-domain RangeSel replaces the
// scan's selection kernels on base chunks. A grouped fold first resolves
// each candidate row's group state, in row order — per dictionary code
// when the group column is dictionary-encoded (one hash lookup per
// distinct code, not per row), to an ordinal per row through the hash
// table otherwise — and then folds each argument column into its slot over
// the whole chunk (foldSlotGroups): a column and a slot at a time, no
// per-value call.
//
// Every kernel accumulates in row order with the same float operations as
// accumulateArg, so encoded execution is byte-identical to the decoded
// path at the same DOP — the invariant the storage-immutability and
// recovery differential suites assert exactly, not approximately.
//
// Eligibility is structural (see pushdownScan); anything else — extra
// operators between aggregate and scan, non-bare group or argument
// expressions, an inexact pruner alongside a residual predicate, or an
// EXPLAIN ANALYZE wrapper — falls back to the generic batch path.

// pushdownScan reports whether the aggregate can run over encoded chunks
// directly, returning the child scan when it can.
func (a *HashAggregate) pushdownScan() (*ColTableScan, bool) {
	if !a.bareArgs() || len(a.GroupCols) > 1 || len(a.GroupCols) != len(a.Groups) {
		return nil, false
	}
	scan, ok := a.Child.(*ColTableScan)
	if !ok || scan.shared != nil {
		return nil, false
	}
	// a residual predicate defeats pushdown unless the pruner encodes it
	// exactly (then RangeSel at the chunk level IS the predicate)
	if len(scan.Filter) > 0 && (scan.Pruner == nil || !scan.Pruner.Exact) {
		return nil, false
	}
	// group and argument columns index the scan's schema: its emitted
	// columns, not the ones only its predicate reads
	ncols := scan.Emit
	for _, g := range a.GroupCols {
		if g < 0 || g >= ncols {
			return nil, false
		}
	}
	for _, spec := range a.Aggs {
		if spec.ArgCol >= ncols {
			return nil, false
		}
	}
	return scan, true
}

// openPushdown runs the aggregate over encoded chunks when eligible. The
// first return value reports whether pushdown handled the open; when false
// the caller proceeds with the generic batch path.
func (a *HashAggregate) openPushdown(ctx *Context) (bool, error) {
	scan, ok := a.pushdownScan()
	if !ok {
		return false, nil
	}
	scan.bind(ctx.Params)
	if len(scan.filter) > 0 && scan.pruner == nil {
		// the bound vector left no pruner to stand in for the predicate
		return false, nil
	}
	view := scan.Table.View()
	src := colstore.NewMorsels(view, scan.pruner)
	dop := ctx.DOP
	if n := src.NumMorsels(); dop > n {
		dop = n
	}
	if dop <= 1 {
		w := a.newPushWorker(scan, view)
		t := a.newTable()
		if err := w.fold(ctx, src, t); err != nil {
			return true, err
		}
		return true, a.emitTable(ctx, t)
	}

	// parallel: per-worker tables folded from the shared morsel cursor,
	// merged like the batch path's, emitted in sorted-key order for run-to-run
	// determinism
	parts := make([]*aggTable, dop)
	ctx.Stats.ParallelWorkers += int64(dop)
	err := forkWorkers(ctx, dop, func(wi int, wctx *Context) error {
		parts[wi] = a.newTable()
		return a.newPushWorker(scan, view).fold(wctx, src, parts[wi])
	})
	if err != nil {
		return true, err
	}
	return true, a.emitMerged(ctx, parts)
}

// pushWorker is one worker's scratch state for the encoded aggregation
// fold: decode buffers, the prefilter selection, the per-dictionary-code
// state cache, the per-row group ordinals of a grouped fold, and the
// projected delta batch its predicate narrows.
type pushWorker struct {
	a      *HashAggregate
	scan   *ColTableScan
	view   colstore.View
	perCol int64 // modeled bytes per column per row

	preSel  []int32         // encoded-domain prefilter scratch
	argv    [][]value.Value // per-agg argument vector for the current chunk
	dec     []decodeTarget  // per-agg decode targets, borrowed for the fold
	gdec    decodeTarget    // the group column's decode target
	states  []*aggState     // per-dict-code group state cache
	ords    []int32         // per-position group ordinals, borrowed for the fold
	df      []float64       // per-dict-code AsFloat cache
	dfok    []bool
	scratch value.Row // scan-schema row (a row kernel over delta rows)
	gkey    value.Row // one-column group key scratch

	delta     Batch         // the current delta window, projected
	deltaSlab []value.Value // its columns' storage
	deltaSel  []int32       // the selection kernels' output
}

func (a *HashAggregate) newPushWorker(scan *ColTableScan, view colstore.View) *pushWorker {
	perCol := scan.Table.Meta.AvgRowBytes / int64(len(scan.Table.Meta.Columns))
	if perCol < 1 {
		perCol = 1
	}
	return &pushWorker{
		a:       a,
		scan:    scan,
		view:    view,
		perCol:  perCol,
		argv:    make([][]value.Value, len(a.Aggs)),
		dec:     make([]decodeTarget, len(a.Aggs)),
		scratch: make(value.Row, len(scan.Cols)),
		gkey:    make(value.Row, 1),
	}
}

// fold drains the morsel source into t, mirroring ColTableScan's work
// accounting so EXPLAIN ANALYZE reads the same whether or not pushdown
// fired. The decode targets it borrowed go back when it returns.
func (w *pushWorker) fold(ctx *Context, src *colstore.Morsels, t *aggTable) error {
	defer w.release()
	for {
		if ctx.Canceled() {
			return nil
		}
		m, pruned, ok := src.Next()
		ctx.Stats.ChunksSkipped += pruned
		if !ok {
			return nil
		}
		ctx.Stats.MorselsDispatched++
		if m.Base {
			ctx.Stats.ChunksScanned++
			w.foldBase(ctx, m, t)
		} else if err := w.foldDelta(ctx, m, t); err != nil {
			return err
		}
	}
}

// release gives back the worker's decode targets and ordinal vector.
func (w *pushWorker) release() {
	for i := range w.dec {
		w.dec[i].release()
	}
	w.gdec.release()
	linkArrays.give(w.ords)
	w.ords = nil
}

// groupOrds resolves the group of each row at sel, whose group values are
// gvals, to its ordinal in t.states, stored at the row's position in the
// returned vector (borrowed on first need).
func (w *pushWorker) groupOrds(t *aggTable, gvals []value.Value, sel []int32) []int32 {
	if w.ords == nil {
		w.ords = linkArrays.take(BatchSize)
	}
	for _, p := range sel {
		w.gkey[0] = gvals[p]
		w.ords[p] = w.a.groupOf(t, w.gkey)
	}
	return w.ords
}

// foldBase folds one base chunk. The prefilter mirrors baseBatch exactly:
// applied when the pruner is exact (then it is the whole predicate) or the
// chunk has encoded columns (then the sargable bound pre-narrows before
// any decode).
func (w *pushWorker) foldBase(ctx *Context, m colstore.Morsel, t *aggTable) {
	rows := m.Rows()
	ctx.Stats.RowsScanned += int64(rows)
	ctx.Stats.BytesScanned += int64(rows) * w.perCol * int64(len(w.scan.Cols))

	anyEnc := false
	for _, c := range w.scan.Cols {
		if w.view.Cols[c].Chunk(m.Chunk).Enc != colstore.EncRaw {
			anyEnc = true
			break
		}
	}
	fullDecode := false
	countChunk := func() {
		if !anyEnc {
			return
		}
		if fullDecode {
			ctx.Stats.DecodedChunks++
		} else {
			ctx.Stats.EncodedChunks++
		}
	}

	var sel []int32 // candidate positions; nil = all rows
	if pr := w.scan.pruner; pr != nil && (pr.Exact || anyEnc) {
		pch := w.view.Cols[pr.Col].Chunk(m.Chunk)
		res, all := pch.RangeSel(pr.Lo, pr.Hi, pr.LoStrict, pr.HiStrict, w.preSel[:0])
		w.preSel = res
		if !all {
			if len(res) == 0 {
				countChunk()
				return
			}
			sel = res
		}
	}

	switch dead := w.view.BaseDead.Chunk(m.Chunk); {
	case dead != nil:
		// deleted positions in this chunk force the generic per-row walk
		w.foldRowAt(m, t, sel, dead)
	case len(w.a.GroupCols) == 0:
		w.foldGlobal(m, t, sel)
	default:
		fullDecode = w.foldGrouped(m, t, sel)
	}
	countChunk()
}

// foldGlobal folds one chunk into the single global group via the
// per-encoding kernels — no decode, no Value vector.
func (w *pushWorker) foldGlobal(m colstore.Morsel, t *aggTable, sel []int32) {
	a := w.a
	st := w.globalState(t)
	ncand := m.Rows()
	if sel != nil {
		ncand = len(sel)
	}
	for ai := range a.Aggs {
		if a.Aggs[ai].ArgCol < 0 { // COUNT(*): every candidate counts
			st.counts[ai] += int64(ncand)
			continue
		}
		ch := w.view.Cols[w.scan.Cols[a.Aggs[ai].ArgCol]].Chunk(m.Chunk)
		w.aggChunk(st, ai, ch, sel)
	}
}

// aggChunk folds one argument chunk into state slot ai, bit-exactly
// matching a row-order accumulateArg loop over the decoded values.
func (w *pushWorker) aggChunk(st *aggState, ai int, ch *colstore.EncodedChunk, sel []int32) {
	switch ch.Enc {
	case colstore.EncRaw:
		if sel == nil {
			sel = allRows[:ch.N]
		}
		foldSlot(st, ai, ch.Raw, sel)

	case colstore.EncDict:
		// dictionaries hold no NULLs: every candidate counts. Sums stay
		// row-order (one add per row from the per-code float cache);
		// min/max reduce to the extreme codes — the dictionary is sorted
		// by value.Compare, but the explicit code comparison keeps this
		// independent of that.
		df, dfok := w.dictFloats(ch)
		minC, maxC := -1, -1
		foldCode := func(code uint16) {
			st.counts[ai]++
			if dfok[code] {
				st.sums[ai] += df[code]
			}
			c := int(code)
			if minC < 0 {
				minC, maxC = c, c
			} else {
				if c < minC {
					minC = c
				}
				if c > maxC {
					maxC = c
				}
			}
		}
		if sel == nil {
			for _, code := range ch.Codes {
				foldCode(code)
			}
		} else {
			for _, i := range sel {
				foldCode(ch.Codes[i])
			}
		}
		if minC >= 0 {
			applyMinMax(st, ai, ch.Dict[minC])
			applyMinMax(st, ai, ch.Dict[maxC])
		}

	case colstore.EncFoR:
		// FoR chunks are all-Int and NULL-free: unpack to machine ints,
		// track integer extremes, one float add per row for the sum
		var minI, maxI int64
		first := true
		foldInt := func(i int) {
			v := ch.IntAt(i)
			st.counts[ai]++
			st.sums[ai] += float64(v)
			if first {
				minI, maxI = v, v
				first = false
			} else {
				if v < minI {
					minI = v
				}
				if v > maxI {
					maxI = v
				}
			}
		}
		if sel == nil {
			for i := 0; i < ch.N; i++ {
				foldInt(i)
			}
		} else {
			for _, i := range sel {
				foldInt(int(i))
			}
		}
		if !first {
			applyMinMax(st, ai, value.NewInt(minI))
			applyMinMax(st, ai, value.NewInt(maxI))
		}

	case colstore.EncRLE:
		// each run folds as its value repeated over the run's candidates:
		// all its rows, or the selected ones (sel is ascending)
		start, c := 0, 0
		for r, v := range ch.RunVals {
			end := int(ch.RunEnds[r])
			k := end - start
			start = end
			if sel != nil {
				k = 0
				for ; c < len(sel) && int(sel[c]) < end; c++ {
					k++
				}
			}
			foldRepeat(st, ai, v, k)
		}
	}
}

// foldGrouped folds one chunk of a single-column GROUP BY: it resolves
// every candidate row's group, in row order, then folds each argument
// column into its slot (foldGroups). Grouping by a dictionary chunk
// resolves a state per code — one table lookup per distinct code per chunk
// instead of one per row — and folds by the chunk's codes. Other group
// encodings decode the group column like any other; argument columns alias
// raw chunks and decode encoded ones (sparsely under a selection). Reports
// whether any encoded column was fully decoded.
func (w *pushWorker) foldGrouped(m colstore.Morsel, t *aggTable, sel []int32) bool {
	a := w.a
	rows := m.Rows()
	fullDecode := false

	for ai := range a.Aggs {
		w.argv[ai] = nil
		if ac := a.Aggs[ai].ArgCol; ac >= 0 {
			var full bool
			w.argv[ai], full = valuesAt(w.view.Cols[w.scan.Cols[ac]].Chunk(m.Chunk), &w.dec[ai], sel)
			fullDecode = fullDecode || full
		}
	}
	cand := sel
	if cand == nil {
		cand = allRows[:rows]
	}

	gch := w.view.Cols[w.scan.Cols[a.GroupCols[0]]].Chunk(m.Chunk)
	if gch.Enc != colstore.EncDict {
		gvals, full := valuesAt(gch, &w.gdec, sel)
		ords := w.groupOrds(t, gvals, cand) // may grow t.states: read it after
		foldGroups(a, t.states, ords, w.argv, cand)
		return fullDecode || full
	}
	if cap(w.states) < len(gch.Dict) {
		w.states = make([]*aggState, len(gch.Dict))
	}
	byCode := w.states[:len(gch.Dict)]
	clear(byCode)
	// first sight in row order; done once every code has its state
	for seen, k := 0, 0; seen < len(byCode) && k < len(cand); k++ {
		if code := gch.Codes[cand[k]]; byCode[code] == nil {
			byCode[code] = w.groupState(t, gch.Dict[code])
			seen++
		}
	}
	foldGroups(a, byCode, gch.Codes, w.argv, cand)
	return fullDecode
}

// foldRowAt is the generic per-row walk for a base chunk with deleted
// positions: random-access ValueAt reads, no decode, dead rows skipped.
func (w *pushWorker) foldRowAt(m colstore.Morsel, t *aggTable, sel []int32, dead *colstore.DeadMask) {
	a := w.a
	var gch *colstore.EncodedChunk
	if len(a.GroupCols) == 1 {
		gch = w.view.Cols[w.scan.Cols[a.GroupCols[0]]].Chunk(m.Chunk)
	}
	n := m.Rows()
	if sel != nil {
		n = len(sel)
	}
	for ii := 0; ii < n; ii++ {
		i := ii
		if sel != nil {
			i = int(sel[ii])
		}
		if dead.Has(i) {
			continue
		}
		var st *aggState
		if gch != nil {
			st = w.groupState(t, gch.ValueAt(i))
		} else {
			st = w.globalState(t)
		}
		for ai := range a.Aggs {
			if a.Aggs[ai].ArgCol < 0 {
				st.counts[ai]++
				continue
			}
			ch := w.view.Cols[w.scan.Cols[a.Aggs[ai].ArgCol]].Chunk(m.Chunk)
			accumulateArg(st, ai, ch.ValueAt(i))
		}
	}
}

// foldDelta folds one window of replicated-but-unmerged delta rows,
// projected through the scan schema and narrowed by the scan's selection
// kernels — delta rows are never encoded, so the pruner's encoded-domain
// shortcut does not apply here.
func (w *pushWorker) foldDelta(ctx *Context, m colstore.Morsel, t *aggTable) error {
	a, b := w.a, &w.delta
	rows := w.view.Delta[m.Lo:m.Hi]
	ctx.Stats.RowsScanned += int64(len(rows))
	ctx.Stats.BytesScanned += int64(len(rows)) * w.perCol * int64(len(w.scan.Cols))
	if b.Cols == nil {
		b.Cols = make([][]value.Value, len(w.scan.Cols))
	}
	w.deltaSlab = projectRows(b.Cols, rows, w.scan.Cols, w.deltaSlab)
	b.Len, b.Sel = len(rows), nil
	if len(w.scan.filter) > 0 {
		sel, err := w.scan.filter.apply(b.Cols, b.Len, nil, &w.deltaSel, w.scratch, ctx.Params)
		if err != nil || len(sel) == 0 {
			return err
		}
		b.Sel = sel
	}
	if len(a.GroupCols) == 0 {
		a.foldColumns(w.globalState(t), b)
		return nil
	}
	sel := b.Sel
	if sel == nil {
		sel = allRows[:b.Len]
	}
	ords := w.groupOrds(t, b.Cols[a.GroupCols[0]], sel)
	for ai := range a.Aggs {
		if ac := a.Aggs[ai].ArgCol; ac >= 0 {
			w.argv[ai] = b.Cols[ac]
		}
	}
	foldGroups(a, t.states, ords, w.argv, sel)
	return nil
}

// groupState resolves (creating on first sight) the state for a
// single-column group value — the same key as foldBatch's.
func (w *pushWorker) groupState(t *aggTable, gv value.Value) *aggState {
	w.gkey[0] = gv
	return w.a.stateFor(t, w.gkey)
}

// globalState resolves the single global-aggregate state.
func (w *pushWorker) globalState(t *aggTable) *aggState {
	if len(t.states) == 0 {
		return w.a.stateFor(t, nil)
	}
	return t.states[0]
}

// dictFloats returns the per-code AsFloat cache for a dictionary chunk.
func (w *pushWorker) dictFloats(ch *colstore.EncodedChunk) ([]float64, []bool) {
	n := len(ch.Dict)
	if cap(w.df) < n || cap(w.dfok) < n {
		w.df = make([]float64, n)
		w.dfok = make([]bool, n)
	}
	df, dfok := w.df[:n], w.dfok[:n]
	for i, v := range ch.Dict {
		df[i], dfok[i] = v.AsFloat()
	}
	return df, dfok
}
