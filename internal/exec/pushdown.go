package exec

import (
	"htapxplain/internal/colstore"
	"htapxplain/internal/value"
)

// Folding stored chunks: an aggregate whose groups and arguments are bare
// columns, at most one group column, opens its child like any other
// aggregate — one pipeline, or one per worker over a shared morsel cursor
// (forkPipeline) — and folds every batch a column and a slot at a time.
// When its child is a bare columnar scan (through an EXPLAIN ANALYZE
// wrapper or not), the aggregate asks the scan for its base chunks as
// stored (storedFold): the scan runs its whole selection on each base
// morsel — the pruner's encoded prefilter, the delete set, every kernel —
// and hands up the morsel's emitted chunks beside the survivors, decoding
// only the columns the fold reads as values. A global fold then folds each
// argument chunk as stored (aggChunk): RLE runs run-at-a-time, dictionary
// chunks code-at-a-time, FoR chunks unpacked to machine integers, raw
// vectors through the typed kernels (foldSlot). A grouped fold resolves
// each active row's group state first, in row order — per dictionary code
// when the group chunk is a dictionary (one hash lookup per distinct code,
// not per row), to an ordinal per row through the hash table otherwise —
// and then folds each argument column into its slot over the whole batch
// (foldGroups). Delta windows, and every batch of a non-scan child (a
// join's output), are decoded batches and fold the same way by ordinal.
//
// Every kernel accumulates in row order with the same float operations as
// accumulateArg, so folding stored chunks is byte-identical to the row
// fold at the same DOP — the invariant the storage-immutability and
// recovery differential suites assert exactly, not approximately.

// storedFold is what an aggregate folds as stored of its child scan's base
// chunks, set on the scans it drives (see readyFolds): the scan decodes
// every emitted column except those the fold reads as stored.
type storedFold struct {
	// global: every argument chunk folds as stored, in any encoding, so no
	// emitted column is decoded.
	global bool
	// byCode is the group column of a grouped fold when no argument reads
	// it (-1 otherwise): left stored when its chunk is a dictionary, whose
	// codes the fold resolves groups by.
	byCode int
}

// readyFolds readies a fold worker's scratch for each pipeline and, when
// the aggregate folds columns, asks the bare scan at the leaf of each for
// its base chunks as stored.
func (a *HashAggregate) readyFolds(pipes []BatchOperator) {
	for len(a.folds) < len(pipes) {
		a.folds = append(a.folds, &aggFold{a: a, argv: make([][]value.Value, len(a.Aggs)), gkey: make(value.Row, 1)})
	}
	if !a.columnar() || len(a.GroupCols) > 1 {
		return
	}
	a.stored = storedFold{global: len(a.GroupCols) == 0, byCode: -1}
	if !a.stored.global {
		a.stored.byCode = a.GroupCols[0]
		for _, spec := range a.Aggs {
			if spec.ArgCol == a.stored.byCode {
				a.stored.byCode = -1
			}
		}
	}
	for w, p := range pipes {
		if x, ok := p.(*analyzeOp); ok {
			p = x.child
		}
		if s, ok := p.(*ColTableScan); ok {
			s.fold, a.folds[w].scan = &a.stored, s
		}
	}
}

// aggFold is one fold worker's scratch, kept by the aggregate across
// executions: the scan whose chunks it folds as stored, the argument
// vectors of the current batch, the per-dictionary-code group states and
// float cache of the current chunk, and the per-position group ordinals
// and a FoR argument chunk's ints, borrowed from the recycler for the
// length of one fold.
type aggFold struct {
	a      *HashAggregate
	scan   *ColTableScan   // nil: the child is no bare scan
	argv   [][]value.Value // per-aggregate argument vector
	states []*aggState     // per-dictionary-code group state
	ords   []int32         // per-position group ordinal
	ints   target[int64]   // a FoR argument chunk's ints
	df     []float64       // per-dictionary-code AsFloat cache
	dfok   []bool
	gkey   value.Row // one-column group key
}

// release gives back the ordinal and int vectors and drops the fold's references
// to the scan, to storage and to the execution's group states.
func (f *aggFold) release() {
	linkArrays.give(f.ords)
	f.ints.release(&keyArrays)
	f.ords, f.scan = nil, nil
	clear(f.argv)
	clear(f.states)
}

// stored returns the emitted chunks, as stored, of the batch the scan just
// handed the fold: nil for a delta batch, or when the child is no bare
// scan.
func (f *aggFold) stored() []*colstore.EncodedChunk {
	if f.scan == nil {
		return nil
	}
	return f.scan.stored
}

// foldStored folds a base batch's argument chunks as stored into the
// global state st — no decode, no Value vector.
func (f *aggFold) foldStored(st *aggState, b *Batch) {
	stored := f.stored()
	for i, spec := range f.a.Aggs {
		if spec.ArgCol < 0 { // COUNT(*): every active row counts
			st.counts[i] += int64(b.NumActive())
			continue
		}
		f.aggChunk(st, i, stored[spec.ArgCol], b.Sel)
	}
}

// aggChunk folds one argument chunk into state slot ai, bit-exactly
// matching a row-order accumulateArg loop over the decoded values.
func (f *aggFold) aggChunk(st *aggState, ai int, ch *colstore.EncodedChunk, sel []int32) {
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
		df, dfok := f.dictFloats(ch)
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
		// FoR chunks are all-Int and NULL-free: decode to machine ints,
		// track integer extremes, one float add per row for the sum
		ints := f.ints.get(&keyArrays, ch.N)
		if sel == nil {
			sel = allRows[:ch.N]
			ch.DecodeInts(ints)
		} else {
			ch.DecodeIntsSel(ints, sel)
		}
		if len(sel) == 0 {
			return
		}
		sum, minI, maxI := st.sums[ai], ints[sel[0]], ints[sel[0]]
		for _, p := range sel {
			v := ints[p]
			sum += float64(v)
			minI, maxI = min(minI, v), max(maxI, v)
		}
		st.counts[ai] += int64(len(sel))
		st.sums[ai] = sum
		applyMinMax(st, ai, value.NewInt(minI))
		applyMinMax(st, ai, value.NewInt(maxI))

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

// foldGrouped folds b into t for a one-column GROUP BY: it resolves every
// active row's group, in row order, then folds each argument column into
// its slot (foldGroups). A stored batch whose group chunk is a dictionary
// resolves a state per code — one table lookup per distinct code per chunk
// instead of one per row — and folds by the chunk's codes; any other batch
// resolves an ordinal per row through the hash table, in allRows-long
// pieces when it has no selection.
func (f *aggFold) foldGrouped(t *aggTable, b *Batch) {
	a := f.a
	g := a.GroupCols[0]
	if stored := f.stored(); stored != nil && stored[g].Enc == colstore.EncDict {
		f.setArgs(b, 0)
		cand := b.Sel
		if cand == nil {
			cand = allRows[:b.Len]
		}
		foldGroups(a, f.codeStates(t, stored[g], cand), stored[g].Codes, f.argv, cand)
		return
	}
	if b.Sel != nil {
		f.setArgs(b, 0)
		foldGroups(a, t.states, f.groupOrds(t, b.Col(g), b.Sel), f.argv, b.Sel)
		return
	}
	for lo := 0; lo < b.Len; lo += len(allRows) {
		sel := allRows[:min(len(allRows), b.Len-lo)]
		f.setArgs(b, lo)
		ords := f.groupOrds(t, b.Col(g)[lo:], sel) // may grow t.states: read it after
		foldGroups(a, t.states, ords, f.argv, sel)
	}
}

// setArgs points each argument's vector at b's column, from position lo.
func (f *aggFold) setArgs(b *Batch, lo int) {
	for i, spec := range f.a.Aggs {
		if spec.ArgCol >= 0 {
			f.argv[i] = b.Col(spec.ArgCol)[lo:]
		}
	}
}

// codeStates resolves the group state of every code of the dictionary
// chunk gch that a row at cand carries, in first-sight row order, into a
// vector indexed by code; it stops once every code has its state.
func (f *aggFold) codeStates(t *aggTable, gch *colstore.EncodedChunk, cand []int32) []*aggState {
	if cap(f.states) < len(gch.Dict) {
		f.states = make([]*aggState, len(gch.Dict))
	}
	byCode := f.states[:len(gch.Dict)]
	clear(byCode)
	for seen, k := 0, 0; seen < len(byCode) && k < len(cand); k++ {
		if code := gch.Codes[cand[k]]; byCode[code] == nil {
			f.gkey[0] = gch.Dict[code]
			byCode[code] = f.a.stateFor(t, f.gkey)
			seen++
		}
	}
	return byCode
}

// groupOrds resolves the group of each row at sel, whose group values are
// gvals, to its ordinal in t.states, stored at the row's position in the
// returned vector — borrowed on first need, and grown for a selection
// that reaches past allRows (a join's output).
func (f *aggFold) groupOrds(t *aggTable, gvals []value.Value, sel []int32) []int32 {
	if n := int(sel[len(sel)-1]) + 1; cap(f.ords) < n {
		linkArrays.give(f.ords)
		f.ords = linkArrays.take(max(n, BatchSize))
	}
	ords := f.ords[:cap(f.ords)]
	for _, p := range sel {
		f.gkey[0] = gvals[p]
		ords[p] = f.a.groupOf(t, f.gkey)
	}
	return ords
}

// dictFloats returns the per-code AsFloat cache for a dictionary chunk.
func (f *aggFold) dictFloats(ch *colstore.EncodedChunk) ([]float64, []bool) {
	n := len(ch.Dict)
	if cap(f.df) < n || cap(f.dfok) < n {
		f.df = make([]float64, n)
		f.dfok = make([]bool, n)
	}
	df, dfok := f.df[:n], f.dfok[:n]
	for i, v := range ch.Dict {
		df[i], dfok[i] = v.AsFloat()
	}
	return df, dfok
}
