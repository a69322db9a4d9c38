package exec

import (
	"fmt"
	"sort"

	"htapxplain/internal/sqlparser"
	"htapxplain/internal/value"
)

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
		col := b.Col(spec.ArgCol)
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
