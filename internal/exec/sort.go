package exec

import (
	"sort"
	"sync/atomic"

	"htapxplain/internal/value"
)

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
// applies the offset. Once the top is full, a batch is screened against
// the top's last keeper (admit), in one loop over its key column for a
// single-column order; only a row that enters is read out of its batch and
// placed, copied into the row it evicts.
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
		for i := 0; i < n && keep > 0; i++ {
			if int64(len(top)) >= keep {
				if i, err = t.admit(b, i, top[len(top)-1], scratch, p); err != nil {
					_ = t.Child.Close()
					return err
				}
				if i == n {
					break
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

// admit returns the ordinal of the first active row of b from i on that
// enters a full top whose last keeper is last — one that sorts strictly
// before it, ties losing to earlier rows — or NumActive when none does. A
// single ColumnKey is screened in one loop over its column: an int form,
// and values when both keys are ints or floats, compare as float64 — what
// value.Compare does for numeric kinds, NaN comparing equal to everything;
// NULL, strings and multi-key orders compare through the keys' evaluators.
func (t *TopNOp) admit(b *Batch, i int, last, scratch value.Row, p *Params) (int, error) {
	n := b.NumActive()
	var lf float64
	var ints []int64
	var col []value.Value
	desc, screen := false, false
	if len(t.Keys) == 1 && t.Keys[0].col > 0 {
		c := t.Keys[0].col - 1
		lf, screen = last[c].AsFloat()
		desc, ints, col = t.Keys[0].Desc, b.intCol(c), b.Cols[c]
	}
	if screen && ints != nil {
		for ; i < n; i++ {
			if f := float64(ints[b.PosAt(i)]); desc && f > lf || !desc && f < lf {
				return i, nil
			}
		}
		return n, nil
	}
	for ; i < n; i++ {
		if screen {
			if f, ok := col[b.PosAt(i)].AsFloat(); ok {
				if desc && f > lf || !desc && f < lf {
					return i, nil
				}
				continue
			}
		}
		c, err := compareByKeys(t.Keys, b.FillRow(i, scratch), last, p)
		if err != nil || c < 0 {
			return i, err
		}
	}
	return n, nil
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
