package exec

import (
	"slices"

	"htapxplain/internal/colstore"
	"htapxplain/internal/sqlparser"
	"htapxplain/internal/value"
)

// A columnar scan's predicate runs as an ordered list of selection kernels,
// each narrowing the candidate positions of the batch's column vectors a
// vector at a time. A conjunct that tests one bare column against literals
// (a Sarg) is a column kernel: one test per value, no row assembled, no
// evaluator tree walked. A predicate with any other conjunct is a single
// row kernel running the whole compiled evaluator, so its error and
// short-circuit behaviour stay exactly the evaluator's; column kernels
// cannot fail, which is what lets them run conjunct by conjunct. Either way
// a row is selected exactly when Truthy of the compiled predicate holds for
// it: NULL is never selected, comparisons keep value.Compare semantics, and
// LIKE matches a non-string on its String rendering, as Compile does.
//
// Over a base chunk a column kernel runs in the encoded domain, before any
// decode (narrowChunk): once per dictionary entry or run, or on a FoR
// chunk's packed deltas against an integer window, then a branch-free pass
// over the codes or candidates. Each of those tests is keep, so the encoded
// narrowing is the decoded one by construction.

// Sarg is a conjunct that tests one operand against literals: operand op
// lit, operand BETWEEN lit AND lit, operand [NOT] IN (lits) or operand LIKE
// 'pat'. A comparison written lit op operand is mirrored to operand op'
// lit. It is the one definition of the shape: scan kernels classify their
// conjuncts by it, and the optimizer's binder folds each binding's Sargs
// on one bare column once, for index paths, zone pruners, shard pins,
// selectivity estimates and DML's snapshot read.
type Sarg struct {
	Operand sqlparser.Expr
	Shape   Shape
	Op      sqlparser.BinOp // ShapeCmp: the comparison, Operand on its left
	Not     bool            // ShapeIn: NOT IN
	// Lits are the literals with their slots: ShapeCmp's one, ShapeBetween's
	// lo and hi, ShapeIn's list, ShapeLike's pattern.
	Lits Lits
}

// Shape is the form of a Sarg.
type Shape uint8

const (
	ShapeCmp Shape = iota
	ShapeBetween
	ShapeIn
	ShapeLike
)

// SargOf classifies e; false when it is not a Sarg. NOT goes through a
// comparison and through IN: NOT (c >= x) is c < x, NOT (c IN (…)) is
// c NOT IN (…) — alike under three-valued logic, since NULL is kept by
// neither.
func SargOf(e sqlparser.Expr) (Sarg, bool) {
	var s Sarg
	ok := false
	switch x := e.(type) {
	case *sqlparser.NotExpr:
		s, ok = SargOf(x.Inner)
		switch s.Shape {
		case ShapeCmp:
			s.Op = negated[s.Op]
		case ShapeIn:
			s.Not = !s.Not
		default:
			ok = false
		}
	case *sqlparser.BinaryExpr:
		if !x.Op.IsComparison() {
			return Sarg{}, false
		}
		s.Operand, s.Shape, s.Op = x.Left, ShapeCmp, x.Op
		lit := x.Right
		if _, isLit := LitOf(lit); !isLit {
			s.Operand, s.Op, lit = x.Right, mirrored[x.Op], x.Left
		}
		s.Lits, ok = LitsOf([]sqlparser.Expr{lit}, 0)
	case *sqlparser.BetweenExpr:
		s.Operand, s.Shape = x.Expr, ShapeBetween
		s.Lits, ok = LitsOf([]sqlparser.Expr{x.Lo, x.Hi}, 0)
	case *sqlparser.InExpr:
		s.Operand, s.Shape, s.Not = x.Expr, ShapeIn, x.Not
		s.Lits, ok = LitsOf(x.List, x.Slot)
	case *sqlparser.LikeExpr:
		s.Operand, s.Shape, ok = x.Expr, ShapeLike, true
		s.Lits = Lits{Values: []value.Value{value.NewString(x.Pattern)}}
		if x.Slot > 0 {
			s.Lits.Slots = []int{x.Slot}
		}
	}
	return s, ok
}

// mirrored[op] is comparison op with its operands swapped: a < b is b > a.
// negated[op] holds exactly where op does not, on two non-NULL values.
var (
	mirrored = [...]sqlparser.BinOp{sqlparser.OpEq, sqlparser.OpNe, sqlparser.OpGt, sqlparser.OpGe, sqlparser.OpLt, sqlparser.OpLe}
	negated  = [...]sqlparser.BinOp{sqlparser.OpNe, sqlparser.OpEq, sqlparser.OpGe, sqlparser.OpGt, sqlparser.OpLe, sqlparser.OpLt}
)

// ScanFilter is a columnar scan's predicate compiled to selection kernels;
// empty means no predicate.
type ScanFilter []selKernel

// selKernel is one selection kernel: a column kernel, testing column col's
// value against its Sarg's literals, or, when row is set, the row kernel. A
// column kernel is specialised on its literals' values — a comparison or
// BETWEEN on its operands, IN on its list, LIKE on its pattern's matcher —
// once: at compile time on the planned literals, and again once per
// execution (bind) when a bound literal vector slots them.
type selKernel struct {
	Sarg
	col int

	a, b  value.Value   // ShapeCmp: a; ShapeBetween: a..b
	items []value.Value // ShapeIn
	pat   likePattern   // ShapeLike

	row Evaluator
}

// CompileScanFilter compiles the conjuncts of a scan predicate against the
// scan's schema: one column kernel per conjunct when every conjunct is a
// Sarg on a bare column, otherwise one row kernel over their conjunction.
func CompileScanFilter(conjuncts []sqlparser.Expr, s Schema) (ScanFilter, error) {
	f := make(ScanFilter, 0, len(conjuncts))
	for _, c := range conjuncts {
		sarg, ok := SargOf(c)
		col, bare := bareColumn(sarg.Operand, s)
		if !ok || !bare {
			ev, err := Compile(sqlparser.AndAll(conjuncts), s)
			if err != nil {
				return nil, err
			}
			return ScanFilter{{row: ev}}, nil
		}
		k := selKernel{Sarg: sarg, col: col}
		k.specialise(nil)
		f = append(f, k)
	}
	return f, nil
}

// specialise reads the kernel's literals under p (nil: the planned ones).
func (k *selKernel) specialise(p *Params) {
	switch k.Shape {
	case ShapeCmp:
		k.a = k.Lits.At(0).bind(p)
	case ShapeBetween:
		k.a, k.b = k.Lits.At(0).bind(p), k.Lits.At(1).bind(p)
	case ShapeIn:
		k.items = k.Lits.bind(p, nil)
	case ShapeLike:
		k.pat = compileLike(k.Lits.At(0).bind(p).S)
	}
}

// keep tests one value of the kernel's column: NULL never passes,
// comparisons follow value.Compare, and LIKE matches a non-string on its
// String rendering, as Compile does.
func (k *selKernel) keep(v *value.Value) bool {
	if v.K == value.KindNull {
		return false
	}
	switch k.Shape {
	case ShapeCmp:
		return compareHolds(k.Op, v.Compare(k.a))
	case ShapeBetween:
		return v.Compare(k.a) >= 0 && v.Compare(k.b) <= 0
	case ShapeIn:
		for _, it := range k.items {
			if v.Equal(it) {
				return !k.Not
			}
		}
		return k.Not
	}
	if v.K == value.KindString {
		return k.pat.match(v.S)
	}
	return k.pat.match(v.String())
}

// bind specialises the kernels to the literal vector p, once per
// execution, in buf: f itself stands when p is unbound or no kernel has a
// slot.
func (f ScanFilter) bind(p *Params, buf *ScanFilter) ScanFilter {
	if !p.bound() || !slices.ContainsFunc(f, func(k selKernel) bool { return k.Lits.slotted() }) {
		return f
	}
	b := append((*buf)[:0], f...)
	for i := range b {
		if b[i].Lits.slotted() {
			b[i].specialise(p)
		}
	}
	*buf = b
	return b
}

// bareColumn resolves e to a schema position when it is a column reference.
func bareColumn(e sqlparser.Expr, s Schema) (int, bool) {
	ref, ok := e.(*sqlparser.ColumnRef)
	if !ok {
		return 0, false
	}
	i, err := s.Resolve(ref)
	return i, err == nil
}

// apply runs the kernels in order over the column vectors cols, n rows
// long, starting from the candidates cand (nil: every row), and returns
// the survivors. They are built in *buf, which keeps any growth; cand may
// share its backing array, since a kernel writes position k of its output
// only after reading its candidate k.
func (f ScanFilter) apply(cols [][]value.Value, n int, cand []int32, buf *[]int32, scratch value.Row, p *Params) ([]int32, error) {
	for i := range f {
		out, err := f[i].narrow(cols, n, cand, (*buf)[:0], scratch, p)
		*buf = out
		if err != nil || len(out) == 0 {
			return out, err
		}
		cand = out
	}
	return cand, nil
}

// narrow appends to out, in order, the candidates the kernel selects.
func (k *selKernel) narrow(cols [][]value.Value, n int, cand, out []int32, scratch value.Row, p *Params) ([]int32, error) {
	if k.row != nil {
		return narrowRows(k.row, cols, n, cand, out, scratch, p)
	}
	col := cols[k.col][:n]
	if cand == nil {
		for i := range col {
			if k.keep(&col[i]) {
				out = append(out, int32(i))
			}
		}
		return out, nil
	}
	for _, pos := range cand {
		if k.keep(&col[pos]) {
			out = append(out, pos)
		}
	}
	return out, nil
}

// narrowChunk runs the column kernel over its column's base chunk ch in the
// encoded domain: it appends to out, in order, the candidates (cand,
// ascending; nil: all ch.N rows) the kernel keeps. all reports that every
// candidate was kept — the caller then keeps cand, whatever out holds. ok
// is false when the chunk has no encoded form of the test — a raw chunk, or
// <>, IN, LIKE or a NULL literal over FoR — and the caller runs narrow over
// the decoded values instead. keep is scratch for the per-entry tests. cand
// may share out's backing array, as in apply.
func (k *selKernel) narrowChunk(ch *colstore.EncodedChunk, cand, out []int32, keep *[]bool) (sel []int32, all, ok bool) {
	switch ch.Enc {
	case colstore.EncDict:
		// a dictionary holds no NULL
		kept, some, every := k.keepEach(ch.Dict, keep)
		if !some || every {
			return out[:0], every, true
		}
		sel = selectCodes(ch.Codes, kept, cand, out)
		return sel, cand != nil && len(sel) == len(cand), true
	case colstore.EncRLE:
		kept, some, every := k.keepEach(ch.RunVals, keep)
		if !some || every {
			return out[:0], every, true
		}
		sel = selectRuns(ch.RunEnds, kept, cand, out)
		return sel, cand != nil && len(sel) == len(cand), true
	case colstore.EncFoR:
		var lo, hi *value.Value
		strictLo, strictHi := false, false
		switch {
		case k.Shape == ShapeBetween && !k.a.IsNull() && !k.b.IsNull():
			lo, hi = &k.a, &k.b
		case k.Shape == ShapeCmp && !k.a.IsNull():
			switch k.Op {
			case sqlparser.OpEq:
				lo, hi = &k.a, &k.a
			case sqlparser.OpLt, sqlparser.OpLe:
				hi, strictHi = &k.a, k.Op == sqlparser.OpLt
			case sqlparser.OpGt, sqlparser.OpGe:
				lo, strictLo = &k.a, k.Op == sqlparser.OpGt
			default:
				return nil, false, false
			}
		default:
			return nil, false, false
		}
		sel, all = ch.WindowSel(lo, hi, strictLo, strictHi, cand, out)
		return sel, all, true
	}
	return nil, false, false
}

// keepEach tests every value of vals (a dictionary or a chunk's run
// values) once, into *buf, and reports whether some and every one passed.
func (k *selKernel) keepEach(vals []value.Value, buf *[]bool) (kept []bool, some, every bool) {
	kept = slices.Grow((*buf)[:0], len(vals))[:len(vals)]
	*buf = kept
	every = true
	for i := range vals {
		kept[i] = k.keep(&vals[i])
		some = some || kept[i]
		every = every && kept[i]
	}
	return kept, some, every
}

// selectCodes appends to out the candidates (nil: every row) whose code
// the dictionary test kept — branch-free, like RangeSel's: every position
// is written, and the cursor moves past it only when it is kept.
func selectCodes(codes []uint16, kept []bool, cand, out []int32) []int32 {
	n := 0
	if cand == nil {
		out = slices.Grow(out[:0], len(codes))[:len(codes)]
		for i, code := range codes {
			out[n] = int32(i)
			if kept[code] {
				n++
			}
		}
		return out[:n]
	}
	out = slices.Grow(out[:0], len(cand))[:len(cand)]
	for _, pos := range cand {
		out[n] = pos
		if kept[codes[pos]] {
			n++
		}
	}
	return out[:n]
}

// selectRuns appends to out the candidates (nil: every row) whose run the
// test kept: a kept run's rows at once, or a run cursor over the list.
func selectRuns(ends []int32, kept []bool, cand, out []int32) []int32 {
	if cand == nil {
		out = out[:0]
		start := int32(0)
		for r, end := range ends {
			if kept[r] {
				for pos := start; pos < end; pos++ {
					out = append(out, pos)
				}
			}
			start = end
		}
		return out
	}
	out = slices.Grow(out[:0], len(cand))[:len(cand)]
	n, run := 0, 0
	for _, pos := range cand {
		for ends[run] <= pos {
			run++
		}
		out[n] = pos
		if kept[run] {
			n++
		}
	}
	return out[:n]
}

// narrowRows is the row kernel: each candidate is assembled in scratch and
// the compiled predicate evaluated over it.
func narrowRows(ev Evaluator, cols [][]value.Value, n int, cand, out []int32, scratch value.Row, p *Params) ([]int32, error) {
	if cand != nil {
		n = len(cand)
	}
	for i := 0; i < n; i++ {
		pos := int32(i)
		if cand != nil {
			pos = cand[i]
		}
		for j, col := range cols {
			scratch[j] = col[pos]
		}
		ok, err := Truthy(ev, scratch, p)
		if err != nil {
			return out, err
		}
		if ok {
			out = append(out, pos)
		}
	}
	return out, nil
}
