package exec

import (
	"slices"

	"htapxplain/internal/sqlparser"
	"htapxplain/internal/value"
)

// A columnar scan's predicate runs as an ordered list of selection kernels,
// each narrowing the candidate positions of the batch's column vectors a
// vector at a time. A conjunct that tests one bare column against literals —
// col <op> lit, col BETWEEN lit AND lit, col IN (lits), col LIKE 'pat' — is
// a column kernel: one test per value, no row assembled, no evaluator tree
// walked. A predicate with any other conjunct is a single row kernel running
// the whole compiled evaluator, so its error and short-circuit behaviour stay
// exactly the evaluator's; column kernels cannot fail, which is what lets
// them run conjunct by conjunct. Either way a row is selected exactly when
// Truthy of the compiled predicate holds for it: NULL is never selected,
// comparisons keep value.Compare semantics, and LIKE matches a non-string on
// its String rendering, as Compile does.

// ScanFilter is a columnar scan's predicate compiled to selection kernels;
// empty means no predicate.
type ScanFilter []selKernel

// selKernel is one selection kernel: a column kernel, testing column col's
// value against the literals lits by its kind, or, when row is set, the row
// kernel. A column kernel is specialised on its literals' values — a
// comparison or BETWEEN on its operands, IN on its list, LIKE on its
// pattern's matcher — once: at compile time on the planned literals, and
// again once per execution (bind) when a bound literal vector slots them.
type selKernel struct {
	col  int
	kind kernelKind
	op   sqlparser.BinOp // kernelCmp
	not  bool            // kernelIn: NOT IN
	lits Lits

	a, b  value.Value   // kernelCmp: a; kernelBetween: a..b
	items []value.Value // kernelIn
	pat   likePattern   // kernelLike

	row Evaluator
}

type kernelKind uint8

const (
	kernelCmp kernelKind = iota
	kernelBetween
	kernelIn
	kernelLike
)

// CompileScanFilter compiles the conjuncts of a scan predicate against the
// scan's schema: one column kernel per conjunct when every conjunct has one,
// otherwise one row kernel over their conjunction.
func CompileScanFilter(conjuncts []sqlparser.Expr, s Schema) (ScanFilter, error) {
	f := make(ScanFilter, 0, len(conjuncts))
	for _, c := range conjuncts {
		k, ok := columnKernel(c, s)
		if !ok {
			ev, err := Compile(sqlparser.AndAll(conjuncts), s)
			if err != nil {
				return nil, err
			}
			return ScanFilter{{row: ev}}, nil
		}
		k.specialise(nil)
		f = append(f, k)
	}
	return f, nil
}

// columnKernel compiles one conjunct to a column kernel, if it has one.
func columnKernel(e sqlparser.Expr, s Schema) (selKernel, bool) {
	var k selKernel
	var operand sqlparser.Expr
	var ok, isLit bool
	switch x := e.(type) {
	case *sqlparser.BinaryExpr:
		operand, k.kind, k.op = x.Left, kernelCmp, x.Op
		k.lits, isLit = LitsOf([]sqlparser.Expr{x.Right}, 0)
		isLit = isLit && x.Op.IsComparison()
	case *sqlparser.BetweenExpr:
		operand, k.kind = x.Expr, kernelBetween
		k.lits, isLit = LitsOf([]sqlparser.Expr{x.Lo, x.Hi}, 0)
	case *sqlparser.InExpr:
		operand, k.kind, k.not = x.Expr, kernelIn, x.Not
		k.lits, isLit = LitsOf(x.List, x.Slot)
	case *sqlparser.LikeExpr:
		operand, k.kind, isLit = x.Expr, kernelLike, true
		k.lits = Lits{Values: []value.Value{value.NewString(x.Pattern)}}
		if x.Slot > 0 {
			k.lits.Slots = []int{x.Slot}
		}
	default:
		return selKernel{}, false
	}
	k.col, ok = bareColumn(operand, s)
	return k, ok && isLit
}

// specialise reads the kernel's literals under p (nil: the planned ones).
func (k *selKernel) specialise(p *Params) {
	lit := func(i int) value.Value {
		if k.lits.Slots == nil {
			return k.lits.Values[i]
		}
		return p.Value(k.lits.Slots[i], k.lits.Values[i])
	}
	switch k.kind {
	case kernelCmp:
		k.a = lit(0)
	case kernelBetween:
		k.a, k.b = lit(0), lit(1)
	case kernelIn:
		k.items = k.lits.bind(p, nil)
	case kernelLike:
		k.pat = compileLike(lit(0).S)
	}
}

// keep tests one value of the kernel's column: NULL never passes,
// comparisons follow value.Compare, and LIKE matches a non-string on its
// String rendering, as Compile does.
func (k *selKernel) keep(v *value.Value) bool {
	if v.K == value.KindNull {
		return false
	}
	switch k.kind {
	case kernelCmp:
		return compareHolds(k.op, v.Compare(k.a))
	case kernelBetween:
		return v.Compare(k.a) >= 0 && v.Compare(k.b) <= 0
	case kernelIn:
		for _, it := range k.items {
			if v.Equal(it) {
				return !k.not
			}
		}
		return k.not
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
	if !p.bound() || !slices.ContainsFunc(f, func(k selKernel) bool { return k.lits.slotted() }) {
		return f
	}
	b := append((*buf)[:0], f...)
	for i := range b {
		if b[i].lits.slotted() {
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
