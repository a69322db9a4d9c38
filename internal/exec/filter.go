package exec

import (
	"slices"

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

// Sarg is a conjunct that tests one operand against literals: operand op
// lit, operand BETWEEN lit AND lit, operand [NOT] IN (lits) or operand LIKE
// 'pat'. A comparison written lit op operand is mirrored to operand op'
// lit. It is the one definition of the shape that scan kernels, index
// paths, zone pruners, shard pins, selectivity estimates and DML's snapshot
// read all look for; each then asks its own question of the operand (a
// bare column, an indexed one, a function call).
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

// SargOf classifies e; false when it is not a Sarg.
func SargOf(e sqlparser.Expr) (Sarg, bool) {
	var s Sarg
	ok := false
	switch x := e.(type) {
	case *sqlparser.BinaryExpr:
		if !x.Op.IsComparison() {
			return Sarg{}, false
		}
		s.Operand, s.Shape, s.Op = x.Left, ShapeCmp, x.Op
		lit := x.Right
		if _, isLit := LitOf(lit); !isLit {
			s.Operand, s.Op, lit = x.Right, mirrored(x.Op), x.Left
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

// mirrored is comparison op with its operands swapped: a < b is b > a.
func mirrored(op sqlparser.BinOp) sqlparser.BinOp {
	switch op {
	case sqlparser.OpLt:
		return sqlparser.OpGt
	case sqlparser.OpLe:
		return sqlparser.OpGe
	case sqlparser.OpGt:
		return sqlparser.OpLt
	case sqlparser.OpGe:
		return sqlparser.OpLe
	}
	return op
}

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
