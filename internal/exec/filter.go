package exec

import (
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

// selKernel is one selection kernel: a column kernel (keep tests column
// col's value) or, when row is set, the row kernel.
type selKernel struct {
	col  int
	keep func(v *value.Value) bool
	row  Evaluator
}

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
		f = append(f, k)
	}
	return f, nil
}

// columnKernel compiles one conjunct to a column kernel, if it has one.
func columnKernel(e sqlparser.Expr, s Schema) (selKernel, bool) {
	switch x := e.(type) {
	case *sqlparser.BinaryExpr:
		col, ok := bareColumn(x.Left, s)
		lit, isLit := LiteralValue(x.Right)
		if !ok || !isLit || !x.Op.IsComparison() {
			return selKernel{}, false
		}
		op := x.Op
		return selKernel{col: col, keep: func(v *value.Value) bool {
			return v.K != value.KindNull && compareHolds(op, v.Compare(lit))
		}}, true
	case *sqlparser.BetweenExpr:
		col, ok := bareColumn(x.Expr, s)
		lo, loLit := LiteralValue(x.Lo)
		hi, hiLit := LiteralValue(x.Hi)
		if !ok || !loLit || !hiLit {
			return selKernel{}, false
		}
		return selKernel{col: col, keep: func(v *value.Value) bool {
			return v.K != value.KindNull && v.Compare(lo) >= 0 && v.Compare(hi) <= 0
		}}, true
	case *sqlparser.InExpr:
		col, ok := bareColumn(x.Expr, s)
		if !ok {
			return selKernel{}, false
		}
		items := make([]value.Value, len(x.List))
		for i, it := range x.List {
			if items[i], ok = LiteralValue(it); !ok {
				return selKernel{}, false
			}
		}
		not := x.Not
		return selKernel{col: col, keep: func(v *value.Value) bool {
			if v.K == value.KindNull {
				return false
			}
			for _, it := range items {
				if v.Equal(it) {
					return !not
				}
			}
			return not
		}}, true
	case *sqlparser.LikeExpr:
		col, ok := bareColumn(x.Expr, s)
		if !ok {
			return selKernel{}, false
		}
		pat := compileLike(x.Pattern)
		return selKernel{col: col, keep: func(v *value.Value) bool {
			switch v.K {
			case value.KindNull:
				return false
			case value.KindString:
				return pat.match(v.S)
			}
			return pat.match(v.String())
		}}, true
	}
	return selKernel{}, false
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

// LiteralValue is the value of a literal expression; false for any other
// expression.
func LiteralValue(e sqlparser.Expr) (value.Value, bool) {
	switch l := e.(type) {
	case *sqlparser.IntLit:
		return value.NewInt(l.V), true
	case *sqlparser.FloatLit:
		return value.NewFloat(l.V), true
	case *sqlparser.StringLit:
		return value.NewString(l.V), true
	}
	return value.Value{}, false
}

// apply runs the kernels in order over the column vectors cols, n rows
// long, starting from the candidates cand (nil: every row), and returns
// the survivors. They are built in *buf, which keeps any growth; cand may
// share its backing array, since a kernel writes position k of its output
// only after reading its candidate k.
func (f ScanFilter) apply(cols [][]value.Value, n int, cand []int32, buf *[]int32, scratch value.Row) ([]int32, error) {
	for i := range f {
		out, err := f[i].narrow(cols, n, cand, (*buf)[:0], scratch)
		*buf = out
		if err != nil || len(out) == 0 {
			return out, err
		}
		cand = out
	}
	return cand, nil
}

// narrow appends to out, in order, the candidates the kernel selects.
func (k *selKernel) narrow(cols [][]value.Value, n int, cand, out []int32, scratch value.Row) ([]int32, error) {
	if k.row != nil {
		return narrowRows(k.row, cols, n, cand, out, scratch)
	}
	col, keep := cols[k.col][:n], k.keep
	if cand == nil {
		for i := range col {
			if keep(&col[i]) {
				out = append(out, int32(i))
			}
		}
		return out, nil
	}
	for _, p := range cand {
		if keep(&col[p]) {
			out = append(out, p)
		}
	}
	return out, nil
}

// narrowRows is the row kernel: each candidate is assembled in scratch and
// the compiled predicate evaluated over it.
func narrowRows(ev Evaluator, cols [][]value.Value, n int, cand, out []int32, scratch value.Row) ([]int32, error) {
	if cand != nil {
		n = len(cand)
	}
	for i := 0; i < n; i++ {
		p := int32(i)
		if cand != nil {
			p = cand[i]
		}
		for j, col := range cols {
			scratch[j] = col[p]
		}
		ok, err := Truthy(ev, scratch)
		if err != nil {
			return out, err
		}
		if ok {
			out = append(out, p)
		}
	}
	return out, nil
}
