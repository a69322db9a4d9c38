// Package optimizer implements the two distinct HTAP query optimizers:
// the TP planner (index-aware, nested-loop-centric, row cost model) and
// the AP planner (hash-join-centric, columnar cost model). Mirroring
// ByteHTAP, the two cost models use deliberately non-comparable units —
// which is exactly why the paper forbids the LLM from comparing plan
// costs across engines.
package optimizer

import (
	"fmt"
	"math"
	"strings"

	"htapxplain/internal/catalog"
	"htapxplain/internal/exec"
	"htapxplain/internal/sqlparser"
	"htapxplain/internal/value"
)

// boundTable is one FROM entry resolved against the catalog.
type boundTable struct {
	binding string
	meta    *catalog.Table
}

// joinPred is an equi-join conjunct a.col = b.col.
type joinPred struct {
	aBind, aCol string
	bBind, bCol string
	expr        sqlparser.Expr
}

// analysis is the bound, classified form of a SELECT.
type analysis struct {
	sel        *sqlparser.Select
	cat        *catalog.Catalog
	tables     []boundTable
	tablePreds map[string][]sqlparser.Expr // binding → single-table conjuncts
	joinPreds  []joinPred
	otherPreds []sqlparser.Expr // multi-table non-equi conjuncts

	// moved names the bindings whose base-table scan is replaced by an
	// exchange leaf — the hook distributed fragments use to read
	// shuffled/broadcast rows instead of local storage. Moved rows carry
	// the full table schema and are already filtered at their source.
	moved map[string]bool

	// ties are the slot pairs a literal vector must hold equal for the
	// plan to execute it: recorded wherever planning matched expressions
	// by their text (tieText).
	ties []sqlparser.Tie
}

func (a *analysis) table(binding string) (boundTable, bool) {
	for _, t := range a.tables {
		if strings.EqualFold(t.binding, binding) {
			return t, true
		}
	}
	return boundTable{}, false
}

// selectsStar reports whether the select list has a *, which reads every
// column of every table.
func (a *analysis) selectsStar() bool {
	for _, it := range a.sel.Items {
		if it.Star {
			return true
		}
	}
	return false
}

// bind resolves the FROM list, qualifies every column reference in place,
// and classifies WHERE conjuncts.
func bind(cat *catalog.Catalog, sel *sqlparser.Select) (*analysis, error) {
	if len(sel.From) == 0 {
		return nil, fmt.Errorf("optimizer: query has no FROM clause")
	}
	a := &analysis{sel: sel, cat: cat, tablePreds: make(map[string][]sqlparser.Expr)}
	seen := map[string]bool{}
	for _, tr := range sel.From {
		meta, ok := cat.Table(tr.Name)
		if !ok {
			return nil, fmt.Errorf("optimizer: unknown table %q", tr.Name)
		}
		b := strings.ToLower(tr.Binding())
		if seen[b] {
			return nil, fmt.Errorf("optimizer: duplicate table binding %q", b)
		}
		seen[b] = true
		a.tables = append(a.tables, boundTable{binding: b, meta: meta})
	}

	// qualify every column reference in the statement
	qualify := func(refs []*sqlparser.ColumnRef) error {
		for _, ref := range refs {
			if ref.Table != "" {
				bt, ok := a.table(ref.Table)
				if !ok {
					return fmt.Errorf("optimizer: unknown table qualifier %q", ref.Table)
				}
				if _, ok := bt.meta.Column(ref.Column); !ok {
					return fmt.Errorf("optimizer: no column %q in table %q", ref.Column, ref.Table)
				}
				ref.Table = strings.ToLower(ref.Table)
				ref.Column = strings.ToLower(ref.Column)
				continue
			}
			var owner string
			for _, t := range a.tables {
				if _, ok := t.meta.Column(ref.Column); ok {
					if owner != "" {
						return fmt.Errorf("optimizer: ambiguous column %q", ref.Column)
					}
					owner = t.binding
				}
			}
			if owner == "" {
				return fmt.Errorf("optimizer: unknown column %q", ref.Column)
			}
			ref.Table = owner
			ref.Column = strings.ToLower(ref.Column)
		}
		return nil
	}
	for _, it := range sel.Items {
		if it.Star {
			continue
		}
		if err := qualify(sqlparser.ColumnsIn(it.Expr)); err != nil {
			return nil, err
		}
	}
	if err := qualify(sqlparser.ColumnsIn(sel.Where)); err != nil {
		return nil, err
	}
	for _, g := range sel.GroupBy {
		if err := qualify(sqlparser.ColumnsIn(g)); err != nil {
			return nil, err
		}
	}
	for _, o := range sel.OrderBy {
		if err := qualify(sqlparser.ColumnsIn(o.Expr)); err != nil {
			return nil, err
		}
	}

	// classify conjuncts
	for _, c := range sqlparser.Conjuncts(sel.Where) {
		binds := bindingsOf(c)
		switch {
		case len(binds) == 1:
			b := binds[0]
			a.tablePreds[b] = append(a.tablePreds[b], c)
		case len(binds) == 2:
			if jp, ok := asEquiJoin(c); ok {
				a.joinPreds = append(a.joinPreds, jp)
			} else {
				a.otherPreds = append(a.otherPreds, c)
			}
		default:
			a.otherPreds = append(a.otherPreds, c)
		}
	}
	return a, nil
}

// bindingsOf returns the distinct bindings referenced by an expression
// (sorted for determinism).
func bindingsOf(e sqlparser.Expr) []string {
	set := map[string]bool{}
	for _, ref := range sqlparser.ColumnsIn(e) {
		set[ref.Table] = true
	}
	out := make([]string, 0, len(set))
	for b := range set {
		out = append(out, b)
	}
	// insertion order of maps is random; sort small slice
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if out[j] < out[i] {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

// asEquiJoin recognizes `a.x = b.y` between two different bindings.
func asEquiJoin(e sqlparser.Expr) (joinPred, bool) {
	be, ok := e.(*sqlparser.BinaryExpr)
	if !ok || be.Op != sqlparser.OpEq {
		return joinPred{}, false
	}
	l, lok := be.Left.(*sqlparser.ColumnRef)
	r, rok := be.Right.(*sqlparser.ColumnRef)
	if !lok || !rok || l.Table == r.Table {
		return joinPred{}, false
	}
	return joinPred{aBind: l.Table, aCol: l.Column, bBind: r.Table, bCol: r.Column, expr: e}, true
}

// --------------------------------------------------------- selectivity

// ndvOf returns the NDV of a column (falling back to table cardinality).
func ndvOf(meta *catalog.Table, col string) float64 {
	c, ok := meta.Column(col)
	if !ok || c.NDV <= 0 {
		return float64(meta.Rows)
	}
	return float64(c.NDV)
}

// selectivity estimates the fraction of the rows of table that satisfy e,
// a predicate on it alone. Function-wrapped columns get heuristic defaults
// (their distributions are opaque to the optimizer — the reason such
// predicates also cannot use indexes).
func selectivity(table *catalog.Table, e sqlparser.Expr) float64 {
	switch x := e.(type) {
	case *sqlparser.BinaryExpr:
		switch x.Op {
		case sqlparser.OpAnd:
			return clampSel(selectivity(table, x.Left) * selectivity(table, x.Right))
		case sqlparser.OpOr:
			l, r := selectivity(table, x.Left), selectivity(table, x.Right)
			return clampSel(l + r - l*r)
		}
	case *sqlparser.NotExpr:
		return clampSel(1 - selectivity(table, x.Inner))
	}
	if s, ok := exec.SargOf(e); ok {
		return sargSelectivity(table, s)
	}
	// Not a Sarg (an expression on both sides of a comparison, an IN item
	// or a BETWEEN bound that is not a literal): its shape's estimate, the
	// left side standing as the operand.
	switch x := e.(type) {
	case *sqlparser.BinaryExpr:
		if x.Op.IsComparison() {
			return cmpSelectivity(table, x.Left, x.Op)
		}
	case *sqlparser.InExpr:
		return inSelectivity(table, x.Expr, len(x.List), x.Not)
	case *sqlparser.BetweenExpr:
		return betweenSel
	}
	return 0.5
}

// betweenSel is the estimate of a BETWEEN.
const betweenSel = 0.25

// sargSelectivity estimates the fraction of the rows of table that satisfy
// the Sarg s.
func sargSelectivity(table *catalog.Table, s exec.Sarg) float64 {
	switch s.Shape {
	case exec.ShapeCmp:
		return cmpSelectivity(table, s.Operand, s.Op)
	case exec.ShapeIn:
		return inSelectivity(table, s.Operand, len(s.Lits.Values), s.Not)
	case exec.ShapeBetween:
		return betweenSel
	}
	if !strings.HasPrefix(s.Lits.Values[0].S, "%") {
		return 0.05
	}
	return 0.1
}

// cmpSelectivity estimates operand op x.
func cmpSelectivity(table *catalog.Table, operand sqlparser.Expr, op sqlparser.BinOp) float64 {
	switch op {
	case sqlparser.OpEq:
	case sqlparser.OpNe:
		return 0.9
	default:
		return 0.3
	}
	switch x := operand.(type) {
	case *sqlparser.ColumnRef:
		return clampSel(1.0 / ndvOf(table, x.Column))
	case *sqlparser.FuncExpr:
		return 0.04 // e.g. SUBSTRING(...) = '20': one of ~25 codes
	}
	return 0.05
}

// inSelectivity estimates operand [NOT] IN a list of k items.
func inSelectivity(table *catalog.Table, operand sqlparser.Expr, k int, not bool) float64 {
	domain := 25.0 // function-wrapped default (phone country codes)
	if ref, ok := operand.(*sqlparser.ColumnRef); ok {
		domain = ndvOf(table, ref.Column)
	}
	sel := float64(k) / domain
	if not {
		sel = 1 - sel
	}
	return clampSel(sel)
}

func clampSel(s float64) float64 {
	if s < 1e-9 {
		return 1e-9
	}
	if s > 1 {
		return 1
	}
	return s
}

// tableSelectivity is the product of all single-table predicates on a
// binding.
func tableSelectivity(a *analysis, t boundTable) float64 {
	s := 1.0
	for _, p := range a.tablePreds[t.binding] {
		s *= selectivity(t.meta, p)
	}
	return clampSel(s)
}

// estRows is the estimated post-filter cardinality of a binding at the
// modeled scale.
func estRows(a *analysis, t boundTable) float64 {
	return math.Max(1, float64(t.meta.Rows)*tableSelectivity(a, t))
}

// joinSelectivity estimates 1/max(ndv_a, ndv_b) for an equi-join.
func joinSelectivity(a *analysis, jp joinPred) float64 {
	at, aok := a.table(jp.aBind)
	bt, bok := a.table(jp.bBind)
	if !aok || !bok {
		return 0.1
	}
	na, nb := ndvOf(at.meta, jp.aCol), ndvOf(bt.meta, jp.bCol)
	return clampSel(1.0 / math.Max(na, nb))
}

// --------------------------------------------------------- sargability

// sargable describes a single-table predicate an access path can use in
// place of a row-by-row test: a bare column equal to literals (keys) or
// bounded by them (lo, hi).
type sargable struct {
	column string
	keys   exec.Lits // equality / IN keys; none for a range
	lo, hi *exec.Lit // range bounds; nil = open
	// loStrict/hiStrict mark exclusive bounds (> / <). An index range scan
	// is inclusive, so TP keeps such a predicate in its residual filter;
	// the AP zone pruner propagates them so its chunk-level RangeSel can
	// stand in for the compiled predicate exactly.
	loStrict, hiStrict bool
	sel                float64
	pred               sqlparser.Expr
	conj               int // pred's position in preds
}

// pickSargable finds the most selective of preds, the single-table
// predicates on table, that is sargable — a bare (not function-wrapped)
// column compared to literals — and that the access path accepts. This is
// where SUBSTRING(c_phone,1,2) IN (...) fails to qualify — the paper's
// central example of index-unusable predicates; best.pred is nil when none
// qualifies. bare reports whether every predicate is a Sarg on a bare
// column.
func pickSargable(table *catalog.Table, preds []sqlparser.Expr, accept func(sargable) bool) (best sargable, bare bool) {
	bare = true
	for i, p := range preds {
		x, ok := exec.SargOf(p)
		ref, isCol := x.Operand.(*sqlparser.ColumnRef)
		if !ok || !isCol {
			bare = false
			continue
		}
		s := sargable{column: ref.Column, sel: sargSelectivity(table, x), pred: p, conj: i}
		lit := func(i int) *exec.Lit { l := x.Lits.At(i); return &l }
		switch {
		case x.Shape == exec.ShapeIn && !x.Not, x.Shape == exec.ShapeCmp && x.Op == sqlparser.OpEq:
			s.keys = x.Lits
		case x.Shape == exec.ShapeBetween:
			s.lo, s.hi = lit(0), lit(1)
		case x.Shape == exec.ShapeCmp && (x.Op == sqlparser.OpGt || x.Op == sqlparser.OpGe):
			s.lo, s.loStrict = lit(0), x.Op == sqlparser.OpGt
		case x.Shape == exec.ShapeCmp && (x.Op == sqlparser.OpLt || x.Op == sqlparser.OpLe):
			s.hi, s.hiStrict = lit(0), x.Op == sqlparser.OpLt
		default:
			continue
		}
		if accept(s) && (best.pred == nil || s.sel < best.sel) {
			best = s
		}
	}
	return best, bare
}

// indexSargable is the row store's acceptance: the column has an index.
func indexSargable(table *catalog.Table, preds []sqlparser.Expr) (sargable, bool) {
	return pickSargable(table, preds, func(s sargable) bool {
		_, ok := table.IndexOn(s.column)
		return ok
	})
}

// IndexKeys is the index read of a DML statement's WHERE on table: the
// column, and the keys or the inclusive bounds, of the conjunct the TP
// planner would read through an index (indexSargable), as
// rowstore.Table.LookupLiveAt takes them. ok is false when no conjunct
// qualifies, or when one is not a Sarg on a bare column: only such a WHERE
// cannot fail to evaluate, so the index read and the heap scan fail or
// succeed alike.
func IndexKeys(table *catalog.Table, where sqlparser.Expr) (col string, keys []value.Value, lo, hi *value.Value, ok bool) {
	var buf [8]sqlparser.Expr
	s, bare := indexSargable(table, sqlparser.AppendConjuncts(buf[:0], where))
	if s.pred == nil || !bare {
		return "", nil, nil, nil, false
	}
	if s.lo != nil {
		lo = &s.lo.V
	}
	if s.hi != nil {
		hi = &s.hi.V
	}
	return s.column, s.keys.Values, lo, hi, true
}

// hasFunctionWrappedIndexedColumn reports whether any predicate on the
// binding applies a function to a column that has an index — the
// "index exists but cannot be used" situation the paper's follow-up
// question discusses (§VI-B).
func hasFunctionWrappedIndexedColumn(a *analysis, t boundTable) (string, bool) {
	for _, p := range a.tablePreds[t.binding] {
		s, ok := exec.SargOf(p)
		fn, isFunc := s.Operand.(*sqlparser.FuncExpr)
		if !ok || !isFunc {
			continue
		}
		for _, ref := range sqlparser.ColumnsIn(fn) {
			if ref.Table != t.binding {
				continue
			}
			if _, ok := t.meta.IndexOn(ref.Column); ok {
				return ref.Column, true
			}
		}
	}
	return "", false
}
