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
	"htapxplain/internal/sqlparser"
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

// selectivity estimates the fraction of rows of the predicate's (single)
// table that satisfy e. Function-wrapped columns get heuristic defaults
// (their distributions are opaque to the optimizer — the reason such
// predicates also cannot use indexes).
func selectivity(a *analysis, e sqlparser.Expr) float64 {
	switch x := e.(type) {
	case *sqlparser.BinaryExpr:
		switch x.Op {
		case sqlparser.OpAnd:
			return clampSel(selectivity(a, x.Left) * selectivity(a, x.Right))
		case sqlparser.OpOr:
			l, r := selectivity(a, x.Left), selectivity(a, x.Right)
			return clampSel(l + r - l*r)
		case sqlparser.OpEq:
			if ref, ok := x.Left.(*sqlparser.ColumnRef); ok {
				if bt, found := a.table(ref.Table); found {
					return clampSel(1.0 / ndvOf(bt.meta, ref.Column))
				}
			}
			if _, ok := x.Left.(*sqlparser.FuncExpr); ok {
				return 0.04 // e.g. SUBSTRING(...) = '20': one of ~25 codes
			}
			return 0.05
		case sqlparser.OpNe:
			return 0.9
		case sqlparser.OpLt, sqlparser.OpLe, sqlparser.OpGt, sqlparser.OpGe:
			return 0.3
		default:
			return 0.5
		}
	case *sqlparser.NotExpr:
		return clampSel(1 - selectivity(a, x.Inner))
	case *sqlparser.InExpr:
		k := float64(len(x.List))
		var domain float64 = 25 // function-wrapped default (phone country codes)
		if ref, ok := x.Expr.(*sqlparser.ColumnRef); ok {
			if bt, found := a.table(ref.Table); found {
				domain = ndvOf(bt.meta, ref.Column)
			}
		}
		s := k / domain
		if x.Not {
			s = 1 - s
		}
		return clampSel(s)
	case *sqlparser.BetweenExpr:
		return 0.25
	case *sqlparser.LikeExpr:
		if !strings.HasPrefix(x.Pattern, "%") {
			return 0.05
		}
		return 0.1
	default:
		return 0.5
	}
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
func tableSelectivity(a *analysis, binding string) float64 {
	s := 1.0
	for _, p := range a.tablePreds[binding] {
		s *= selectivity(a, p)
	}
	return clampSel(s)
}

// estRows is the estimated post-filter cardinality of a binding at the
// modeled scale.
func estRows(a *analysis, t boundTable) float64 {
	return math.Max(1, float64(t.meta.Rows)*tableSelectivity(a, t.binding))
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
// place of a row-by-row test: a bare column compared to literals.
type sargable struct {
	column string
	keys   []sqlparser.Expr // equality / IN keys (literals)
	list   int              // the keys' list slot, for a literal-only IN list
	lo, hi sqlparser.Expr   // range bounds (literals); nil = open
	// loStrict/hiStrict mark exclusive bounds (> / <). An index range scan
	// is inclusive, so TP keeps such a predicate in its residual filter;
	// the AP zone pruner propagates them so its chunk-level RangeSel can
	// stand in for the compiled predicate exactly.
	loStrict, hiStrict bool
	sel                float64
	pred               sqlparser.Expr
}

// extractSargable finds the most selective predicate on the binding that
// is sargable — a bare (not function-wrapped) column compared to literals
// — and that the access path accepts. This is where
// SUBSTRING(c_phone,1,2) IN (...) fails to qualify — the paper's central
// example of index-unusable predicates.
func extractSargable(a *analysis, t boundTable, accept func(*sargable) bool) *sargable {
	var best *sargable
	consider := func(p sqlparser.Expr, s sargable) {
		s.sel, s.pred = selectivity(a, p), p
		if accept(&s) && (best == nil || s.sel < best.sel) {
			best = &s
		}
	}
	for _, p := range a.tablePreds[t.binding] {
		switch x := p.(type) {
		case *sqlparser.BinaryExpr:
			ref, lok := x.Left.(*sqlparser.ColumnRef)
			if !lok || !isLiteral(x.Right) {
				continue
			}
			switch x.Op {
			case sqlparser.OpEq:
				consider(p, sargable{column: ref.Column, keys: []sqlparser.Expr{x.Right}})
			case sqlparser.OpGt, sqlparser.OpGe:
				consider(p, sargable{column: ref.Column, lo: x.Right, loStrict: x.Op == sqlparser.OpGt})
			case sqlparser.OpLt, sqlparser.OpLe:
				consider(p, sargable{column: ref.Column, hi: x.Right, hiStrict: x.Op == sqlparser.OpLt})
			}
		case *sqlparser.InExpr:
			ref, ok := x.Expr.(*sqlparser.ColumnRef)
			if !ok || x.Not {
				continue
			}
			allLit := true
			for _, it := range x.List {
				if !isLiteral(it) {
					allLit = false
					break
				}
			}
			if !allLit {
				continue
			}
			consider(p, sargable{column: ref.Column, keys: x.List, list: x.Slot})
		case *sqlparser.BetweenExpr:
			ref, ok := x.Expr.(*sqlparser.ColumnRef)
			if !ok || !isLiteral(x.Lo) || !isLiteral(x.Hi) {
				continue
			}
			consider(p, sargable{column: ref.Column, lo: x.Lo, hi: x.Hi})
		}
	}
	return best
}

// indexSargable is the row store's acceptance: the column has an index.
func indexSargable(a *analysis, t boundTable) *sargable {
	return extractSargable(a, t, func(s *sargable) bool {
		_, ok := t.meta.IndexOn(s.column)
		return ok
	})
}

func isLiteral(e sqlparser.Expr) bool {
	switch e.(type) {
	case *sqlparser.IntLit, *sqlparser.FloatLit, *sqlparser.StringLit:
		return true
	default:
		return false
	}
}

// hasFunctionWrappedIndexedColumn reports whether any predicate on the
// binding applies a function to a column that has an index — the
// "index exists but cannot be used" situation the paper's follow-up
// question discusses (§VI-B).
func hasFunctionWrappedIndexedColumn(a *analysis, t boundTable) (string, bool) {
	for _, p := range a.tablePreds[t.binding] {
		var fn *sqlparser.FuncExpr
		switch x := p.(type) {
		case *sqlparser.InExpr:
			if f, ok := x.Expr.(*sqlparser.FuncExpr); ok {
				fn = f
			}
		case *sqlparser.BinaryExpr:
			if f, ok := x.Left.(*sqlparser.FuncExpr); ok {
				fn = f
			}
		case *sqlparser.LikeExpr:
			if f, ok := x.Expr.(*sqlparser.FuncExpr); ok {
				fn = f
			}
		}
		if fn == nil {
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
