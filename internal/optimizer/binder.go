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
	"slices"
	"strings"

	"htapxplain/internal/catalog"
	"htapxplain/internal/exec"
	"htapxplain/internal/sqlparser"
	"htapxplain/internal/value"
)

// boundTable is one FROM entry resolved against the catalog, with its
// single-table conjuncts and their fold.
type boundTable struct {
	binding string
	meta    *catalog.Table
	preds   []sqlparser.Expr
	fold    tableFold
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

// bind resolves the FROM list, qualifies every unqualified column
// reference in place, classifies WHERE conjuncts and folds each binding's
// own. A bound statement binds again without a write, so both engines can
// plan one parse.
func bind(cat *catalog.Catalog, sel *sqlparser.Select) (*analysis, error) {
	if len(sel.From) == 0 {
		return nil, fmt.Errorf("optimizer: query has no FROM clause")
	}
	a := &analysis{sel: sel, cat: cat}
	for _, tr := range sel.From {
		meta, ok := cat.Table(tr.Name)
		if !ok {
			return nil, fmt.Errorf("optimizer: unknown table %q", tr.Name)
		}
		b := strings.ToLower(tr.Binding())
		if _, dup := a.table(b); dup {
			return nil, fmt.Errorf("optimizer: duplicate table binding %q", b)
		}
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
			for i := range a.tables {
				if a.tables[i].binding == binds[0] {
					a.tables[i].preds = append(a.tables[i].preds, c)
				}
			}
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
	for i := range a.tables {
		a.tables[i].fold = foldPreds(a.tables[i].meta, a.tables[i].preds)
	}
	return a, nil
}

// bindingsOf returns the distinct bindings referenced by an expression,
// sorted.
func bindingsOf(e sqlparser.Expr) []string {
	var out []string
	for _, ref := range sqlparser.ColumnsIn(e) {
		out = append(out, ref.Table)
	}
	slices.Sort(out)
	return slices.Compact(out)
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
// a predicate on it alone. A comparison, IN or BETWEEN that is not a Sarg
// (an expression on both sides, an item or a bound that is not a literal)
// gets its shape's estimate, the left side standing as the operand.
// Function-wrapped columns get heuristic defaults (their distributions are
// opaque to the optimizer — the reason such predicates also cannot use
// indexes).
func selectivity(table *catalog.Table, e sqlparser.Expr) float64 {
	s, ok := exec.SargOf(e)
	k := len(s.Lits.Values)
	switch x := e.(type) {
	case *sqlparser.BinaryExpr:
		switch {
		case x.Op == sqlparser.OpAnd:
			return clampSel(selectivity(table, x.Left) * selectivity(table, x.Right))
		case x.Op == sqlparser.OpOr:
			l, r := selectivity(table, x.Left), selectivity(table, x.Right)
			return clampSel(l + r - l*r)
		case !ok && x.Op.IsComparison():
			s, ok = exec.Sarg{Operand: x.Left, Op: x.Op}, true
		}
	case *sqlparser.NotExpr:
		if !ok {
			return clampSel(1 - selectivity(table, x.Inner))
		}
	case *sqlparser.InExpr:
		s, k, ok = exec.Sarg{Operand: x.Expr, Shape: exec.ShapeIn, Not: x.Not}, len(x.List), true
	case *sqlparser.BetweenExpr:
		return betweenSel
	}
	ref, isCol := s.Operand.(*sqlparser.ColumnRef)
	_, isFunc := s.Operand.(*sqlparser.FuncExpr)
	domain := 25.0 // function-wrapped default (phone country codes)
	if isCol {
		domain = ndvOf(table, ref.Column)
	}
	switch {
	case !ok:
		return 0.5
	case s.Shape == exec.ShapeLike && strings.HasPrefix(s.Lits.Values[0].S, "%"):
		return 0.1
	case s.Shape == exec.ShapeLike:
		return 0.05
	case s.Shape == exec.ShapeIn && s.Not:
		return clampSel(1 - float64(k)/domain)
	case s.Shape == exec.ShapeIn:
		return clampSel(float64(k) / domain)
	case s.Op == sqlparser.OpNe:
		return 0.9
	case s.Op != sqlparser.OpEq:
		return 0.3
	case isCol:
		return clampSel(1.0 / domain)
	case isFunc:
		return 0.04 // e.g. SUBSTRING(...) = '20': one of ~25 codes
	}
	return 0.05
}

// betweenSel is the estimate of a BETWEEN.
const betweenSel = 0.25

func clampSel(s float64) float64 {
	if s < 1e-9 {
		return 1e-9
	}
	if s > 1 {
		return 1
	}
	return s
}

// tableSelectivity is the product of the estimates of a binding's
// predicates: one per folded column, taken where its first conjunct
// stands (the columns are in that order), and one per conjunct the fold
// does not hold.
func tableSelectivity(t boundTable) float64 {
	s, cols := 1.0, t.fold.cols
	for i, p := range t.preds {
		switch {
		case t.fold.folded>>i&1 == 0:
			s *= selectivity(t.meta, p)
		case len(cols) > 0 && cols[0].first == i:
			s *= cols[0].sel(t.meta, cols[0].keyConj >= 0)
			cols = cols[1:]
		}
	}
	return clampSel(s)
}

// estRows is the estimated post-filter cardinality of a binding at the
// modeled scale.
func estRows(t boundTable) float64 {
	return math.Max(1, float64(t.meta.Rows)*tableSelectivity(t))
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

// tableFold is a binding's single-table conjuncts classified once: the
// Sargs on each bare column folded into one colPred, in the order the
// columns first appear.
type tableFold struct {
	cols []colPred
	// folded marks the conjuncts (by position, below 64) a colPred holds:
	// =, IN, <, <=, >, >= and BETWEEN on a bare column.
	folded uint64
	// bare reports whether every conjunct is a Sarg on a bare column.
	bare bool
	// funcIndexed is an indexed column a Sarg reads inside a function —
	// the "index exists but cannot be used" situation the paper's
	// follow-up question discusses (§VI-B) — or "".
	funcIndexed string
}

// colPred is the fold of the Sargs on one bare column: the key set of its
// tightest = or IN conjunct (the fewest planned keys, duplicates
// compacted), and the interval of its tightest planned lower and upper
// bounds. Every conjunct it does not stand for stays a residual or a scan
// kernel, so a plan built from it is right for any literal vector.
type colPred struct {
	column     string
	pos, first int // the column's position in the table; its first conjunct
	keys       exec.Lits
	keyConj    int // -1: no key set
	lo, hi     bound
}

// bound is one end of a colPred's interval.
type bound struct {
	exec.Lit
	set, strict bool
	between     bool // from a BETWEEN, which gives both ends
	conj        int
}

// tighten makes b the bound lit from conjunct conj when that is tighter:
// dir is 1 for a lower bound, -1 for an upper one, and of two equal
// values the strict one is tighter.
func (b *bound) tighten(lit exec.Lit, strict, between bool, conj, dir int) {
	c := lit.V.Compare(b.V) * dir
	if !b.set || c > 0 || c == 0 && strict && !b.strict {
		*b = bound{Lit: lit, set: true, strict: strict, between: between, conj: conj}
	}
}

// lit and val are the bound's literal and its value, nil when the
// interval is open at this end.
func (b *bound) lit() *exec.Lit {
	if !b.set {
		return nil
	}
	return &b.Lit
}

func (b *bound) val() *value.Value {
	if !b.set {
		return nil
	}
	return &b.V
}

// foldPreds classifies preds, the single-table conjuncts on table, once.
func foldPreds(table *catalog.Table, preds []sqlparser.Expr) tableFold {
	f := tableFold{cols: make([]colPred, 0, len(preds)), bare: true}
	for i, p := range preds {
		s, ok := exec.SargOf(p)
		if fn, isFunc := s.Operand.(*sqlparser.FuncExpr); ok && isFunc {
			for _, ref := range sqlparser.ColumnsIn(fn) {
				if _, ok := table.IndexOn(ref.Column); ok && f.funcIndexed == "" {
					f.funcIndexed = ref.Column
				}
			}
		}
		ref, isCol := s.Operand.(*sqlparser.ColumnRef)
		pos := -1
		if ok && isCol {
			pos = table.ColumnIndex(ref.Column)
		}
		if pos < 0 {
			f.bare = false
			continue
		}
		if i >= 64 || s.Shape == exec.ShapeLike || s.Not || s.Shape == exec.ShapeCmp && s.Op == sqlparser.OpNe {
			continue // <>, NOT IN and LIKE are not folded
		}
		f.folded |= 1 << i
		switch c := f.at(table, pos, i); {
		case s.Shape == exec.ShapeBetween:
			c.lo.tighten(s.Lits.At(0), false, true, i, 1)
			c.hi.tighten(s.Lits.At(1), false, true, i, -1)
		case s.Shape == exec.ShapeIn || s.Op == sqlparser.OpEq:
			if keys := compacted(s.Lits); c.keyConj < 0 || len(keys.Values) < len(c.keys.Values) {
				c.keys, c.keyConj = keys, i
			}
		case s.Op == sqlparser.OpGt || s.Op == sqlparser.OpGe:
			c.lo.tighten(s.Lits.At(0), s.Op == sqlparser.OpGt, false, i, 1)
		default:
			c.hi.tighten(s.Lits.At(0), s.Op == sqlparser.OpLt, false, i, -1)
		}
	}
	return f
}

// at is the fold of column pos, begun at conjunct conj when it is new.
func (f *tableFold) at(table *catalog.Table, pos, conj int) *colPred {
	for j := range f.cols {
		if f.cols[j].pos == pos {
			return &f.cols[j]
		}
	}
	f.cols = append(f.cols, colPred{column: table.Columns[pos].Name, pos: pos, first: conj, keyConj: -1})
	return &f.cols[len(f.cols)-1]
}

// compacted is l without repeated values, unless it is slotted item by
// item (a bound vector may tell two equal items apart). It deletes in
// place: SargOf made l's values for this fold alone.
func compacted(l exec.Lits) exec.Lits {
	for i := len(l.Values) - 1; i > 0 && l.Slots == nil; i-- {
		if slices.ContainsFunc(l.Values[:i], l.Values[i].Equal) {
			l.Values = slices.Delete(l.Values, i, i+1)
		}
	}
	return l
}

// sel estimates the fraction of rows that the column's key set (keys) or
// interval keeps: k/ndv for k keys, betweenSel for a two-sided interval,
// 0.3 for a one-sided one — the estimates of =, IN, BETWEEN and a
// comparison, whichever spelling the fold came from.
func (c *colPred) sel(table *catalog.Table, keys bool) float64 {
	switch {
	case keys:
		return clampSel(float64(len(c.keys.Values)) / ndvOf(table, c.column))
	case c.lo.set && c.hi.set:
		return betweenSel
	}
	return 0.3
}

// sargable is the read one folded column offers an access path: its key
// set, or its interval.
type sargable struct {
	*colPred
	useKeys bool
}

// pickSargable picks the most selective folded column of f that an access
// path takes, ties going to the column first in the table: the row store's
// index takes an indexed column's key set, or else its interval; the zone
// pruner takes any column's one-key key set, or else its interval. This is
// where SUBSTRING(c_phone,1,2) IN (...) fails to qualify — the paper's
// central example of index-unusable predicates: a function operand is
// never folded.
func pickSargable(table *catalog.Table, f *tableFold, index bool) (best sargable, sel float64, ok bool) {
	for i := range f.cols {
		c := &f.cols[i]
		s := sargable{colPred: c, useKeys: c.keyConj >= 0 && (index || len(c.keys.Values) == 1)}
		if _, indexed := table.IndexOn(c.column); !s.useKeys && !c.lo.set && !c.hi.set || index && !indexed {
			continue
		}
		if e := c.sel(table, s.useKeys); !ok || e < sel || e == sel && c.pos < best.pos {
			best, sel, ok = s, e, true
		}
	}
	return best, sel, ok
}

// conjs marks the conjuncts whose keys or bounds s reads; with exact,
// only those it stands for exactly — not a BETWEEN whose other end it does
// not read, nor, unless strict, a strict bound.
func (s sargable) conjs(exact, strict bool) uint64 {
	if s.useKeys {
		return 1 << s.keyConj
	}
	var m uint64
	for _, b := range [2]*bound{&s.lo, &s.hi} {
		if b.set && (!exact || (strict || !b.strict) && (!b.between || s.lo.conj == s.hi.conj)) {
			m |= 1 << b.conj
		}
	}
	return m
}

// masked is the preds whose bit in m is in.
func masked(preds []sqlparser.Expr, m uint64, in bool) []sqlparser.Expr {
	var out []sqlparser.Expr
	for i, p := range preds {
		if (m>>i&1 != 0) == in {
			out = append(out, p)
		}
	}
	return out
}

// IndexKeys is the index read of a DML statement's WHERE on table: the
// column, and the keys or else the inclusive bounds, of the fold the TP
// planner would read through an index (pickSargable), as
// rowstore.Table.LookupLiveAt takes them — it reads the bounds only when
// there are no keys. ok is false when no column
// qualifies, or when a conjunct is not a Sarg on a bare column: only such
// a WHERE cannot fail to evaluate, so the index read and the heap scan
// fail or succeed alike.
func IndexKeys(table *catalog.Table, where sqlparser.Expr) (col string, keys []value.Value, lo, hi *value.Value, ok bool) {
	f := foldWhere(table, where)
	s, _, ok := pickSargable(table, &f, true)
	if !ok || !f.bare {
		return "", nil, nil, nil, false
	}
	return s.column, s.keys.Values, s.lo.val(), s.hi.val(), true
}

// foldWhere folds the conjuncts of a DML statement's WHERE on table.
func foldWhere(table *catalog.Table, where sqlparser.Expr) tableFold {
	var buf [8]sqlparser.Expr
	return foldPreds(table, sqlparser.AppendConjuncts(buf[:0], where))
}

// KeysOn is the key set a DML statement's WHERE on table folds on column
// col: the values of its tightest = or IN conjunct; ok is false when it
// has none.
func KeysOn(table *catalog.Table, where sqlparser.Expr, col string) ([]value.Value, bool) {
	f := foldWhere(table, where)
	c := f.col(col)
	return c.keys.Values, c.keyConj >= 0
}

// pin is the one key of c's key set when every literal vector of the
// template holds one there — an =, not an IN list that collapsed to one
// slot — the pin the shard router hashes to a shard.
func (c colPred) pin() (exec.Lit, bool) {
	if c.keyConj < 0 || len(c.keys.Values) != 1 || c.keys.List > 0 {
		return exec.Lit{}, false
	}
	return c.keys.At(0), true
}

// col is the fold of column name; its keyConj is -1 when it has none.
func (f *tableFold) col(name string) colPred {
	for _, c := range f.cols {
		if strings.EqualFold(c.column, name) {
			return c
		}
	}
	return colPred{keyConj: -1}
}
