package sqlparser

import (
	"reflect"
	"strings"
	"testing"
)

func mustParse(t *testing.T, sql string) *Select {
	t.Helper()
	sel, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	return sel
}

func TestParseSimpleSelect(t *testing.T) {
	sel := mustParse(t, "SELECT a, b FROM t WHERE a = 1")
	if len(sel.Items) != 2 || len(sel.From) != 1 {
		t.Fatalf("unexpected shape: %+v", sel)
	}
	if sel.From[0].Name != "t" {
		t.Errorf("table = %q", sel.From[0].Name)
	}
	be, ok := sel.Where.(*BinaryExpr)
	if !ok || be.Op != OpEq {
		t.Fatalf("where = %v", sel.Where)
	}
}

func TestParseStar(t *testing.T) {
	sel := mustParse(t, "SELECT * FROM t")
	if !sel.Items[0].Star {
		t.Error("star not recognized")
	}
}

func TestParseCountStar(t *testing.T) {
	sel := mustParse(t, "SELECT COUNT(*) FROM t")
	agg, ok := sel.Items[0].Expr.(*AggExpr)
	if !ok || agg.Func != AggCount || agg.Arg != nil {
		t.Fatalf("COUNT(*) parsed as %v", sel.Items[0].Expr)
	}
	if !sel.HasAggregate() {
		t.Error("HasAggregate should be true")
	}
}

func TestParseAllAggregates(t *testing.T) {
	sel := mustParse(t, "SELECT COUNT(a), SUM(b), AVG(c), MIN(d), MAX(e) FROM t")
	want := []AggFunc{AggCount, AggSum, AggAvg, AggMin, AggMax}
	for i, it := range sel.Items {
		agg, ok := it.Expr.(*AggExpr)
		if !ok || agg.Func != want[i] {
			t.Errorf("item %d = %v, want %v", i, it.Expr, want[i])
		}
	}
}

func TestParseInList(t *testing.T) {
	sel := mustParse(t, "SELECT a FROM t WHERE x IN ('p', 'q', 'r')")
	in, ok := sel.Where.(*InExpr)
	if !ok || len(in.List) != 3 || in.Not {
		t.Fatalf("IN parsed as %v", sel.Where)
	}
}

func TestParseNotIn(t *testing.T) {
	sel := mustParse(t, "SELECT a FROM t WHERE x NOT IN (1, 2)")
	in, ok := sel.Where.(*InExpr)
	if !ok || !in.Not {
		t.Fatalf("NOT IN parsed as %v", sel.Where)
	}
}

func TestParseBetween(t *testing.T) {
	sel := mustParse(t, "SELECT a FROM t WHERE x BETWEEN 1 AND 10")
	bw, ok := sel.Where.(*BetweenExpr)
	if !ok {
		t.Fatalf("BETWEEN parsed as %v", sel.Where)
	}
	if bw.Lo.(*IntLit).V != 1 || bw.Hi.(*IntLit).V != 10 {
		t.Errorf("bounds: %v .. %v", bw.Lo, bw.Hi)
	}
}

func TestParseLike(t *testing.T) {
	sel := mustParse(t, "SELECT a FROM t WHERE name LIKE '%foo%'")
	lk, ok := sel.Where.(*LikeExpr)
	if !ok || lk.Pattern != "%foo%" {
		t.Fatalf("LIKE parsed as %v", sel.Where)
	}
}

func TestParseSubstringFunction(t *testing.T) {
	sel := mustParse(t, "SELECT a FROM t WHERE SUBSTRING(phone, 1, 2) IN ('20')")
	in := sel.Where.(*InExpr)
	fn, ok := in.Expr.(*FuncExpr)
	if !ok || fn.Name != "SUBSTRING" || len(fn.Args) != 3 {
		t.Fatalf("SUBSTRING parsed as %v", in.Expr)
	}
}

func TestParseQualifiedColumns(t *testing.T) {
	sel := mustParse(t, "SELECT t1.a FROM t1, t2 WHERE t1.id = t2.id")
	ref := sel.Items[0].Expr.(*ColumnRef)
	if ref.Table != "t1" || ref.Column != "a" {
		t.Errorf("qualified ref = %v", ref)
	}
}

func TestParseJoinOnFoldsIntoWhere(t *testing.T) {
	a := mustParse(t, "SELECT * FROM a JOIN b ON a.x = b.x WHERE a.y = 1")
	conj := Conjuncts(a.Where)
	if len(conj) != 2 {
		t.Fatalf("conjuncts = %v", conj)
	}
	if len(a.From) != 2 {
		t.Fatalf("from = %v", a.From)
	}
	// INNER JOIN spelling and chained joins
	b := mustParse(t, "SELECT * FROM a INNER JOIN b ON a.x = b.x JOIN c ON b.y = c.y")
	if len(b.From) != 3 || len(Conjuncts(b.Where)) != 2 {
		t.Fatalf("chained join: from=%d where=%v", len(b.From), b.Where)
	}
}

func TestParseGroupOrderLimitOffset(t *testing.T) {
	sel := mustParse(t, `SELECT a, COUNT(*) FROM t GROUP BY a ORDER BY COUNT(*) DESC, a LIMIT 10 OFFSET 5`)
	if len(sel.GroupBy) != 1 || len(sel.OrderBy) != 2 {
		t.Fatalf("group/order: %+v", sel)
	}
	if !sel.OrderBy[0].Desc || sel.OrderBy[1].Desc {
		t.Error("DESC flags wrong")
	}
	if sel.Limit != 10 || sel.Offset != 5 {
		t.Errorf("limit/offset = %d/%d", sel.Limit, sel.Offset)
	}
}

func TestParseNoLimitDefaultsMinusOne(t *testing.T) {
	sel := mustParse(t, "SELECT a FROM t")
	if sel.Limit != -1 || sel.Offset != 0 {
		t.Errorf("limit/offset defaults = %d/%d", sel.Limit, sel.Offset)
	}
}

func TestParseAliases(t *testing.T) {
	sel := mustParse(t, "SELECT a AS x, b y FROM t1 AS u, t2 v")
	if sel.Items[0].Alias != "x" || sel.Items[1].Alias != "y" {
		t.Errorf("item aliases: %+v", sel.Items)
	}
	if sel.From[0].Binding() != "u" || sel.From[1].Binding() != "v" {
		t.Errorf("table aliases: %+v", sel.From)
	}
}

func TestParsePrecedenceAndOverOr(t *testing.T) {
	sel := mustParse(t, "SELECT a FROM t WHERE p = 1 OR q = 2 AND r = 3")
	or, ok := sel.Where.(*BinaryExpr)
	if !ok || or.Op != OpOr {
		t.Fatalf("root should be OR: %v", sel.Where)
	}
	and, ok := or.Right.(*BinaryExpr)
	if !ok || and.Op != OpAnd {
		t.Fatalf("right side should be AND: %v", or.Right)
	}
}

func TestParseArithmeticPrecedence(t *testing.T) {
	sel := mustParse(t, "SELECT a + b * c FROM t")
	add := sel.Items[0].Expr.(*BinaryExpr)
	if add.Op != OpAdd {
		t.Fatalf("root op = %v", add.Op)
	}
	if mul, ok := add.Right.(*BinaryExpr); !ok || mul.Op != OpMul {
		t.Fatalf("* should bind tighter: %v", add.Right)
	}
}

func TestParseParenthesesOverridePrecedence(t *testing.T) {
	sel := mustParse(t, "SELECT (a + b) * c FROM t")
	mul := sel.Items[0].Expr.(*BinaryExpr)
	if mul.Op != OpMul {
		t.Fatalf("root op = %v", mul.Op)
	}
}

func TestParseUnaryMinus(t *testing.T) {
	sel := mustParse(t, "SELECT a FROM t WHERE x > -5")
	be := sel.Where.(*BinaryExpr)
	if lit, ok := be.Right.(*IntLit); !ok || lit.V != -5 {
		t.Fatalf("unary minus: %v", be.Right)
	}
}

func TestParseFloatLiteral(t *testing.T) {
	sel := mustParse(t, "SELECT a FROM t WHERE x < 2.75")
	be := sel.Where.(*BinaryExpr)
	if lit, ok := be.Right.(*FloatLit); !ok || lit.V != 2.75 {
		t.Fatalf("float literal: %v", be.Right)
	}
}

func TestParseStringEscapedQuote(t *testing.T) {
	sel := mustParse(t, "SELECT a FROM t WHERE x = 'it''s'")
	be := sel.Where.(*BinaryExpr)
	if lit := be.Right.(*StringLit); lit.V != "it's" {
		t.Errorf("escaped quote: %q", lit.V)
	}
}

func TestParseTrailingSemicolon(t *testing.T) {
	mustParse(t, "SELECT a FROM t;")
}

func TestParseNotExpr(t *testing.T) {
	sel := mustParse(t, "SELECT a FROM t WHERE NOT x = 1")
	if _, ok := sel.Where.(*NotExpr); !ok {
		t.Fatalf("NOT parsed as %v", sel.Where)
	}
}

func TestParseComparisonOperators(t *testing.T) {
	ops := map[string]BinOp{
		"=": OpEq, "<>": OpNe, "!=": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
	}
	for sym, want := range ops {
		sel := mustParse(t, "SELECT a FROM t WHERE x "+sym+" 1")
		be := sel.Where.(*BinaryExpr)
		if be.Op != want {
			t.Errorf("op %q parsed as %v", sym, be.Op)
		}
		if !be.Op.IsComparison() {
			t.Errorf("%v should be a comparison", be.Op)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"SELEC a FROM t",
		"SELECT FROM t",
		"SELECT a",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t LIMIT x",
		"SELECT a FROM t LIMIT -1",
		"SELECT a FROM t ORDER BY",
		"SELECT a FROM t WHERE x IN",
		"SELECT a FROM t WHERE x BETWEEN 1",
		"SELECT a FROM t WHERE x LIKE 5",
		"SELECT SUM(*) FROM t",
		"SELECT a FROM t WHERE 'unterminated",
		"SELECT a FROM t WHERE x = 1 extra garbage",
		"SELECT a FROM t WHERE x @ 1",
		"SELECT a FROM t JOIN u",
	}
	for _, sql := range cases {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) should fail", sql)
		}
	}
}

// TestAggregateDistinctIsRefused: no operator de-duplicates an aggregate's
// input, so DISTINCT inside one is a parse error, not a plain aggregate —
// COUNT(DISTINCT o_orderstatus) over orders once answered 3000, not 3.
func TestAggregateDistinctIsRefused(t *testing.T) {
	for _, agg := range []string{"COUNT", "SUM", "AVG", "MIN", "MAX", "count"} {
		sql := "SELECT " + agg + "(DISTINCT o_orderstatus) FROM orders"
		_, err := Parse(sql)
		if err == nil || !strings.Contains(err.Error(), "DISTINCT") {
			t.Errorf("Parse(%q) = err %v, want a DISTINCT error", sql, err)
		}
	}
}

func TestStringRoundTripReparse(t *testing.T) {
	// String() output must itself parse to an identical String()
	cases := []string{
		"SELECT COUNT(*) FROM customer, nation WHERE n_nationkey = c_nationkey",
		"SELECT a, b FROM t WHERE x IN (1, 2) AND y BETWEEN 1 AND 2 ORDER BY a DESC LIMIT 3 OFFSET 1",
		"SELECT SUBSTRING(p, 1, 2), COUNT(*) FROM t GROUP BY SUBSTRING(p, 1, 2)",
		"SELECT a FROM t WHERE name LIKE 'ab%' OR NOT z = 3",
		"SELECT a + b * c FROM t",
	}
	for _, sql := range cases {
		first := mustParse(t, sql).String()
		second := mustParse(t, first).String()
		if first != second {
			t.Errorf("round trip diverged:\n 1: %s\n 2: %s", first, second)
		}
	}
}

func TestConjunctsAndAndAll(t *testing.T) {
	sel := mustParse(t, "SELECT a FROM t WHERE p = 1 AND q = 2 AND r = 3")
	conj := Conjuncts(sel.Where)
	if len(conj) != 3 {
		t.Fatalf("conjuncts = %d", len(conj))
	}
	re := AndAll(conj)
	if len(Conjuncts(re)) != 3 {
		t.Error("AndAll should rebuild the same conjunction")
	}
	if AndAll(nil) != nil {
		t.Error("AndAll(nil) should be nil")
	}
	if Conjuncts(nil) != nil {
		t.Error("Conjuncts(nil) should be nil")
	}
}

func TestColumnsInWalksEverything(t *testing.T) {
	sel := mustParse(t, `SELECT SUM(a) FROM t WHERE SUBSTRING(b, 1, 2) IN ('x') AND c BETWEEN d AND e OR NOT f = 1`)
	cols := map[string]bool{}
	for _, ref := range ColumnsIn(sel.Where) {
		cols[ref.Column] = true
	}
	for _, want := range []string{"b", "c", "d", "e", "f"} {
		if !cols[want] {
			t.Errorf("ColumnsIn missed %q (got %v)", want, cols)
		}
	}
	if refs := ColumnsIn(sel.Items[0].Expr); len(refs) != 1 || refs[0].Column != "a" {
		t.Errorf("aggregate arg columns = %v", refs)
	}
}

// TestAppendTies: two expressions spelled alike tie their literal slots
// place by place — a literal-only IN list as one slot — and expressions
// that differ in anything but literals, or pair a spelled literal with
// one the statement does not spell, get the tie no vector holds.
func TestAppendTies(t *testing.T) {
	sel := mustParse(t, `SELECT SUBSTRING(a, 1, 2), SUBSTRING(a, 1, 2.0), SUBSTRING(b, 1, 2), 0 - x, -x, -x, SUBSTRING(a, 3, 4)`+
		` FROM t WHERE x IN (1, 2) AND x IN (3)`)
	var exprs []Expr
	for _, it := range sel.Items {
		exprs = append(exprs, it.Expr)
	}
	exprs = append(exprs, Conjuncts(sel.Where)...)
	for _, c := range []struct {
		a, b int
		want []Tie
	}{
		{0, 0, nil},
		{0, 1, []Tie{{1, 3}, {2, 4}}},
		{0, 6, []Tie{{1, 8}, {2, 9}}},
		{0, 2, []Tie{{}}},
		{7, 8, []Tie{{10, 11}}},
		{3, 4, []Tie{{}}},
		{4, 5, nil},
	} {
		if got := AppendTies(nil, exprs[c.a], exprs[c.b]); !reflect.DeepEqual(got, c.want) {
			t.Errorf("AppendTies(%s, %s) = %v, want %v", exprs[c.a], exprs[c.b], got, c.want)
		}
	}
}

func TestKeywordsCaseInsensitive(t *testing.T) {
	sel := mustParse(t, "select A from T where X = 1 order by A limit 2")
	if len(sel.Items) != 1 || sel.Limit != 2 {
		t.Fatalf("lowercase keywords failed: %+v", sel)
	}
	// identifiers are lower-cased
	if sel.Items[0].Expr.(*ColumnRef).Column != "a" {
		t.Error("identifiers should normalize to lower case")
	}
}

func TestSelectStringRendering(t *testing.T) {
	sel := mustParse(t, "SELECT a FROM t WHERE x = 1 GROUP BY a ORDER BY a LIMIT 1 OFFSET 2")
	s := sel.String()
	for _, want := range []string{"SELECT", "FROM", "WHERE", "GROUP BY", "ORDER BY", "LIMIT 1", "OFFSET 2"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q: %s", want, s)
		}
	}
}
