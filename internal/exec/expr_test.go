package exec

import (
	"regexp"
	"strings"
	"testing"
	"testing/quick"

	"htapxplain/internal/catalog"
	"htapxplain/internal/sqlparser"
	"htapxplain/internal/value"
)

// testSchema: (a INT, b FLOAT, s STRING) bound to table "t".
var testSchema = Schema{
	{Binding: "t", Name: "a", Type: catalog.TypeInt},
	{Binding: "t", Name: "b", Type: catalog.TypeFloat},
	{Binding: "t", Name: "s", Type: catalog.TypeString},
}

// compileExpr parses `SELECT <expr> FROM t` and compiles the item.
func compileExpr(t *testing.T, expr string) Evaluator {
	t.Helper()
	sel, err := sqlparser.Parse("SELECT " + expr + " FROM t")
	if err != nil {
		t.Fatalf("parse %q: %v", expr, err)
	}
	ev, err := Compile(sel.Items[0].Expr, testSchema)
	if err != nil {
		t.Fatalf("compile %q: %v", expr, err)
	}
	return ev
}

// compilePred parses a WHERE predicate.
func compilePred(t *testing.T, pred string) Evaluator {
	t.Helper()
	sel, err := sqlparser.Parse("SELECT a FROM t WHERE " + pred)
	if err != nil {
		t.Fatalf("parse %q: %v", pred, err)
	}
	ev, err := Compile(sel.Where, testSchema)
	if err != nil {
		t.Fatalf("compile %q: %v", pred, err)
	}
	return ev
}

func row(a int64, b float64, s string) value.Row {
	return value.Row{value.NewInt(a), value.NewFloat(b), value.NewString(s)}
}

func evalOn(t *testing.T, ev Evaluator, r value.Row) value.Value {
	t.Helper()
	v, err := ev(r, nil)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	return v
}

func TestArithmetic(t *testing.T) {
	r := row(7, 2.5, "x")
	cases := []struct {
		expr string
		want value.Value
	}{
		{"a + 3", value.NewInt(10)},
		{"a - 10", value.NewInt(-3)},
		{"a * 2", value.NewInt(14)},
		{"a / 2", value.NewFloat(3.5)}, // division always yields float
		{"b * 4", value.NewFloat(10)},
		{"a + b", value.NewFloat(9.5)}, // mixed numeric widens
	}
	for _, c := range cases {
		got := evalOn(t, compileExpr(t, c.expr), r)
		if got != c.want {
			t.Errorf("%s = %v, want %v", c.expr, got, c.want)
		}
	}
}

func TestDivisionByZeroYieldsNull(t *testing.T) {
	got := evalOn(t, compileExpr(t, "a / 0"), row(7, 0, ""))
	if !got.IsNull() {
		t.Errorf("7/0 = %v, want NULL", got)
	}
}

func TestComparisons(t *testing.T) {
	r := row(5, 2.5, "mm")
	trueCases := []string{"a = 5", "a <> 4", "a > 4", "a >= 5", "a < 6", "a <= 5",
		"b = 2.5", "s = 'mm'", "s > 'ma'", "a > b"}
	for _, c := range trueCases {
		if v := evalOn(t, compilePred(t, c), r); !v.Bool() {
			t.Errorf("%s should be true, got %v", c, v)
		}
	}
	falseCases := []string{"a = 4", "a < 5", "s = 'nn'"}
	for _, c := range falseCases {
		if v := evalOn(t, compilePred(t, c), r); v.Bool() {
			t.Errorf("%s should be false", c)
		}
	}
}

func TestBooleanLogicWithNulls(t *testing.T) {
	r := value.Row{value.Null, value.NewFloat(1), value.NewString("x")}
	// NULL AND false → false; NULL AND true → NULL
	if v := evalOn(t, compilePred(t, "a = 1 AND b = 99"), r); v.IsNull() || v.Bool() {
		t.Errorf("NULL AND false = %v, want false", v)
	}
	if v := evalOn(t, compilePred(t, "a = 1 AND b = 1"), r); !v.IsNull() {
		t.Errorf("NULL AND true = %v, want NULL", v)
	}
	// NULL OR true → true; NULL OR false → NULL
	if v := evalOn(t, compilePred(t, "a = 1 OR b = 1"), r); !v.Bool() {
		t.Errorf("NULL OR true = %v, want true", v)
	}
	if v := evalOn(t, compilePred(t, "a = 1 OR b = 99"), r); !v.IsNull() {
		t.Errorf("NULL OR false = %v, want NULL", v)
	}
	// NOT NULL → NULL
	if v := evalOn(t, compilePred(t, "NOT a = 1"), r); !v.IsNull() {
		t.Errorf("NOT NULL = %v, want NULL", v)
	}
}

func TestInExpr(t *testing.T) {
	r := row(5, 0, "q")
	if v := evalOn(t, compilePred(t, "a IN (1, 5, 9)"), r); !v.Bool() {
		t.Error("5 IN (1,5,9) should be true")
	}
	if v := evalOn(t, compilePred(t, "a IN (1, 2)"), r); v.Bool() {
		t.Error("5 IN (1,2) should be false")
	}
	if v := evalOn(t, compilePred(t, "a NOT IN (1, 2)"), r); !v.Bool() {
		t.Error("5 NOT IN (1,2) should be true")
	}
	if v := evalOn(t, compilePred(t, "s IN ('p', 'q')"), r); !v.Bool() {
		t.Error("string IN failed")
	}
}

func TestBetween(t *testing.T) {
	r := row(5, 0, "")
	if v := evalOn(t, compilePred(t, "a BETWEEN 5 AND 7"), r); !v.Bool() {
		t.Error("5 BETWEEN 5 AND 7 should be true (inclusive)")
	}
	if v := evalOn(t, compilePred(t, "a BETWEEN 6 AND 7"), r); v.Bool() {
		t.Error("5 BETWEEN 6 AND 7 should be false")
	}
}

func TestSubstring(t *testing.T) {
	r := row(0, 0, "20-345-678")
	cases := []struct {
		expr, want string
	}{
		{"SUBSTRING(s, 1, 2)", "20"},
		{"SUBSTRING(s, 4, 3)", "345"},
		{"SUBSTRING(s, 9, 100)", "78"}, // clamped
		{"SUBSTRING(s, 99, 2)", ""},    // past the end
		{"SUBSTR(s, 1, 2)", "20"},      // alias
	}
	for _, c := range cases {
		got := evalOn(t, compileExpr(t, c.expr), r)
		if got.S != c.want {
			t.Errorf("%s = %q, want %q", c.expr, got.S, c.want)
		}
	}
}

func TestStringFunctions(t *testing.T) {
	r := row(0, 0, "MiXeD")
	if got := evalOn(t, compileExpr(t, "UPPER(s)"), r); got.S != "MIXED" {
		t.Errorf("UPPER = %q", got.S)
	}
	if got := evalOn(t, compileExpr(t, "LOWER(s)"), r); got.S != "mixed" {
		t.Errorf("LOWER = %q", got.S)
	}
	if got := evalOn(t, compileExpr(t, "LENGTH(s)"), r); got.I != 5 {
		t.Errorf("LENGTH = %d", got.I)
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		"nope = 1",        // unknown column
		"NOSUCHFUNC(a)",   // unknown function
		"SUBSTRING(s, 1)", // wrong arity
		"UPPER(s, s)",     // wrong arity
	}
	for _, pred := range bad {
		sel, err := sqlparser.Parse("SELECT a FROM t WHERE " + pred)
		if err != nil {
			continue // parse-level rejection is fine too
		}
		if _, err := Compile(sel.Where, testSchema); err == nil {
			t.Errorf("Compile(%q) should fail", pred)
		}
	}
	// aggregates cannot be compiled as scalar expressions
	sel, err := sqlparser.Parse("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(sel.Items[0].Expr, testSchema); err == nil {
		t.Error("aggregate outside aggregation context should fail to compile")
	}
}

func TestSchemaResolve(t *testing.T) {
	s := Schema{
		{Binding: "a", Name: "x", Type: catalog.TypeInt},
		{Binding: "b", Name: "x", Type: catalog.TypeInt},
		{Binding: "b", Name: "y", Type: catalog.TypeInt},
	}
	if _, err := s.Resolve(&sqlparser.ColumnRef{Column: "x"}); err == nil {
		t.Error("ambiguous unqualified x should error")
	}
	if i, err := s.Resolve(&sqlparser.ColumnRef{Table: "b", Column: "x"}); err != nil || i != 1 {
		t.Errorf("b.x = %d, %v", i, err)
	}
	if i, err := s.Resolve(&sqlparser.ColumnRef{Column: "y"}); err != nil || i != 2 {
		t.Errorf("y = %d, %v", i, err)
	}
	if _, err := s.Resolve(&sqlparser.ColumnRef{Column: "zz"}); err == nil {
		t.Error("unknown column should error")
	}
}

// TestLikeMatchesRegexpProperty cross-validates the hand-rolled LIKE
// matcher against the regexp package over random inputs, non-ASCII
// characters included (regexp's . is one UTF-8 character, as _ is).
func TestLikeMatchesRegexpProperty(t *testing.T) {
	toRegexp := func(pattern string) *regexp.Regexp {
		var sb strings.Builder
		sb.WriteString("^")
		for _, c := range pattern {
			switch c {
			case '%':
				sb.WriteString(".*")
			case '_':
				sb.WriteString(".")
			default:
				sb.WriteString(regexp.QuoteMeta(string(c)))
			}
		}
		sb.WriteString("$")
		return regexp.MustCompile(sb.String())
	}
	alphabet := []string{"a", "b", "é", "%", "_"}
	prop := func(sRaw, pRaw []byte) bool {
		var s, p strings.Builder
		for _, c := range sRaw {
			s.WriteString(alphabet[c%3]) // strings contain only a/b/é
		}
		for _, c := range pRaw {
			p.WriteString(alphabet[c%5])
		}
		str, pat := s.String(), p.String()
		if len(pat) > 12 || len(str) > 24 {
			return true // keep regexp fast
		}
		return likeMatch(str, pat) == toRegexp(pat).MatchString(str)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLikeEdgeCases(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"", "", true},
		{"", "%", true},
		{"a", "", false},
		{"abc", "abc", true},
		{"abc", "a%", true},
		{"abc", "%c", true},
		{"abc", "%b%", true},
		{"abc", "a_c", true},
		{"abc", "a_b", false},
		{"abc", "____", false},
		{"slyly ironic", "%ironic%", true},
		// _ is one UTF-8 character, not one byte
		{"é", "_", true},
		{"é", "__", false},
		{"aéb", "a_b", true},
		{"日本", "%_", true},
		{"日本", "_本", true},
		{"日本", "___", false},
		{"é", "%é", true},
		// a wildcard in the pattern stays one where s holds the same byte
		{"%a", "%", true},
		{"_ab", "_%b", true},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

func TestTruthyHelper(t *testing.T) {
	ev := compilePred(t, "a = 1")
	ok, err := Truthy(ev, row(1, 0, ""), nil)
	if err != nil || !ok {
		t.Errorf("Truthy true case: %v %v", ok, err)
	}
	ok, err = Truthy(ev, value.Row{value.Null, value.Null, value.Null}, nil)
	if err != nil || ok {
		t.Errorf("Truthy NULL case must be false: %v %v", ok, err)
	}
}
