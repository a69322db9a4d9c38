package sqlparser

import (
	"strings"
	"testing"
)

func TestParseInsert(t *testing.T) {
	stmt, err := ParseStatement(
		`INSERT INTO customer (c_custkey, c_name, c_acctbal) VALUES (42, 'alice', 10.5), (43, 'bob', -1)`)
	if err != nil {
		t.Fatalf("ParseStatement: %v", err)
	}
	ins, ok := stmt.(*Insert)
	if !ok {
		t.Fatalf("got %T, want *Insert", stmt)
	}
	if ins.Table != "customer" {
		t.Errorf("table = %q, want customer", ins.Table)
	}
	if len(ins.Columns) != 3 || ins.Columns[2] != "c_acctbal" {
		t.Errorf("columns = %v", ins.Columns)
	}
	if len(ins.Rows) != 2 || len(ins.Rows[0]) != 3 {
		t.Fatalf("rows = %d x %d", len(ins.Rows), len(ins.Rows[0]))
	}
	if lit, ok := ins.Rows[1][2].(*IntLit); !ok || lit.V != -1 {
		t.Errorf("rows[1][2] = %v, want -1", ins.Rows[1][2])
	}
	want := `INSERT INTO customer (c_custkey, c_name, c_acctbal) VALUES (42, 'alice', 10.5), (43, 'bob', -1)`
	if got := ins.String(); got != want {
		t.Errorf("String() = %q\nwant      %q", got, want)
	}
}

func TestParseInsertNoColumnList(t *testing.T) {
	stmt, err := ParseStatement(`INSERT INTO nation VALUES (99, 'atlantis', 0, 'none')`)
	if err != nil {
		t.Fatalf("ParseStatement: %v", err)
	}
	ins := stmt.(*Insert)
	if ins.Columns != nil {
		t.Errorf("columns = %v, want nil", ins.Columns)
	}
	if len(ins.Rows) != 1 || len(ins.Rows[0]) != 4 {
		t.Fatalf("rows = %v", ins.Rows)
	}
}

func TestParseUpdate(t *testing.T) {
	stmt, err := ParseStatement(
		`UPDATE customer SET c_acctbal = c_acctbal + 10, c_mktsegment = 'building' WHERE c_custkey = 7`)
	if err != nil {
		t.Fatalf("ParseStatement: %v", err)
	}
	upd, ok := stmt.(*Update)
	if !ok {
		t.Fatalf("got %T, want *Update", stmt)
	}
	if upd.Table != "customer" || len(upd.Set) != 2 {
		t.Fatalf("table=%q set=%v", upd.Table, upd.Set)
	}
	if upd.Set[0].Column != "c_acctbal" {
		t.Errorf("set[0].Column = %q", upd.Set[0].Column)
	}
	if _, ok := upd.Set[0].Expr.(*BinaryExpr); !ok {
		t.Errorf("set[0].Expr = %T, want *BinaryExpr", upd.Set[0].Expr)
	}
	if upd.Where == nil {
		t.Error("WHERE clause dropped")
	}
}

func TestParseDelete(t *testing.T) {
	stmt, err := ParseStatement(`DELETE FROM orders WHERE o_orderkey BETWEEN 10 AND 20;`)
	if err != nil {
		t.Fatalf("ParseStatement: %v", err)
	}
	del, ok := stmt.(*Delete)
	if !ok {
		t.Fatalf("got %T, want *Delete", stmt)
	}
	if del.Table != "orders" || del.Where == nil {
		t.Errorf("table=%q where=%v", del.Table, del.Where)
	}
	// WHERE-less delete is legal
	if _, err := ParseStatement(`DELETE FROM orders`); err != nil {
		t.Errorf("bare DELETE FROM: %v", err)
	}
}

func TestParseStatementSelectPassthrough(t *testing.T) {
	stmt, err := ParseStatement(`SELECT COUNT(*) FROM orders WHERE o_orderstatus = 'p'`)
	if err != nil {
		t.Fatalf("ParseStatement: %v", err)
	}
	if _, ok := stmt.(*Select); !ok {
		t.Fatalf("got %T, want *Select", stmt)
	}
}

// TestParseDMLErrors asserts the rejected statements fail with readable,
// actionable messages (not just "unexpected token").
func TestParseDMLErrors(t *testing.T) {
	cases := []struct {
		sql     string
		wantErr string
	}{
		{`INSERT customer VALUES (1)`, "expected INTO"},
		{`INSERT INTO VALUES (1)`, "expected table name after INSERT INTO"},
		{`INSERT INTO customer (1) VALUES (2)`, "expected column name in INSERT column list"},
		{`INSERT INTO customer (c_custkey) SELECT 1`, "expected VALUES"},
		{`INSERT INTO customer (c_custkey, c_name) VALUES (1)`, "INSERT tuple has 1 values but 2 columns were listed"},
		{`INSERT INTO customer VALUES (1, 2), (3)`, "INSERT tuples differ in arity: 1 values vs 2"},
		{`INSERT INTO customer VALUES (1,`, "unexpected end of input"},
		{`UPDATE SET c_acctbal = 1`, "expected table name after UPDATE"},
		{`UPDATE customer c_acctbal = 1`, "expected SET"},
		{`UPDATE customer SET = 1`, "expected column name in SET clause"},
		{`UPDATE customer SET c_acctbal 1`, `expected "="`},
		{`DELETE orders`, "expected FROM"},
		{`DELETE FROM WHERE o_orderkey = 1`, "expected table name after DELETE FROM"},
		{`DROP TABLE customer`, "expected SELECT, INSERT, UPDATE or DELETE"},
		{`INSERT INTO customer VALUES (1) garbage`, "unexpected trailing input"},
	}
	for _, c := range cases {
		_, err := ParseStatement(c.sql)
		if err == nil {
			t.Errorf("ParseStatement(%q) succeeded, want error containing %q", c.sql, c.wantErr)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("ParseStatement(%q) error = %q, want it to contain %q", c.sql, err, c.wantErr)
		}
	}
}

// TestParseRejectsDML: the SELECT-only entry point must keep rejecting DML
// (legacy callers pre-date the write path).
func TestParseRejectsDML(t *testing.T) {
	if _, err := Parse(`INSERT INTO customer VALUES (1)`); err == nil {
		t.Error("Parse accepted INSERT, want error")
	}
}

func TestStatementKind(t *testing.T) {
	cases := []struct{ sql, want string }{
		{"SELECT * FROM t", "select"},
		{"  \n\tinsert into t values (1)", "insert"},
		{"Update t SET a = 1", "update"},
		{"DELETE FROM t", "delete"},
		{"DROP TABLE t", ""},
		{"", ""},
		{"updatex t", ""},
		{"ınsert INTO customer (c_custkey) VALUES (1)", ""},
		{"ſelect c_name FROM customer WHERE c_custkey = 1", ""},
	}
	for _, c := range cases {
		if got := StatementKind(c.sql); got != c.want {
			t.Errorf("StatementKind(%q) = %q, want %q", c.sql, got, c.want)
		}
	}
}

// parseStatementSeeds seed FuzzParseStatement and the golden corpus.
var parseStatementSeeds = []string{
	`INSERT INTO customer (c_custkey) VALUES (1)`,
	`INSERT INTO t VALUES (1, 'x', 2.5), (2, 'y', -1)`,
	`UPDATE t SET a = a + 1 WHERE b = 'z'`,
	`DELETE FROM t WHERE a IN (1, 2, 3)`,
	`SELECT COUNT(*) FROM t WHERE a BETWEEN 1 AND 2`,
	`INSERT INTO`,
	`UPDATE t SET`,
	`DELETE FROM t WHERE`,
	`ınsert INTO customer (c_custkey) VALUES (1)`,
	`ſelect c_name FROM customer WHERE c_custkey = 1`,
}

// FuzzParseStatement checks the statement parser never panics and that
// whatever parses round-trips through String back into something
// parseable of the same kind, which is the kind StatementKind reads off
// its first token, with no EXPLAIN prefix in front.
func FuzzParseStatement(f *testing.F) {
	for _, s := range parseStatementSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		stmt, err := ParseStatement(sql)
		if err != nil {
			return
		}
		if got, want := StatementKind(sql), kindOf(stmt); got != want {
			t.Fatalf("StatementKind(%q) = %q, ParseStatement built a %s", sql, got, want)
		}
		if _, explain, _ := StripExplain(sql); explain {
			t.Fatalf("StripExplain(%q) finds an EXPLAIN prefix ParseStatement does not", sql)
		}
		rendered := stmt.String()
		stmt2, err := ParseStatement(rendered)
		if err != nil {
			t.Fatalf("re-parse of %q (from %q) failed: %v", rendered, sql, err)
		}
		if got, want := kindOf(stmt2), kindOf(stmt); got != want {
			t.Fatalf("round-trip changed statement kind: %q → %q (%s vs %s)", sql, rendered, want, got)
		}
	})
}

func kindOf(s Statement) string {
	switch s.(type) {
	case *Select:
		return "select"
	case *Insert:
		return "insert"
	case *Update:
		return "update"
	case *Delete:
		return "delete"
	default:
		return "?"
	}
}
