package sqlparser

import (
	"strings"
	"testing"
)

func TestParseScriptSingleStatement(t *testing.T) {
	sc, err := ParseScript("INSERT INTO customer (c_custkey) VALUES (1)")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Explicit || !sc.Commit || len(sc.Stmts) != 1 {
		t.Fatalf("unexpected script: %+v", sc)
	}
	if _, ok := sc.Stmts[0].(*Insert); !ok {
		t.Fatalf("expected *Insert, got %T", sc.Stmts[0])
	}
}

func TestParseScriptBlock(t *testing.T) {
	sc, err := ParseScript(`BEGIN;
		INSERT INTO customer (c_custkey) VALUES (1), (2);
		UPDATE customer SET c_acctbal = c_acctbal + 10 WHERE c_custkey = 1;
		DELETE FROM customer WHERE c_custkey = 2;
	COMMIT;`)
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Explicit || !sc.Commit {
		t.Fatalf("expected explicit committed block, got %+v", sc)
	}
	if len(sc.Stmts) != 3 {
		t.Fatalf("expected 3 statements, got %d", len(sc.Stmts))
	}
	if _, ok := sc.Stmts[0].(*Insert); !ok {
		t.Fatalf("stmt 0: expected *Insert, got %T", sc.Stmts[0])
	}
	if _, ok := sc.Stmts[1].(*Update); !ok {
		t.Fatalf("stmt 1: expected *Update, got %T", sc.Stmts[1])
	}
	if _, ok := sc.Stmts[2].(*Delete); !ok {
		t.Fatalf("stmt 2: expected *Delete, got %T", sc.Stmts[2])
	}
}

func TestParseScriptRollbackAndEmptyBlocks(t *testing.T) {
	sc, err := ParseScript("BEGIN; DELETE FROM customer WHERE c_custkey = 9; ROLLBACK")
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Explicit || sc.Commit {
		t.Fatalf("expected rolled-back block, got %+v", sc)
	}
	// an empty transaction is legal (commits nothing)
	for _, sql := range []string{"BEGIN; COMMIT", "BEGIN; ROLLBACK;", "BEGIN;; COMMIT ;"} {
		if _, err := ParseScript(sql); err != nil {
			t.Fatalf("ParseScript(%q): %v", sql, err)
		}
	}
}

// TestParseScriptMalformedBlocks covers the structural error paths: every
// malformed block must be rejected at parse time with a message naming
// the mistake, so no transaction is ever opened for it.
func TestParseScriptMalformedBlocks(t *testing.T) {
	cases := []struct {
		sql     string
		wantErr string
	}{
		{"BEGIN; BEGIN; COMMIT", "nested BEGIN"},
		{"BEGIN; INSERT INTO t VALUES (1); BEGIN; COMMIT", "nested BEGIN"},
		{"COMMIT", "COMMIT without BEGIN"},
		{"ROLLBACK;", "ROLLBACK without BEGIN"},
		{"BEGIN; INSERT INTO t VALUES (1); ROLLBACK; DELETE FROM t", "statement after ROLLBACK"},
		{"BEGIN; COMMIT; INSERT INTO t VALUES (1)", "statement after COMMIT"},
		{"BEGIN; INSERT INTO t VALUES (1)", "missing COMMIT or ROLLBACK"},
		{"BEGIN; INSERT INTO t VALUES (1);", "missing COMMIT or ROLLBACK"},
		{"BEGIN; SELECT c FROM t; COMMIT", "SELECT inside a transaction block"},
		{"BEGIN INSERT INTO t VALUES (1); COMMIT", `expected ";"`},
		{"BEGIN; INSERT INTO t VALUES (1) DELETE FROM t; COMMIT", "after statement"},
		{"BEGIN; EXPLAIN SELECT c FROM t; COMMIT", "expected INSERT, UPDATE, DELETE"},
	}
	for _, tc := range cases {
		_, err := ParseScript(tc.sql)
		if err == nil {
			t.Errorf("ParseScript(%q): expected error containing %q, got nil", tc.sql, tc.wantErr)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("ParseScript(%q): error %q does not contain %q", tc.sql, err, tc.wantErr)
		}
	}
}

func TestStatementKindTxnKeywords(t *testing.T) {
	cases := map[string]string{
		"BEGIN; INSERT INTO t VALUES (1); COMMIT": "begin",
		"  begin;":        "begin",
		"COMMIT":          "commit",
		"rollback":        "rollback",
		"SELECT 1 FROM t": "select",
	}
	for sql, want := range cases {
		if got := StatementKind(sql); got != want {
			t.Errorf("StatementKind(%q) = %q, want %q", sql, got, want)
		}
	}
}

// parseScriptSeeds seed FuzzParseScript and the golden corpus.
var parseScriptSeeds = []string{
	"BEGIN; INSERT INTO t VALUES (1); COMMIT",
	"BEGIN; UPDATE t SET a = 1 WHERE b = 2; DELETE FROM t; ROLLBACK;",
	"BEGIN; COMMIT",
	"INSERT INTO t VALUES (1)",
	"COMMIT",
	"BEGIN; BEGIN; COMMIT",
	"BEGIN; SELECT a FROM t; COMMIT",
	";;;BEGIN;;COMMIT;;",
}

// FuzzParseScript attacks the block grammar: whatever the input, the
// parser must not panic, and an accepted script must be internally
// consistent (only DML statement nodes, a terminator implied by Commit)
// and classified as StatementKind classifies it: a block as begin, a lone
// statement as its kind.
func FuzzParseScript(f *testing.F) {
	for _, s := range parseScriptSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		sc, err := ParseScript(sql)
		if err != nil {
			return
		}
		for i, stmt := range sc.Stmts {
			switch stmt.(type) {
			case *Insert, *Update, *Delete:
			case *Select:
				if sc.Explicit {
					t.Fatalf("accepted SELECT inside block at %d", i)
				}
			default:
				t.Fatalf("accepted unexpected statement %T at %d", stmt, i)
			}
		}
		if !sc.Explicit && !sc.Commit {
			t.Fatal("single-statement script must autocommit")
		}
		want := "begin"
		if !sc.Explicit {
			want = kindOf(sc.Stmts[0])
		}
		if got := StatementKind(sql); got != want {
			t.Fatalf("StatementKind(%q) = %q, ParseScript read %s", sql, got, want)
		}
	})
}
