package sqlparser

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"htapxplain/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/fingerprint.golden from the current Fingerprint")

// fingerprintEdgeCases are inputs at the edges of the lexical grammar:
// runes outside ASCII, bytes no token starts with, numbers cut short, and
// IN lists that are empty, adjacent, nested or broken.
var fingerprintEdgeCases = []string{
	`SELECT c_name AS naïve FROM customer WHERE c_custkey = 5`,
	`SELECT ñame1, é5, x_é FROM t WHERE Ünïcode = 'ü'`,
	`SELECT a FROM t WHERE x ın (1, 2)`,
	`ınsert INTO customer (c_custkey) VALUES (1)`,
	`ſelect c_name FROM customer WHERE c_custkey = 1`,
	"SELECT a FROM t WHERE é\u0661 = 1",
	"SELECT a\fFROM t WHERE x = 1",
	"SELECT a FROM t\vWHERE x = 1",
	"SELECT a FROM t WHERE x = 1\u00a0AND y = 2",
	"SELECT a FROM t WHERE x = '\xde' AND \xde = 1",
	"SELECT a FROM t WHERE \xff\xfe = 1",
	"SELECT € FROM t WHERE x = 1",
	`SELECT a FROM t WHERE x ! 1`,
	`SELECT a FROM t WHERE x @ 1`,
	`SELECT "a" FROM t WHERE x = 1`,
	`SELECT a FROM t WHERE x != 1 AND y <> 2 AND z <= 3 AND w >= 4`,
	`SELECT a FROM t WHERE x = 1.`,
	`SELECT a FROM t WHERE x = .5`,
	`SELECT a FROM t WHERE x = 1.2.3 AND y = 12abc AND abc12 = 0`,
	`SELECT a FROM t WHERE x IN ()`,
	`SELECT a FROM t WHERE x IN (1,)`,
	`SELECT a FROM t WHERE x IN (,1)`,
	`SELECT a FROM t WHERE x IN (1 2)`,
	`SELECT a FROM t WHERE x IN (-1, 2)`,
	`SELECT a FROM t WHERE x IN(1)IN(2) AND y iN ('a''b', 'c') AND z In (3.5)`,
	`SELECT a FROM t WHERE x IN (1, 2) AND y IN (3) AND z IN ('p', 'q', 'r')`,
	`SELECT a FROM t WHERE x IN ((1), 2) OR x IN (1, (2)) OR x IN (SELECT 1)`,
	`SELECT a FROM t WHERE x IN (1)(2) OR xin (1) OR _in (2) OR inn (3) OR i (4)`,
	`SELECT a FROM t WHERE x IN ('unterminated`,
	`SELECT a FROM t WHERE x IN ('a', 'b'`,
	`SELECT a FROM t WHERE x IN`,
	`SELECT a FROM t WHERE x = 'unterminated`,
	`SELECT a FROM t WHERE x = 'trailing quote''`,
	`SELECT a FROM t WHERE x = ''`,
	"  \t\n\rSELECT  a ,b\n,\tc FROM t;  ",
	`EXPLAIN ANALYZE SELECT SUM(l_quantity) FROM lineitem WHERE l_quantity < 5`,
	`explain select 1`,
	``,
	`'`,
	`(`,
	`IN (1)`,
}

// goldenCorpus is every input the golden file pins, each once: the edge
// cases, the parser fuzzers' seeds, and eight literal vectors of every
// workload template at seed 7.
func goldenCorpus() []string {
	in := append(append(append([]string{}, fingerprintEdgeCases...), fingerprintSeeds...), parseStatementSeeds...)
	in = append(in, parseScriptSeeds...)
	var qs []workload.Query
	qs = append(qs, workload.NewTestGenerator(7).Batch(192)...)
	qs = append(qs, workload.NewDMLGenerator(7).Batch(64)...)
	qs = append(qs, workload.NewTxnGenerator(7).Batch(64)...)
	per := map[string]int{}
	for _, q := range qs {
		if per[q.Template] < 8 {
			per[q.Template]++
			in = append(in, q.SQL)
		}
	}
	seen := map[string]bool{}
	out := in[:0]
	for _, sql := range in {
		if !seen[sql] {
			seen[sql] = true
			out = append(out, sql)
		}
	}
	return out
}

// goldenLine is one line of the golden file: the input, its fingerprint,
// its params and whether Fingerprint failed, each quoted.
func goldenLine(sql string) string {
	fp, params, err := Fingerprint(sql)
	return fmt.Sprintf("%s %s %q %t", strconv.Quote(sql), strconv.Quote(fp), params, err != nil)
}

// TestFingerprintGolden holds Fingerprint's bytes to the checked-in file:
// the plan cache keys and places entries on them, and the benchmark builds
// its streams from them. go test -run FingerprintGolden -update rewrites it.
func TestFingerprintGolden(t *testing.T) {
	var b strings.Builder
	for _, sql := range goldenCorpus() {
		b.WriteString(goldenLine(sql))
		b.WriteByte('\n')
	}
	path := filepath.Join("testdata", "fingerprint.golden")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.SplitAfter(b.String(), "\n")
	lines := strings.SplitAfter(string(want), "\n")
	for i := range got {
		if i >= len(lines) || got[i] != lines[i] {
			t.Fatalf("line %d:\n got %s\nwant %s", i+1, got[i], lines[min(i, len(lines)-1)])
		}
	}
	if len(lines) != len(got) {
		t.Fatalf("%d lines, the golden file has %d", len(got), len(lines))
	}
}
