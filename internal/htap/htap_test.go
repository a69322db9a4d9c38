package htap

import (
	"testing"
	"time"

	"htapxplain/internal/plan"
	"htapxplain/internal/value"
)

func newSystem(t *testing.T) *System {
	t.Helper()
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func TestExample1APWinsBigMargin(t *testing.T) {
	s := newSystem(t)
	res, err := s.Run(Example1SQL)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Winner != plan.AP {
		t.Fatalf("winner = %v, want AP (TP %v, AP %v)", res.Winner, res.TPTime, res.APTime)
	}
	if res.Speedup() < 3 {
		t.Errorf("speedup = %.1f, want >= 3 (TP %v, AP %v)", res.Speedup(), res.TPTime, res.APTime)
	}
	// paper magnitudes: TP seconds, AP sub-second
	if res.TPTime < 500*time.Millisecond || res.TPTime > 60*time.Second {
		t.Errorf("TP time %v outside the paper's magnitude (~5.8s)", res.TPTime)
	}
	if res.APTime > 3*time.Second {
		t.Errorf("AP time %v outside the paper's magnitude (~310ms)", res.APTime)
	}
	if !res.ResultsAgree {
		t.Errorf("TP and AP produced different results: TP=%v AP=%v", res.TPRows, res.APRows)
	}
	if len(res.TPRows) != 1 {
		t.Fatalf("COUNT(*) should return 1 row, got %d", len(res.TPRows))
	}
}

func TestExample1PlanShapes(t *testing.T) {
	s := newSystem(t)
	m, err := s.Model(Example1SQL)
	if err != nil {
		t.Fatalf("Model: %v", err)
	}
	pair := m.Pair
	tpSum := plan.Summarize(pair.TP)
	apSum := plan.Summarize(pair.AP)
	if tpSum.NestedLoopJoins == 0 {
		t.Errorf("TP plan should use nested-loop joins:\n%s", pair.TP)
	}
	if tpSum.HashJoins != 0 {
		t.Errorf("TP engine has no hash join, found %d:\n%s", tpSum.HashJoins, pair.TP)
	}
	if apSum.HashJoins == 0 {
		t.Errorf("AP plan should use hash joins:\n%s", pair.AP)
	}
	if apSum.NestedLoopJoins != 0 {
		t.Errorf("AP plan should not use nested loops:\n%s", pair.AP)
	}
	// cost units must be wildly incomparable, like the paper's Table II
	if apSum.RootCost < 100*tpSum.RootCost {
		t.Errorf("AP cost (%.0f) should dwarf TP cost (%.0f) — non-comparable units",
			apSum.RootCost, tpSum.RootCost)
	}
}

func TestPointLookupTPWins(t *testing.T) {
	s := newSystem(t)
	res, err := s.Run(`SELECT o_totalprice FROM orders WHERE o_orderkey = 42`)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Winner != plan.TP {
		t.Fatalf("winner = %v, want TP (TP %v, AP %v)", res.Winner, res.TPTime, res.APTime)
	}
	if !res.ResultsAgree {
		t.Errorf("engines disagree: TP=%v AP=%v", res.TPRows, res.APRows)
	}
}

func TestIndexedTopNTPWins(t *testing.T) {
	s := newSystem(t)
	res, err := s.Run(`SELECT c_custkey, c_name FROM customer ORDER BY c_custkey LIMIT 10`)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Winner != plan.TP {
		t.Fatalf("winner = %v, want TP (TP %v, AP %v)", res.Winner, res.TPTime, res.APTime)
	}
	if len(res.TPRows) != 10 {
		t.Fatalf("LIMIT 10 returned %d rows", len(res.TPRows))
	}
	// TP must have served it from index order
	sum := plan.Summarize(res.Pair.TP)
	if !sum.UsesIndex {
		t.Errorf("TP Top-N should be index-ordered:\n%s", res.Pair.TP)
	}
	if res.TPRows[0][0].I != 1 {
		t.Errorf("first custkey = %v, want 1", res.TPRows[0][0])
	}
}

func TestBigAggregationAPWins(t *testing.T) {
	s := newSystem(t)
	res, err := s.Run(`SELECT l_returnflag, COUNT(*), SUM(l_extendedprice) FROM lineitem GROUP BY l_returnflag`)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Winner != plan.AP {
		t.Fatalf("winner = %v, want AP (TP %v, AP %v)", res.Winner, res.TPTime, res.APTime)
	}
	if !res.ResultsAgree {
		t.Errorf("engines disagree: TP=%v AP=%v", res.TPRows, res.APRows)
	}
}

func TestAddDropIndexRoundTrip(t *testing.T) {
	s := newSystem(t)
	if err := s.AddIndex("customer", "c_phone", "idx_c_phone"); err != nil {
		t.Fatalf("AddIndex: %v", err)
	}
	if err := s.AddIndex("customer", "c_phone", "again"); err == nil {
		t.Error("duplicate AddIndex should fail")
	}
	// direct equality on c_phone can now use the index
	res, err := s.Run(`SELECT c_name FROM customer WHERE c_phone = '20-100-100-1000'`)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sum := plan.Summarize(res.Pair.TP); sum.IndexScans == 0 {
		t.Errorf("TP should use the new c_phone index:\n%s", res.Pair.TP)
	}
	// ... but a SUBSTRING-wrapped predicate must NOT use it (the paper's
	// follow-up point: functions disable index usage)
	res2, err := s.Run(`SELECT COUNT(*) FROM customer WHERE SUBSTRING(c_phone, 1, 2) IN ('20')`)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sum := plan.Summarize(res2.Pair.TP); sum.IndexScans != 0 {
		t.Errorf("SUBSTRING(c_phone) must not use the index:\n%s", res2.Pair.TP)
	}
	if err := s.DropIndex("customer", "c_phone"); err != nil {
		t.Fatalf("DropIndex: %v", err)
	}
	if err := s.DropIndex("customer", "c_phone"); err == nil {
		t.Error("double DropIndex should fail")
	}
}

func TestEnginesAgreeAcrossQueryShapes(t *testing.T) {
	s := newSystem(t)
	queries := []string{
		`SELECT COUNT(*) FROM orders WHERE o_orderstatus = 'p'`,
		`SELECT n_name, COUNT(*) FROM customer, nation WHERE c_nationkey = n_nationkey GROUP BY n_name`,
		`SELECT o_orderkey, o_totalprice FROM orders ORDER BY o_totalprice DESC LIMIT 5`,
		`SELECT c_name FROM customer WHERE c_acctbal BETWEEN 0 AND 100 ORDER BY c_name LIMIT 7 OFFSET 3`,
		`SELECT COUNT(*), MIN(s_acctbal), MAX(s_acctbal) FROM supplier WHERE s_nationkey = 4`,
		`SELECT COUNT(*) FROM customer, orders WHERE o_custkey = c_custkey AND c_mktsegment = 'building'`,
	}
	for _, q := range queries {
		res, err := s.Run(q)
		if err != nil {
			t.Errorf("Run(%q): %v", q, err)
			continue
		}
		if !res.ResultsAgree {
			t.Errorf("engines disagree on %q:\nTP rows=%d AP rows=%d", q, len(res.TPRows), len(res.APRows))
		}
	}
}

func TestCountStarMatchesManualCount(t *testing.T) {
	s := newSystem(t)
	res, err := s.Run(`SELECT COUNT(*) FROM nation`)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := res.TPRows[0][0]; got.I != 25 {
		t.Errorf("COUNT(*) nation = %v, want 25", got)
	}
	_ = value.Null // keep import if assertions change
}
