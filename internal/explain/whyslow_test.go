package explain

import (
	"strings"
	"testing"

	"htapxplain/internal/htap"
	"htapxplain/internal/llm"
	"htapxplain/internal/plan"
)

func TestWhySlowExample1DiagnosesTP(t *testing.T) {
	sys, router, _, kb := fixture(t)
	ex := New(sys, router, kb, llm.Doubao(), DefaultOptions())
	rep, err := ex.WhySlow(modelSQL(t, sys, htap.Example1SQL))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Engine != plan.TP || rep.Faster != plan.AP {
		t.Fatalf("diagnosed %v slow / %v fast", rep.Engine, rep.Faster)
	}
	lower := strings.ToLower(rep.Text)
	if !strings.Contains(lower, "nested-loop") {
		t.Errorf("TP bottleneck should name nested loops: %q", rep.Text)
	}
	if !strings.Contains(lower, "no index") {
		t.Errorf("should mention the missing index: %q", rep.Text)
	}
	if len(rep.Advice) == 0 {
		t.Error("Example 1 should come with actionable advice")
	}
	if !strings.Contains(lower, "routing this query to the ap engine") {
		t.Errorf("should recommend routing: %q", rep.Text)
	}
}

func TestWhySlowTinyQueryDiagnosesAP(t *testing.T) {
	sys, router, _, kb := fixture(t)
	ex := New(sys, router, kb, llm.Doubao(), DefaultOptions())
	rep, err := ex.WhySlow(modelSQL(t, sys, "SELECT o_totalprice FROM orders WHERE o_orderkey = 3"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Engine != plan.AP {
		t.Fatalf("diagnosed %v slow, want AP", rep.Engine)
	}
	if !strings.Contains(strings.ToLower(rep.Text), "startup overhead") {
		t.Errorf("AP's startup overhead should be the diagnosis: %q", rep.Text)
	}
}

func TestWhySlowTopNDiagnosesAPSort(t *testing.T) {
	sys, router, _, kb := fixture(t)
	ex := New(sys, router, kb, llm.Doubao(), DefaultOptions())
	rep, err := ex.WhySlow(modelSQL(t, sys, "SELECT o_orderkey FROM orders ORDER BY o_orderkey LIMIT 10"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Engine != plan.AP {
		t.Fatalf("diagnosed %v slow, want AP", rep.Engine)
	}
	if !strings.Contains(strings.ToLower(rep.Text), "sorted") {
		t.Errorf("AP's sort should be the diagnosis: %q", rep.Text)
	}
}

func TestWhySlowAlwaysHasBottleneck(t *testing.T) {
	sys, router, _, kb := fixture(t)
	ex := New(sys, router, kb, llm.Doubao(), DefaultOptions())
	for _, sql := range []string{
		"SELECT COUNT(*) FROM nation",
		"SELECT l_returnflag, COUNT(*) FROM lineitem GROUP BY l_returnflag",
		"SELECT c_custkey, c_name, c_acctbal FROM customer ORDER BY c_acctbal DESC LIMIT 10 OFFSET 500",
	} {
		rep, err := ex.WhySlow(modelSQL(t, sys, sql))
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		if len(rep.Bottlenecks) == 0 || rep.Text == "" {
			t.Errorf("%q produced an empty diagnosis", sql)
		}
		if rep.Speedup < 1 {
			t.Errorf("%q speedup = %v", sql, rep.Speedup)
		}
	}
}
