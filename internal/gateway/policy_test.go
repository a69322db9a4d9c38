package gateway

import (
	"testing"
	"time"

	"htapxplain/internal/htap"
	"htapxplain/internal/plan"
	"htapxplain/internal/sqlparser"
	"htapxplain/internal/treecnn"
	"htapxplain/internal/workload"
)

// labelQueries plans each query on both engines and labels it with the
// modeled winner — the same ground truth the rest of the repo uses.
func labelQueries(t testing.TB, sys *htap.System, queries []workload.Query) []RouteInput {
	t.Helper()
	inputs := make([]RouteInput, 0, len(queries))
	for _, q := range queries {
		stmt, err := sqlparser.Parse(q.SQL)
		if err != nil {
			t.Fatalf("parse %q: %v", q.SQL, err)
		}
		m, err := sys.Model(q.SQL)
		if err != nil {
			t.Fatalf("model %q: %v", q.SQL, err)
		}
		inputs = append(inputs, RouteInput{Stmt: stmt, Pair: &m.Pair, TPTime: m.TPTime, APTime: m.APTime})
	}
	return inputs
}

func truth(in RouteInput) plan.Engine {
	if in.TPTime <= in.APTime {
		return plan.TP
	}
	return plan.AP
}

func accuracy(p RoutingPolicy, inputs []RouteInput) float64 {
	correct := 0
	for _, in := range inputs {
		if p.Route(in) == truth(in) {
			correct++
		}
	}
	return float64(correct) / float64(len(inputs))
}

// TestRoutingPolicyAccuracy trains the learned router on a seeded
// workload and compares all three policies on a held-out test mix
// (including the rare shapes the rules get wrong).
func TestRoutingPolicyAccuracy(t *testing.T) {
	sys := testSystem(t)

	trainInputs := labelQueries(t, sys, workload.NewGenerator(101).Batch(120))
	samples := make([]treecnn.Sample, len(trainInputs))
	for i, in := range trainInputs {
		samples[i] = treecnn.Sample{Pair: in.Pair, Label: truth(in)}
	}
	router := treecnn.New(1)
	rep := router.Train(samples, 40, 2)
	if rep.TrainAcc < 0.8 {
		t.Fatalf("router underfit its training set: %.2f", rep.TrainAcc)
	}

	test := labelQueries(t, sys, workload.NewTestGenerator(999).Batch(80))
	cost := accuracy(CostPolicy{}, test)
	rule := accuracy(RulePolicy{}, test)
	learned := accuracy(LearnedPolicy{Source: func() *treecnn.Router { return router }}, test)
	t.Logf("route accuracy on 80 held-out queries: cost=%.2f rule=%.2f learned=%.2f", cost, rule, learned)

	// Cost routing IS the ground-truth definition: exact by construction.
	if cost != 1.0 {
		t.Errorf("cost policy accuracy = %.2f, want 1.0", cost)
	}
	// The learned router generalizes from plan shape; it must beat both a
	// coin flip and the static rules on the test mix.
	if learned < 0.65 {
		t.Errorf("learned policy accuracy = %.2f, want ≥ 0.65", learned)
	}
	if learned <= rule {
		t.Errorf("learned (%.2f) should beat rule-based (%.2f) on the rare-template mix", learned, rule)
	}
}

// TestPolicyDisagreementIsObservable routes one AP-favored query through
// a rule-gateway and checks the route-accuracy metric records the miss —
// the ground-truth accounting the ISSUE's per-query metrics call for.
func TestPolicyDisagreementIsObservable(t *testing.T) {
	sys := testSystem(t)
	g := New(sys, Config{Workers: 1, CacheCapacity: 16, Policy: RulePolicy{}})
	defer g.Stop()

	// Two tables, no aggregate → rules say TP; the deep-offset sort over
	// the whole table is modeled AP-faster, so the rule route is wrong.
	sql := `SELECT c_custkey, c_name, c_acctbal FROM customer ORDER BY c_acctbal DESC LIMIT 10 OFFSET 500`
	resp, err := g.Submit(sql)
	if err != nil || resp.Err != nil {
		t.Fatalf("submit: %v / %v", err, resp.Err)
	}
	if want := (RulePolicy{}).Route(RouteInput{Stmt: mustParse(t, sql)}); resp.Engine != want {
		t.Fatalf("gateway routed to %v but its policy says %v", resp.Engine, want)
	}
	snap := g.Metrics()
	wrong := truth(RouteInput{TPTime: resp.TPTime, APTime: resp.APTime}) != resp.Engine
	if wrong && snap.RouteAccuracy != 0 {
		t.Errorf("route accuracy = %.2f after a known-wrong route, want 0", snap.RouteAccuracy)
	}
	if !wrong && snap.RouteAccuracy != 1 {
		t.Errorf("route accuracy = %.2f after a correct route, want 1", snap.RouteAccuracy)
	}
}

func mustParse(t *testing.T, sql string) *sqlparser.Select {
	t.Helper()
	s, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCostPolicyTieBreak pins the documented tie-break: equal estimates
// route to TP.
func TestCostPolicyTieBreak(t *testing.T) {
	in := RouteInput{TPTime: time.Millisecond, APTime: time.Millisecond}
	if got := (CostPolicy{}).Route(in); got != plan.TP {
		t.Errorf("tie routed to %v, want TP", got)
	}
}
