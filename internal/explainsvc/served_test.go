package explainsvc

import (
	"bytes"
	"testing"

	"htapxplain/internal/expert"
	"htapxplain/internal/explain"
	"htapxplain/internal/htap"
	"htapxplain/internal/knowledge"
	"htapxplain/internal/llm"
	"htapxplain/internal/workload"
)

// TestServedIsEvaluated: at the served configuration — the server's
// Bootstrap at seed 7, K = 2, Doubao, retrieval through HNSW, plan pairs
// from the gateway's template cache, an uncalibrated latency model —
// Service.Explain says what the offline pipeline internal/eval grades
// says: the same text, the same winner and the same grade for each of 200
// held-out queries, the offline side planning every query itself and
// retrieving by exact scan from its own copy of the knowledge base. So
// benchrunner's tables describe what /explain serves. Prompts are not
// compared: a cached template carries its first literal vector's plans.
func TestServedIsEvaluated(t *testing.T) {
	sys, err := htap.New(htap.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	router, kb, _, err := Bootstrap(sys, BootstrapConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := kb.Save(&saved); err != nil {
		t.Fatal(err)
	}
	exactKB, err := knowledge.Load(&saved)
	if err != nil {
		t.Fatal(err)
	}
	svc := newService(t, sys, newGateway(t, sys, 2), router, kb, Config{Seed: 7})
	offline := explain.New(sys, router, exactKB, llm.Doubao(), explain.DefaultOptions())
	oracle := expert.NewOracle(sys)

	accurate := 0
	for _, q := range workload.NewTestGenerator(10100).Batch(200) {
		served, err := svc.Explain(q.SQL)
		if err != nil {
			t.Fatalf("Explain(%q): %v", q.SQL, err)
		}
		m, err := sys.Model(q.SQL)
		if err != nil {
			t.Fatal(err)
		}
		want, err := offline.Explain(m)
		if err != nil {
			t.Fatal(err)
		}
		if served.Text() != want.Text() || served.Result.Winner != m.Winner {
			t.Errorf("%q:\nserved  (%v) %q\noffline (%v) %q", q.SQL, served.Result.Winner, served.Text(), m.Winner, want.Text())
			continue
		}
		servedTruth, err := oracle.Judge(served.Result)
		if err != nil {
			t.Fatal(err)
		}
		truth, err := oracle.Judge(m)
		if err != nil {
			t.Fatal(err)
		}
		got, grade := expert.GradeExplanation(served.Text(), servedTruth), expert.GradeExplanation(want.Text(), truth)
		if got.Verdict != grade.Verdict {
			t.Errorf("%q: served graded %v, offline %v", q.SQL, got.Verdict, grade.Verdict)
		}
		if grade.Verdict == expert.VerdictAccurate {
			accurate++
		}
	}
	t.Logf("200 held-out queries: served and offline agree; %d accurate on both", accurate)
}
