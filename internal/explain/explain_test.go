package explain

import (
	"strings"
	"sync"
	"testing"

	"htapxplain/internal/expert"
	"htapxplain/internal/htap"
	"htapxplain/internal/knowledge"
	"htapxplain/internal/llm"
	"htapxplain/internal/plan"
	"htapxplain/internal/treecnn"
	"htapxplain/internal/workload"
)

// test fixture: system + trained router + curated KB, built once.
var (
	fixOnce   sync.Once
	fixSys    *htap.System
	fixRouter *treecnn.Router
	fixOracle *expert.Oracle
	fixKB     *knowledge.Base
	fixErr    error
)

func fixture(t *testing.T) (*htap.System, *treecnn.Router, *expert.Oracle, *knowledge.Base) {
	t.Helper()
	fixOnce.Do(func() {
		fixSys, fixErr = htap.New(htap.DefaultConfig())
		if fixErr != nil {
			return
		}
		fixOracle = expert.NewOracle(fixSys)
		var labelled []*plan.Modeled
		labelled, fixErr = Label(fixSys, workload.NewGenerator(55).Batch(60))
		if fixErr != nil {
			return
		}
		fixRouter = treecnn.New(1)
		fixRouter.Train(Samples(labelled), 40, 2)
		fixKB, fixErr = CurateKB(fixRouter, fixOracle, labelled[:40], 20)
	})
	if fixErr != nil {
		t.Fatalf("fixture: %v", fixErr)
	}
	return fixSys, fixRouter, fixOracle, fixKB
}

func modelSQL(t *testing.T, sys *htap.System, sql string) *plan.Modeled {
	t.Helper()
	m, err := sys.Model(sql)
	if err != nil {
		t.Fatalf("Model(%q): %v", sql, err)
	}
	return m
}

// explainSQL plans the query on both engines and explains the modeled
// result — what every caller of the pipeline does.
func explainSQL(t *testing.T, sys *htap.System, ex *Explainer, sql string) *Explanation {
	t.Helper()
	out, err := ex.Explain(modelSQL(t, sys, sql))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCurateKBRespectsTargetAndCoverage(t *testing.T) {
	_, _, _, kb := fixture(t)
	if kb.Len() != 20 {
		t.Fatalf("KB size = %d, want 20", kb.Len())
	}
	cov := kb.FactorCoverage()
	if len(cov) < 3 {
		t.Errorf("KB covers only %d factors: %v", len(cov), cov)
	}
	// both winners represented
	winners := map[string]bool{}
	for _, e := range kb.Entries() {
		winners[e.Winner.String()] = true
		if e.Explanation == "" || len(e.Encoding) != treecnn.PairDim {
			t.Errorf("malformed entry: %+v", e)
		}
	}
	if !winners["TP"] || !winners["AP"] {
		t.Errorf("curated KB should cover both winners: %v", winners)
	}
}

func TestExplainSQLEndToEnd(t *testing.T) {
	sys, router, oracle, kb := fixture(t)
	ex := New(sys, router, kb, llm.Doubao(), DefaultOptions())
	out := explainSQL(t, sys, ex, htap.Example1SQL)
	if out.Response.None {
		t.Fatalf("Example 1 should be explainable: %q", out.Text())
	}
	if len(out.Retrieved) != 2 {
		t.Errorf("retrieved %d entries, want K=2", len(out.Retrieved))
	}
	truth, err := oracle.Judge(out.Result)
	if err != nil {
		t.Fatal(err)
	}
	if g := expert.GradeExplanation(out.Text(), truth); g.Verdict != expert.VerdictAccurate {
		t.Errorf("Example 1 graded %v: %q (false claims %v)", g.Verdict, out.Text(), g.FalseClaims)
	}
	if out.EncodeTime <= 0 || out.SearchTime <= 0 {
		t.Error("latency components not measured")
	}
	if out.TotalModeledLatency() <= out.Response.GenTime {
		t.Error("total latency must include all components")
	}
}

func TestKParameterHonored(t *testing.T) {
	sys, router, _, kb := fixture(t)
	for _, k := range []int{1, 3, 5} {
		ex := New(sys, router, kb, llm.Doubao(), Options{K: k, UseRAG: true, IncludeGuardrail: true})
		out := explainSQL(t, sys, ex, "SELECT COUNT(*) FROM orders WHERE o_orderstatus = 'p'")
		if len(out.Retrieved) != k {
			t.Errorf("K=%d retrieved %d", k, len(out.Retrieved))
		}
	}
}

func TestUseRAGFalseSkipsRetrieval(t *testing.T) {
	sys, router, _, kb := fixture(t)
	ex := New(sys, router, kb, llm.Doubao(), Options{K: 2, UseRAG: false, IncludeGuardrail: true})
	out := explainSQL(t, sys, ex, htap.Example1SQL)
	if len(out.Retrieved) != 0 {
		t.Errorf("RAG disabled but retrieved %d entries", len(out.Retrieved))
	}
	if strings.Contains(out.Prompt(), "=== KNOWLEDGE") || strings.Contains(out.Prompt(), "return None") {
		t.Error("RAG-free prompt should carry no retriever framing")
	}
}

func TestUserContextFlowsIntoPrompt(t *testing.T) {
	sys, router, _, kb := fixture(t)
	ex := New(sys, router, kb, llm.Doubao(), Options{
		K: 2, UseRAG: true, IncludeGuardrail: true,
		UserContext: "an additional index has been created on the c_phone column",
	})
	out := explainSQL(t, sys, ex, htap.Example1SQL)
	if !strings.Contains(out.Prompt(), "c_phone column") {
		t.Error("user context missing from prompt")
	}
}

func TestFeedbackWritesCorrection(t *testing.T) {
	sys, router, oracle, _ := fixture(t)
	// private empty KB so feedback effects are observable
	kb := knowledge.New(treecnn.PairDim)
	ex := New(sys, router, kb, llm.Doubao(), DefaultOptions())
	out := explainSQL(t, sys, ex, "SELECT COUNT(*) FROM orders WHERE o_orderstatus = 'p'")
	truth, err := oracle.Judge(out.Result)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Feedback(out, oracle.Explain(truth), truth); err != nil {
		t.Fatal(err)
	}
	if kb.Len() != 1 {
		t.Fatalf("KB size after feedback = %d", kb.Len())
	}
	e := kb.Entries()[0]
	if !e.Corrected {
		t.Error("feedback entry should be marked corrected")
	}
	// the correction is now retrievable and fixes the same query
	out2 := explainSQL(t, sys, ex, "SELECT COUNT(*) FROM orders WHERE o_orderstatus = 'p'")
	if out2.Response.None {
		t.Error("after feedback the same query should be explainable")
	}
	g := expert.GradeExplanation(out2.Text(), truth)
	if g.Verdict != expert.VerdictAccurate {
		t.Errorf("post-feedback explanation graded %v: %q", g.Verdict, out2.Text())
	}
}

func TestEmptyKBYieldsNone(t *testing.T) {
	sys, router, _, _ := fixture(t)
	kb := knowledge.New(treecnn.PairDim)
	ex := New(sys, router, kb, llm.Doubao(), DefaultOptions())
	out := explainSQL(t, sys, ex, htap.Example1SQL)
	if !out.Response.None {
		t.Errorf("empty KB should produce None, got %q", out.Text())
	}
}

func TestNewEntryInterface(t *testing.T) {
	sys, router, oracle, _ := fixture(t)
	kb := knowledge.New(treecnn.PairDim)
	m := modelSQL(t, sys, "SELECT COUNT(*) FROM nation")
	truth, err := oracle.Judge(m)
	if err != nil {
		t.Fatal(err)
	}
	id, err := kb.Add(NewEntry(router, m, "expert words", truth.AllFactors(), false))
	if err != nil {
		t.Fatal(err)
	}
	e, ok := kb.Get(id)
	if !ok || e.Explanation != "expert words" || e.SQL != m.SQL || e.Winner != m.Winner ||
		e.Speedup != m.Speedup() || e.TPPlanJSON != m.Pair.TP.ExplainJSON() || e.Corrected {
		t.Errorf("NewEntry entry: %+v", e)
	}
}

func TestDefaultOptions(t *testing.T) {
	o := DefaultOptions()
	if o.K != 2 || !o.UseRAG || !o.IncludeGuardrail {
		t.Errorf("DefaultOptions = %+v", o)
	}
	// zero K falls back to 2
	sys, router, _, kb := fixture(t)
	ex := New(sys, router, kb, llm.Doubao(), Options{K: 0, UseRAG: true})
	if ex.Opts.K != 2 {
		t.Errorf("K=0 should default to 2, got %d", ex.Opts.K)
	}
}
