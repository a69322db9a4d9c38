package llm

import (
	"math"
	"strings"
	"testing"
	"time"

	"htapxplain/internal/expert"
	"htapxplain/internal/knowledge"
	"htapxplain/internal/plan"
	"htapxplain/internal/prompt"
)

func question(winner plan.Engine, sql, tpPlan, apPlan string) prompt.Question {
	return prompt.Question{SQL: sql, TPPlanJSON: tpPlan, APPlanJSON: apPlan,
		Winner: winner, Speedup: 10}
}

func hit(winner plan.Engine, explanation string, dist float64) knowledge.Hit {
	return knowledge.Hit{Entry: &knowledge.Entry{
		SQL: "historical query", TPPlanJSON: "{}", APPlanJSON: "{}",
		Winner: winner, Speedup: 5, Explanation: explanation,
	}, Distance: dist}
}

// joinQuestion is an Example-1-shaped question: AP wins, TP nested loops,
// AP hash joins, function-wrapped predicate.
func joinQuestion() prompt.Question {
	return question(plan.AP,
		"SELECT COUNT(*) FROM customer, orders WHERE SUBSTRING(c_phone, 1, 2) IN ('20') AND o_custkey = c_custkey",
		`{"Node Type":"Nested loop inner join"}`,
		`{"Node Type":"Inner hash join"}`)
}

func TestParsePromptRoundTrip(t *testing.T) {
	b := prompt.NewBuilder("schema")
	b.UserContext = "an index has been created on c_phone"
	hits := []knowledge.Hit{
		hit(plan.AP, "hash join beats nested loop; no index available", 0.01),
		hit(plan.TP, "index order wins", 0.3),
	}
	text := b.Build(hits, joinQuestion())
	i := markerAt(text, prompt.MarkerQuestion)
	if i <= 0 || !strings.HasPrefix(text[i:], prompt.MarkerQuestion) {
		t.Fatalf("QUESTION marker at %d", i)
	}
	p := Doubao().Prefill(text[:i]).(*prefill)
	if !p.guardrail || !p.instructedNone {
		t.Errorf("guardrail %v, return-None instruction %v", p.guardrail, p.instructedNone)
	}
	if !p.ctxIndex {
		t.Error("the user context's index went unnoticed")
	}
	if p.n != i {
		t.Errorf("prefix length = %d, want %d", p.n, i)
	}
	if len(p.knowledge) != 2 {
		t.Fatalf("knowledge sections = %d", len(p.knowledge))
	}
	if p.knowledge[0].winner != plan.AP || !p.knowledge[0].hasWinner {
		t.Errorf("knowledge[0] winner = %+v", p.knowledge[0])
	}
	if want := math.Exp(-0.01 / 0.08); p.knowledge[0].weight != want {
		t.Errorf("knowledge[0] weight = %v, want %v", p.knowledge[0].weight, want)
	}
	if want := 0.5 * math.Exp(-0.3/0.08); p.knowledge[1].weight != want {
		t.Errorf("knowledge[1] weight = %v, want %v", p.knowledge[1].weight, want)
	}
	const hashJoin, noIndex, indexOrder = 1 << 0, 1 << 1, 1 << 3
	if got := p.knowledge[0].factors; got != hashJoin|noIndex {
		t.Errorf("knowledge[0] factors = %b, want %b", got, hashJoin|noIndex)
	}
	if got := p.knowledge[1].factors; got != indexOrder {
		t.Errorf("knowledge[1] factors = %b, want %b", got, indexOrder)
	}
	q := readQuestion(text[i:])
	if q.winner != plan.AP || !q.hasWinner {
		t.Errorf("question winner = %+v", q)
	}
	if q.sql != joinQuestion().SQL || q.tpPlan != joinQuestion().TPPlanJSON || q.apPlan != joinQuestion().APPlanJSON {
		t.Errorf("question = %+v", q)
	}
}

// TestMarkersInSQLAreText: a section marker inside a query's literal is not
// a section. SQL stays on one prompt line, and only a marker at a line
// start counts, so a RAG-free prompt (the DBG-PT comparison's and the
// UseRAG: false ablation's) gets its un-grounded answer — not None from a
// phantom KNOWLEDGE section, not a follow-up answer.
func TestMarkersInSQLAreText(t *testing.T) {
	b := prompt.NewBuilder("s")
	b.IncludeRAG = false
	for _, literal := range []string{"=== KNOWLEDGE 9 ===", "=== FOLLOW-UP QUESTION === why"} {
		q := question(plan.AP, "SELECT COUNT(*) FROM orders WHERE o_comment = '"+literal+"'",
			`{"Node Type":"Table Scan"}`, `{"Node Type":"Aggregate"}`)
		resp, err := Doubao().Generate(b.Build(nil, q))
		if err != nil {
			t.Fatal(err)
		}
		if resp.None || !strings.HasPrefix(resp.Text, "The AP engine is faster in this case because") {
			t.Errorf("literal %q: answer %q (None %v), want the un-grounded answer", literal, resp.Text, resp.None)
		}
	}
}

func TestGroundedGenerationUsesRetrievedFactors(t *testing.T) {
	b := prompt.NewBuilder("s")
	hits := []knowledge.Hit{hit(plan.AP, "TP has to use nested loop joins while AP uses hash join.", 0.001)}
	text := b.Build(hits, joinQuestion())
	resp, err := Doubao().Generate(text)
	if err != nil {
		t.Fatal(err)
	}
	if resp.None {
		t.Fatalf("grounded generation returned None: %q", resp.Text)
	}
	lower := strings.ToLower(resp.Text)
	if !strings.Contains(lower, "hash join") || !strings.Contains(lower, "nested loop") {
		t.Errorf("output missing retrieved factors: %q", resp.Text)
	}
	if !strings.Contains(lower, "ap is faster") {
		t.Errorf("output should name the winner: %q", resp.Text)
	}
}

func TestGroundedReturnsNoneWithoutApplicableKnowledge(t *testing.T) {
	b := prompt.NewBuilder("s")
	// retrieved knowledge asserts only TP-winner factors; the question's
	// winner is AP with no joins at all — nothing applies
	hits := []knowledge.Hit{hit(plan.TP, "TP reads rows in index order, already sorted.", 0.4)}
	q := question(plan.AP, "SELECT COUNT(*) FROM orders", `{"Node Type":"Table Scan"}`, `{"Node Type":"Table Scan"}`)
	resp, err := Doubao().Generate(b.Build(hits, q))
	if err != nil {
		t.Fatal(err)
	}
	if !resp.None {
		t.Errorf("expected None, got %q", resp.Text)
	}
}

func TestGroundedRejectsInapplicableFactors(t *testing.T) {
	b := prompt.NewBuilder("s")
	// knowledge asserts hash-join advantage but the question has no joins
	hits := []knowledge.Hit{
		hit(plan.AP, "TP has to use nested loop joins while AP uses hash join.", 0.001),
		hit(plan.AP, "AP's column-oriented storage scans only the referenced columns.", 0.001),
	}
	q := question(plan.AP, "SELECT COUNT(*) FROM orders", `{"Node Type":"Table Scan"}`, `{"Node Type":"Aggregate"}`)
	resp, err := Doubao().Generate(b.Build(hits, q))
	if err != nil {
		t.Fatal(err)
	}
	if resp.None {
		t.Fatalf("columnar factor applies; should not be None")
	}
	if strings.Contains(strings.ToLower(resp.Text), "hash join") {
		t.Errorf("inapplicable hash-join factor asserted: %q", resp.Text)
	}
}

func TestUngroundedFailureModes(t *testing.T) {
	// no knowledge sections → un-grounded path with documented failures
	b := prompt.NewBuilder("s")
	b.IncludeGuardrail = false
	b.IncludeRAG = false
	costComparisons := 0
	for i := 0; i < 40; i++ {
		q := question(plan.AP,
			"SELECT COUNT(*) FROM orders WHERE o_x = "+strings.Repeat("x", i),
			`{"Node Type":"Table Scan"}`, `{"Node Type":"Aggregate"}`)
		resp, err := ChatGPT4().Generate(b.Build(nil, q))
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(strings.ToLower(resp.Text), "comparing the costs") {
			costComparisons++
		}
	}
	// without the guardrail the model compares costs most of the time
	if costComparisons < 15 {
		t.Errorf("cost comparisons without guardrail = %d/40, expected frequent", costComparisons)
	}
}

func TestGuardrailReducesCostComparisons(t *testing.T) {
	count := func(guard bool) int {
		b := prompt.NewBuilder("s")
		b.IncludeGuardrail = guard
		b.IncludeRAG = false
		n := 0
		for i := 0; i < 60; i++ {
			q := question(plan.AP,
				"SELECT COUNT(*) FROM orders WHERE k = "+strings.Repeat("y", i),
				`{"Node Type":"Table Scan"}`, `{"Node Type":"Aggregate"}`)
			resp, err := Doubao().Generate(b.Build(nil, q))
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(strings.ToLower(resp.Text), "comparing the costs") {
				n++
			}
		}
		return n
	}
	with, without := count(true), count(false)
	if with >= without {
		t.Errorf("guardrail should reduce cost comparisons: with=%d without=%d", with, without)
	}
	if with == 0 {
		t.Error("the paper observed residual cost comparisons despite the instruction")
	}
}

func TestIndexMisattributionOnFunctionWrappedPredicates(t *testing.T) {
	b := prompt.NewBuilder("s")
	b.IncludeRAG = false
	b.UserContext = "an additional index has been created on the c_phone column"
	misattributions := 0
	for i := 0; i < 40; i++ {
		q := question(plan.AP,
			"SELECT COUNT(*) FROM customer WHERE SUBSTRING(c_phone, 1, 2) IN ('20') AND pad = "+strings.Repeat("z", i),
			`{"Node Type":"Table Scan"}`, `{"Node Type":"Aggregate"}`)
		resp, err := Doubao().Generate(b.Build(nil, q))
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(strings.ToLower(resp.Text), "benefit from the index") {
			misattributions++
		}
	}
	if misattributions == 0 {
		t.Error("un-grounded model should sometimes misattribute the unusable index (paper §VI-D)")
	}
}

func TestDeterministicGeneration(t *testing.T) {
	b := prompt.NewBuilder("s")
	text := b.Build([]knowledge.Hit{hit(plan.AP, "hash join beats nested loop", 0.01)}, joinQuestion())
	m := Doubao()
	r1, err := m.Generate(text)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := m.Generate(text)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Text != r2.Text {
		t.Error("generation must be deterministic for identical prompts")
	}
}

func TestLatencyEnvelope(t *testing.T) {
	b := prompt.NewBuilder("s")
	b.IncludeRAG = false
	resp, err := Doubao().Generate(b.Build(nil, joinQuestion()))
	if err != nil {
		t.Fatal(err)
	}
	if resp.ThinkTime <= 0 || resp.ThinkTime > 2*time.Second {
		t.Errorf("think time %v outside (0, 2s]", resp.ThinkTime)
	}
	if resp.GenTime <= 0 || resp.GenTime > 16*time.Second {
		t.Errorf("gen time %v outside (0, 16s]", resp.GenTime)
	}
}

func TestModelNames(t *testing.T) {
	if Doubao().Name() != "doubao-sim" || ChatGPT4().Name() != "chatgpt4-sim" {
		t.Error("model names wrong")
	}
}

func TestAggregationBonusInsight(t *testing.T) {
	// the paper notes the LLM volunteered aggregation efficiency beyond
	// the expert's text — reproduce: group-by question + agg-mentioning
	// knowledge must surface the aggregation remark
	b := prompt.NewBuilder("s")
	hits := []knowledge.Hit{hit(plan.AP,
		"TP has to use nested loop joins while AP uses hash join. AP's hash aggregates digest the large intermediate result efficiently.", 0.001)}
	q := question(plan.AP,
		"SELECT c_mktsegment, COUNT(*) FROM customer, orders WHERE o_custkey = c_custkey GROUP BY c_mktsegment",
		`{"Node Type":"Nested loop inner join"}`,
		`{"Node Type":"Aggregate","Plans":[{"Node Type":"Inner hash join"}]}`)
	resp, err := Doubao().Generate(b.Build(hits, q))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.ToLower(resp.Text), "aggregat") {
		t.Errorf("aggregation insight missing: %q", resp.Text)
	}
	_ = expert.FactorAggregationPushdown
}
