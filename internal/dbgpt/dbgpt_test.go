package dbgpt

import (
	"strings"
	"testing"

	"htapxplain/internal/htap"
	"htapxplain/internal/llm"
	"htapxplain/internal/plan"
)

func examplePair(t *testing.T) *plan.Pair {
	t.Helper()
	sys, err := htap.New(htap.DefaultConfig())
	if err != nil {
		t.Fatalf("htap.New: %v", err)
	}
	m, err := sys.Model(htap.Example1SQL)
	if err != nil {
		t.Fatalf("Model: %v", err)
	}
	return &m.Pair
}

func TestComputeDiffStructure(t *testing.T) {
	pair := examplePair(t)
	d := ComputeDiff(pair)
	// TP has nested loops only; AP has hash joins only
	onlyTP := strings.Join(d.OnlyInTP, ",")
	onlyAP := strings.Join(d.OnlyInAP, ",")
	if !strings.Contains(onlyTP, "Nested loop") {
		t.Errorf("OnlyInTP = %v", d.OnlyInTP)
	}
	if !strings.Contains(onlyAP, "hash join") && !strings.Contains(onlyAP, "Hash") {
		t.Errorf("OnlyInAP = %v", d.OnlyInAP)
	}
	// the incomparable-cost ratio DBG-PT computes anyway
	if d.CostRatio < 10 {
		t.Errorf("cost ratio = %v, expected to be huge (and meaningless)", d.CostRatio)
	}
}

func TestComputeDiffCounts(t *testing.T) {
	tp := &plan.Node{Op: plan.OpTableScan, Engine: plan.TP, Cost: 10, Rows: 5}
	ap := &plan.Node{Op: plan.OpHashAggregate, Engine: plan.AP, Cost: 100, Rows: 1,
		Children: []*plan.Node{{Op: plan.OpTableScan, Engine: plan.AP, Cost: 90, Rows: 5}}}
	d := ComputeDiff(&plan.Pair{TP: tp, AP: ap})
	if d.OpCountDelta["Table Scan"] != 0 {
		t.Errorf("Table Scan delta = %d", d.OpCountDelta["Table Scan"])
	}
	if d.OpCountDelta["Aggregate"] != 1 {
		t.Errorf("Aggregate delta = %d", d.OpCountDelta["Aggregate"])
	}
	if len(d.OnlyInAP) != 1 || d.OnlyInAP[0] != "Aggregate" {
		t.Errorf("OnlyInAP = %v", d.OnlyInAP)
	}
	if d.CostRatio != 10 {
		t.Errorf("cost ratio = %v", d.CostRatio)
	}
}

func TestExplainProducesUngroundedOutput(t *testing.T) {
	pair := examplePair(t)
	ex := New(llm.Doubao())
	out, err := ex.Explain(pair)
	if err != nil {
		t.Fatal(err)
	}
	if out.Response.Text == "" || out.Response.None {
		t.Fatalf("DBG-PT should always produce text: %+v", out.Response)
	}
	// DBG-PT receives no execution result and no knowledge
	if strings.Contains(out.Prompt, "result:") {
		t.Error("DBG-PT prompt must not contain the execution result")
	}
	if strings.Contains(out.Prompt, "KNOWLEDGE") {
		t.Error("DBG-PT prompt must not contain retrieved knowledge")
	}
	// it does carry the structural diff it computed
	if !strings.Contains(out.Prompt, "Structural differences") {
		t.Error("diff section missing from DBG-PT prompt")
	}
}

func TestDBGPTExhibitsColumnarOveremphasis(t *testing.T) {
	pair := examplePair(t)
	out, err := New(llm.Doubao()).Explain(pair)
	if err != nil {
		t.Fatal(err)
	}
	lower := strings.ToLower(out.Response.Text)
	if !strings.Contains(lower, "column-oriented storage") {
		t.Errorf("columnar overemphasis expected in: %q", out.Response.Text)
	}
}

func TestDeterministicExplanations(t *testing.T) {
	pair := examplePair(t)
	ex := New(llm.ChatGPT4())
	a, err := ex.Explain(pair)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ex.Explain(pair)
	if err != nil {
		t.Fatal(err)
	}
	if a.Response.Text != b.Response.Text {
		t.Error("DBG-PT must be deterministic for identical plans")
	}
}
