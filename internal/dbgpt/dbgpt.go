// Package dbgpt reimplements the DBG-PT baseline (Giannakouris &
// Trummer, VLDB 2024) the paper compares against (§VI-D): an LLM-assisted
// query-plan regression debugger that explains performance differences by
// structurally diffing two plans and prompting an LLM — with no
// retrieval, no historical knowledge, and no engine-specific guardrails.
// DBG-PT was designed for plan pairs from the *same* optimizer; applied
// across HTAP engines it exhibits the four failure modes the paper
// documents: index misinterpretation, column-storage overemphasis,
// cost-estimate comparison, and no context for relative values
// (LIMIT/OFFSET magnitudes).
package dbgpt

import (
	"fmt"
	"slices"
	"strings"

	"htapxplain/internal/llm"
	"htapxplain/internal/plan"
	"htapxplain/internal/prompt"
)

// Diff is the structural plan-pair difference DBG-PT computes before
// prompting.
type Diff struct {
	// OpCountDelta maps operator display name → (count in AP − count in
	// TP).
	OpCountDelta map[string]int
	// OnlyInTP / OnlyInAP list operator types present in one plan only.
	OnlyInTP, OnlyInAP []string
	// CostRatio is AP root cost / TP root cost — DBG-PT computes it even
	// though the units are incomparable (failure mode #3).
	CostRatio float64
}

// ComputeDiff structurally diffs a plan pair.
func ComputeDiff(p *plan.Pair) Diff {
	count := func(n *plan.Node) map[string]int {
		m := map[string]int{}
		n.Visit(func(x *plan.Node) { m[x.Op.String()]++ })
		return m
	}
	tp, ap := count(p.TP), count(p.AP)
	d := Diff{OpCountDelta: map[string]int{}}
	for op, c := range ap {
		d.OpCountDelta[op] = c - tp[op]
		if tp[op] == 0 {
			d.OnlyInAP = append(d.OnlyInAP, op)
		}
	}
	for op, c := range tp {
		if _, ok := ap[op]; !ok {
			d.OpCountDelta[op] = -c
			d.OnlyInTP = append(d.OnlyInTP, op)
		}
	}
	slices.Sort(d.OnlyInTP)
	slices.Sort(d.OnlyInAP)
	if p.TP.Cost > 0 {
		d.CostRatio = p.AP.Cost / p.TP.Cost
	}
	return d
}

// Explainer is the DBG-PT pipeline: diff + un-grounded LLM prompt.
type Explainer struct {
	Model llm.Model
}

// New returns a DBG-PT explainer over the given model.
func New(model llm.Model) *Explainer { return &Explainer{Model: model} }

// Explanation is DBG-PT's output.
type Explanation struct {
	Diff     Diff
	Prompt   string
	Response llm.Response
}

// Explain produces DBG-PT's explanation for a plan pair. Per the paper's
// comparison protocol, only the plan details are provided — "without any
// historical query or expert explanation" — and no execution result.
func (e *Explainer) Explain(p *plan.Pair) (*Explanation, error) {
	d := ComputeDiff(p)
	var b strings.Builder
	b.WriteString("You are a query plan regression debugger. Compare the two execution plans below, ")
	b.WriteString("identify their structural differences, and explain which plan is likely faster and why.\n")
	// the paper gave DBG-PT the same cost-comparison prohibition ("despite
	// instructions to avoid comparing costs, DBG-PT still seems to rely on
	// cost differences sometimes")
	b.WriteString(prompt.GuardrailSentence)
	b.WriteString("\n")
	b.WriteString("Structural differences detected:\n")
	for _, op := range d.OnlyInTP {
		fmt.Fprintf(&b, "- operator %q appears only in plan 1 (TP)\n", op)
	}
	for _, op := range d.OnlyInAP {
		fmt.Fprintf(&b, "- operator %q appears only in plan 2 (AP)\n", op)
	}
	fmt.Fprintf(&b, "- cost ratio (plan 2 / plan 1): %.2f\n", d.CostRatio)
	b.WriteString("=== QUESTION ===\n")
	fmt.Fprintf(&b, "query: %s\n", p.SQL)
	fmt.Fprintf(&b, "tp_plan: %s\n", p.TP.ExplainJSON())
	fmt.Fprintf(&b, "ap_plan: %s\n", p.AP.ExplainJSON())
	promptText := b.String()

	resp, err := e.Model.Generate(promptText)
	if err != nil {
		return nil, fmt.Errorf("dbgpt: generation: %w", err)
	}
	return &Explanation{Diff: d, Prompt: promptText, Response: resp}, nil
}
