package prompt

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"htapxplain/internal/knowledge"
	"htapxplain/internal/plan"
)

// monolithicBuild is Build as one function, rendering the question with
// fmt and singleLine with strings.Fields: the prompt that Prefix + Compose
// must reproduce byte for byte.
func monolithicBuild(b *Builder, hits []knowledge.Hit, q Question) string {
	var sb strings.Builder
	sb.WriteString(MarkerBackground)
	sb.WriteString("\nWe are using RAG to assist database users in understanding query performance ")
	sb.WriteString("across different engines in our HTAP system - specifically, why one engine performs ")
	sb.WriteString("faster while the other is slower. The dataset is ")
	sb.WriteString(b.DatasetDescription)
	sb.WriteString(". Our HTAP system has two database engines, \"TP\" and \"AP\". ")
	sb.WriteString("The TP engine uses row-oriented storage, while the AP engine utilizes column-oriented storage. ")
	if b.IncludeGuardrail {
		sb.WriteString(GuardrailSentence)
	}
	sb.WriteString("\nSchema:\n")
	sb.WriteString(b.SchemaSummary)
	sb.WriteString("\n")
	sb.WriteString(MarkerTask)
	sb.WriteString("\nI will input the execution plans for the query from both the TP and AP engines. ")
	sb.WriteString("Evaluate the likely performance of each engine")
	if b.IncludeGuardrail {
		sb.WriteString(" without directly comparing the cost estimates")
	}
	sb.WriteString(". Focus on factors such as the join methods used, the storage formats ")
	sb.WriteString("(row-oriented vs. column-oriented), index utilization, and any potential implications ")
	sb.WriteString("of the execution plan characteristics on query performance. ")
	sb.WriteString("Explain which engine performs better for this specific query and why. ")
	if b.IncludeRAG {
		sb.WriteString("To assist you, a retriever has found relevant historical plans from ")
		sb.WriteString("our knowledge base with precise performance explanations from our experts. ")
		sb.WriteString("If the KNOWLEDGE does not contain the facts to answer the QUESTION return None.")
	}
	sb.WriteString("\n")
	if b.UserContext != "" {
		sb.WriteString(MarkerUserCtx)
		sb.WriteString("\n")
		sb.WriteString(b.UserContext)
		sb.WriteString("\n")
	}
	fields := func(s string) string { return strings.Join(strings.Fields(s), " ") }
	for i, h := range hits {
		fmt.Fprintf(&sb, "%s %d ===\n", MarkerKnowledge, i+1)
		fmt.Fprintf(&sb, "query: %s\n", fields(h.Entry.SQL))
		fmt.Fprintf(&sb, "tp_plan: %s\n", h.Entry.TPPlanJSON)
		fmt.Fprintf(&sb, "ap_plan: %s\n", h.Entry.APPlanJSON)
		fmt.Fprintf(&sb, "result: %s faster (%.1fx)\n", h.Entry.Winner, h.Entry.Speedup)
		fmt.Fprintf(&sb, "similarity_distance: %.4f\n", h.Distance)
		fmt.Fprintf(&sb, "explanation: %s\n", h.Entry.Explanation)
	}
	sb.WriteString(MarkerQuestion)
	sb.WriteString("\n")
	fmt.Fprintf(&sb, "query: %s\n", fields(q.SQL))
	fmt.Fprintf(&sb, "tp_plan: %s\n", q.TPPlanJSON)
	fmt.Fprintf(&sb, "ap_plan: %s\n", q.APPlanJSON)
	fmt.Fprintf(&sb, "result: %s faster (%.1fx)\n", q.Winner, q.Speedup)
	return sb.String()
}

// FuzzPromptSplit: for any SQL, plans, hits, distances and builder
// settings, Build is Prefix(hits) followed by the question Compose appends,
// and both equal the monolithic rendering; singleLine is strings.Fields
// joined by single spaces, whether or not it takes its shortcut.
func FuzzPromptSplit(f *testing.F) {
	f.Add("SELECT COUNT(*) FROM t", `{"Node Type":"Table Scan"}`, `{"Node Type":"Aggregate"}`,
		"SELECT 1", "hash join beats nested loop", 0.01, 12.3, true, true, true, "", uint8(2))
	f.Add("SELECT *\n\tFROM  t\r\nWHERE a = ' x '", "{}", "{}", "  SELECT 2 ", "index order",
		0.2, 1.0, false, false, true, "an index has been created on c_phone", uint8(1))
	f.Add(" lead", "", "", "trail ", "", math.Inf(1), math.Inf(1), false, true, false, "ctx", uint8(3))
	f.Add("a  b", "{}", "{}", " x　y", "e", math.NaN(), -0.04, true, false, false, "", uint8(0))
	f.Add("", "", "", "\xff\xfe bad utf8", "", -1.0, math.Inf(-1), true, true, true, "", uint8(1))
	f.Fuzz(func(t *testing.T, sql, tpJSON, apJSON, hitSQL, hitExpl string, dist, speedup float64,
		ap, guardrail, rag bool, userCtx string, nhits uint8) {
		b := NewBuilder("customer(15000 rows): c_custkey, c_phone")
		b.IncludeGuardrail, b.IncludeRAG, b.UserContext = guardrail, rag, userCtx
		winner := plan.TP
		if ap {
			winner = plan.AP
		}
		var hits []knowledge.Hit
		for i := 0; i < int(nhits%4); i++ {
			hits = append(hits, knowledge.Hit{Entry: &knowledge.Entry{
				SQL: hitSQL, TPPlanJSON: apJSON, APPlanJSON: tpJSON, Winner: 1 - winner,
				Speedup: speedup * float64(i+1), Explanation: hitExpl,
			}, Distance: dist * float64(i)})
		}
		q := Question{SQL: sql, TPPlanJSON: tpJSON, APPlanJSON: apJSON, Winner: winner, Speedup: speedup}

		got := b.Build(hits, q)
		if split := b.Prefix(hits) + Compose("", q); got != split {
			t.Fatalf("Build differs from Prefix + question:\n%q\n%q", got, split)
		}
		if want := monolithicBuild(b, hits, q); got != want {
			t.Fatalf("Build differs from the monolithic rendering:\n%q\n%q", got, want)
		}
		for _, s := range []string{sql, hitSQL, userCtx} {
			if got, want := singleLine(s), strings.Join(strings.Fields(s), " "); got != want {
				t.Fatalf("singleLine(%q) = %q, want %q", s, got, want)
			}
		}
	})
}

// TestSingleLineKeepsCleanSQL: SQL that is already one single-spaced line
// comes back as the same string, not a copy.
func TestSingleLineKeepsCleanSQL(t *testing.T) {
	for _, s := range []string{"", "SELECT COUNT(*) FROM t WHERE a = 'x y'", "x"} {
		if got := singleLine(s); got != s {
			t.Errorf("singleLine(%q) = %q", s, got)
		}
		if n := testing.AllocsPerRun(10, func() { singleLine(s) }); n != 0 {
			t.Errorf("singleLine(%q) allocates %.0f times, want 0", s, n)
		}
	}
}
