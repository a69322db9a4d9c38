// Package prompt implements the paper's prompt engineering (§V, Table I):
// a three-part structured prompt — background information, task
// description, and additional user-provided context — followed by the
// retrieved KNOWLEDGE entries and the QUESTION. The rendered text uses
// stable section markers so the (simulated) LLM can consume it the way a
// real LLM consumes the paper's prompt.
package prompt

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"

	"htapxplain/internal/knowledge"
	"htapxplain/internal/plan"
)

// Section markers in the rendered prompt.
const (
	MarkerBackground = "=== BACKGROUND ==="
	MarkerTask       = "=== TASK ==="
	MarkerUserCtx    = "=== ADDITIONAL USER CONTEXT ==="
	MarkerKnowledge  = "=== KNOWLEDGE"
	MarkerQuestion   = "=== QUESTION ==="
	// MarkerPrevAnswer and MarkerFollowUp frame the conversational
	// follow-up exchanges (§VI-B).
	MarkerPrevAnswer = "=== PREVIOUS ANSWER ==="
	MarkerFollowUp   = "=== FOLLOW-UP QUESTION ==="
)

// GuardrailSentence is the cost-comparison prohibition the paper found
// necessary (§V): engine cost estimates use different units and must not
// be compared.
const GuardrailSentence = "Note that the optimizers for TP and AP engines are distinct, " +
	"leading to different execution plans. Therefore, you are not allowed to compare " +
	"the cost estimates of the execution plans from TP and AP engines."

// Question is the new query the user asks about.
type Question struct {
	SQL        string
	TPPlanJSON string
	APPlanJSON string
	Winner     plan.Engine
	Speedup    float64
}

// Builder assembles prompts.
type Builder struct {
	// SchemaSummary is injected into the background section.
	SchemaSummary string
	// DatasetDescription, e.g. "TPC-H, 100GB".
	DatasetDescription string
	// IncludeGuardrail controls the cost-comparison prohibition
	// (the ablation bench flips this off).
	IncludeGuardrail bool
	// IncludeRAG controls the retriever framing and the "return None"
	// instruction. The §VI-D fair comparison "removed RAG-related
	// context but retained the same plan details" — that ablation sets
	// this false.
	IncludeRAG bool
	// UserContext is the optional third prompt part (e.g. "an additional
	// index has been created on c_phone").
	UserContext string
}

// NewBuilder returns a builder with the paper's defaults.
func NewBuilder(schemaSummary string) *Builder {
	return &Builder{
		SchemaSummary:      schemaSummary,
		DatasetDescription: "TPC-H default schema, 100GB of data",
		IncludeGuardrail:   true,
		IncludeRAG:         true,
	}
}

// Build renders the full prompt: three engineered parts, then the
// retrieved knowledge, then the question — Prefix(hits) with q's QUESTION
// section appended (see Compose). Pass no hits for the RAG-free ablation
// (the DBG-PT-fair comparison in §VI-D).
func (b *Builder) Build(hits []knowledge.Hit, q Question) string {
	return Compose(b.Prefix(hits), q)
}

// Prefix renders everything before the QUESTION: the background, the task,
// the user context and one KNOWLEDGE section per hit. It depends on the
// builder and the hits only, so one rendering serves every question asked
// against the same hits.
func (b *Builder) Prefix(hits []knowledge.Hit) string {
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

	for i, h := range hits {
		fmt.Fprintf(&sb, "%s %d ===\n", MarkerKnowledge, i+1)
		fmt.Fprintf(&sb, "query: %s\n", singleLine(h.Entry.SQL))
		fmt.Fprintf(&sb, "tp_plan: %s\n", h.Entry.TPPlanJSON)
		fmt.Fprintf(&sb, "ap_plan: %s\n", h.Entry.APPlanJSON)
		fmt.Fprintf(&sb, "result: %s faster (%.1fx)\n", h.Entry.Winner, h.Entry.Speedup)
		fmt.Fprintf(&sb, "similarity_distance: %.4f\n", h.Distance)
		fmt.Fprintf(&sb, "explanation: %s\n", h.Entry.Explanation)
	}
	return sb.String()
}

// Compose returns prefix followed by q's QUESTION section, the only part
// of a prompt that depends on the question, in one allocation.
func Compose(prefix string, q Question) string {
	sql := singleLine(q.SQL)
	var num [24]byte
	speedup := strconv.AppendFloat(num[:0], q.Speedup, 'f', 1, 64) // what %.1f prints
	winner := q.Winner.String()
	var sb strings.Builder
	sb.Grow(len(prefix) + len(MarkerQuestion) + len(sql) + len(q.TPPlanJSON) + len(q.APPlanJSON) +
		len(winner) + len(speedup) + len("\nquery: \ntp_plan: \nap_plan: \nresult:  faster (x)\n"))
	sb.WriteString(prefix)
	sb.WriteString(MarkerQuestion)
	sb.WriteString("\nquery: ")
	sb.WriteString(sql)
	sb.WriteString("\ntp_plan: ")
	sb.WriteString(q.TPPlanJSON)
	sb.WriteString("\nap_plan: ")
	sb.WriteString(q.APPlanJSON)
	sb.WriteString("\nresult: ")
	sb.WriteString(winner)
	sb.WriteString(" faster (")
	sb.Write(speedup)
	sb.WriteString("x)\n")
	return sb.String()
}

// singleLine collapses whitespace so multi-line SQL stays on one prompt
// line (the prompt's fields are line-oriented): strings.Fields joined by
// single spaces. SQL that is single-spaced ASCII already is returned as it
// is.
func singleLine(s string) string {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r' ||
			c == ' ' && (i == 0 || i == len(s)-1 || s[i-1] == ' ') {
			return strings.Join(strings.Fields(s), " ")
		}
	}
	return s
}
