package llm

import (
	"math"
	"strconv"
	"strings"

	"htapxplain/internal/plan"
	"htapxplain/internal/prompt"
)

// knowledgeRead is one KNOWLEDGE section as the prefill reads it: what
// grounded generation needs of it, with nothing left to parse or fold.
type knowledgeRead struct {
	// weight is the section's evidence weight before the winner check: its
	// rank's 1/(rank+1), sharply discounted by its similarity distance —
	// the encoding is not perfect (§VI-B), and the model should not trust
	// far neighbours. The exponential kernel rescales the compressed
	// cosine-distance range of the router's tanh embeddings.
	weight    float64
	winner    plan.Engine
	hasWinner bool
	// factors has bit i set when the explanation asserts allFactors[i].
	factors uint16
}

// parsedQuestion is the QUESTION section. The lower-cased forms are what
// the surface-feature checks match against, folded once per question.
type parsedQuestion struct {
	sql       string
	tpPlan    string
	apPlan    string
	lowerSQL  string
	lowerTP   string
	lowerAP   string
	winner    plan.Engine
	hasWinner bool
}

// readPrefix reads a prompt's prefix: the instructions, the user context
// and each KNOWLEDGE section, as the prompt builder renders them.
func (p *prefill) readPrefix(text string) {
	p.guardrail = strings.Contains(text, "not allowed to compare")
	p.instructedNone = strings.Contains(text, "return None")
	if i := markerAt(text, prompt.MarkerUserCtx); i >= 0 {
		ctx := section(text[i+len(prompt.MarkerUserCtx):])
		p.ctxIndex = strings.Contains(strings.ToLower(ctx), "index")
	}
	for rest := text; ; {
		i := markerAt(rest, prompt.MarkerKnowledge)
		if i < 0 {
			return
		}
		rest = rest[i+len(prompt.MarkerKnowledge):]
		sec := section(rest)
		rest = rest[len(sec):]

		k := knowledgeRead{weight: 1.0 / float64(len(p.knowledge)+1)}
		if d, err := strconv.ParseFloat(fieldValue(sec, "similarity_distance:"), 64); err == nil {
			k.weight *= math.Exp(-d / 0.08)
		}
		if w, ok := parseResult(fieldValue(sec, "result:")); ok {
			k.winner, k.hasWinner = w, true
		}
		lowerExpl := strings.ToLower(fieldValue(sec, "explanation:"))
		for b, f := range allFactors {
			if containsFactor(lowerExpl, f) {
				k.factors |= 1 << b
			}
		}
		p.knowledge = append(p.knowledge, k)
	}
}

// readQuestion reads the QUESTION section at the start of text.
func readQuestion(text string) parsedQuestion {
	q := parsedQuestion{
		sql:    fieldValue(text, "query:"),
		tpPlan: fieldValue(text, "tp_plan:"),
		apPlan: fieldValue(text, "ap_plan:"),
	}
	q.lowerSQL = strings.ToLower(q.sql)
	q.lowerTP = strings.ToLower(q.tpPlan)
	q.lowerAP = strings.ToLower(q.apPlan)
	q.winner, q.hasWinner = parseResult(fieldValue(text, "result:"))
	return q
}

// markerAt is the index of the first line of text that starts with
// marker, or -1. Only a marker at a line start opens a section: the prompt
// builder writes every marker there and keeps SQL on one line, so a marker
// inside a query's literal is text, not structure.
func markerAt(text, marker string) int {
	for from := 0; ; {
		i := strings.Index(text[from:], marker)
		if i < 0 {
			return -1
		}
		if i += from; i == 0 || text[i-1] == '\n' {
			return i
		}
		from = i + 1
	}
}

// lastMarkerAt is the index of the last line of text that starts with
// marker, or -1.
func lastMarkerAt(text, marker string) int {
	for end := len(text); ; {
		i := strings.LastIndex(text[:end], marker)
		if i <= 0 || text[i-1] == '\n' {
			return i
		}
		end = i + len(marker) - 1
	}
}

// section is the start of text up to the next line that starts with a
// marker ("==="), or all of it.
func section(text string) string {
	if i := strings.Index(text, "\n==="); i >= 0 {
		return text[:i+1]
	}
	return text
}

// fieldValue extracts "<key> value" up to end of line within a section.
func fieldValue(section, key string) string {
	i := strings.Index(section, key)
	if i < 0 {
		return ""
	}
	rest := section[i+len(key):]
	if j := strings.IndexByte(rest, '\n'); j >= 0 {
		rest = rest[:j]
	}
	return strings.TrimSpace(rest)
}

// parseResult reads "AP faster (12.3x)" / "TP faster ...", in any case.
func parseResult(s string) (plan.Engine, bool) {
	switch {
	case len(s) >= 2 && strings.EqualFold(s[:2], "ap"):
		return plan.AP, true
	case len(s) >= 2 && strings.EqualFold(s[:2], "tp"):
		return plan.TP, true
	default:
		return plan.TP, false
	}
}
