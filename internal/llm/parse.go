package llm

import (
	"strconv"
	"strings"

	"htapxplain/internal/plan"
	"htapxplain/internal/prompt"
)

// parsedKnowledge is one KNOWLEDGE section as the model reads it.
type parsedKnowledge struct {
	sql         string
	winner      plan.Engine
	hasWinner   bool
	distance    float64
	explanation string
}

// parsedQuestion is the QUESTION section. The lower-cased forms are what
// the surface-feature checks match against, folded once per prompt.
type parsedQuestion struct {
	sql       string
	tpPlan    string
	apPlan    string
	lowerSQL  string
	lowerTP   string
	lowerAP   string
	winner    plan.Engine
	hasWinner bool
	speedup   float64
}

// parsedPrompt is the model's structured reading of the prompt text.
type parsedPrompt struct {
	guardrail bool
	userCtx   string
	knowledge []parsedKnowledge
	question  parsedQuestion
}

// parsePrompt splits the rendered prompt back into its sections.
func parsePrompt(text string) parsedPrompt {
	var p parsedPrompt
	p.guardrail = strings.Contains(text, "not allowed to compare")

	if i := strings.Index(text, prompt.MarkerUserCtx); i >= 0 {
		rest := text[i+len(prompt.MarkerUserCtx):]
		if j := strings.Index(rest, "==="); j >= 0 {
			p.userCtx = strings.TrimSpace(rest[:j])
		} else {
			p.userCtx = strings.TrimSpace(rest)
		}
	}

	// knowledge sections
	rest := text
	for {
		i := strings.Index(rest, prompt.MarkerKnowledge)
		if i < 0 {
			break
		}
		rest = rest[i+len(prompt.MarkerKnowledge):]
		end := strings.Index(rest, "=== ")
		section := rest
		if end >= 0 {
			section = rest[:end]
		}
		k := parsedKnowledge{
			sql:         fieldValue(section, "query:"),
			explanation: fieldValue(section, "explanation:"),
		}
		if w, ok := parseResult(fieldValue(section, "result:")); ok {
			k.winner, k.hasWinner = w, true
		}
		if d, err := strconv.ParseFloat(fieldValue(section, "similarity_distance:"), 64); err == nil {
			k.distance = d
		}
		p.knowledge = append(p.knowledge, k)
		if end < 0 {
			break
		}
		rest = rest[end:]
	}

	if i := strings.Index(text, prompt.MarkerQuestion); i >= 0 {
		section := text[i+len(prompt.MarkerQuestion):]
		p.question = parsedQuestion{
			sql:    fieldValue(section, "query:"),
			tpPlan: fieldValue(section, "tp_plan:"),
			apPlan: fieldValue(section, "ap_plan:"),
		}
		p.question.lowerSQL = strings.ToLower(p.question.sql)
		p.question.lowerTP = strings.ToLower(p.question.tpPlan)
		p.question.lowerAP = strings.ToLower(p.question.apPlan)
		if w, ok := parseResult(fieldValue(section, "result:")); ok {
			p.question.winner, p.question.hasWinner = w, true
		}
		if sp := fieldValue(section, "result:"); sp != "" {
			if j := strings.Index(sp, "("); j >= 0 {
				if k := strings.Index(sp[j:], "x)"); k >= 0 {
					if v, err := strconv.ParseFloat(sp[j+1:j+k], 64); err == nil {
						p.question.speedup = v
					}
				}
			}
		}
	}
	return p
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
