package llm

import (
	"strings"

	"htapxplain/internal/plan"
	"htapxplain/internal/prompt"
)

// followUpQuestion extracts the last follow-up question from a
// conversational prompt, or "" when the prompt is not conversational.
func followUpQuestion(text string) string {
	i := lastMarkerAt(text, prompt.MarkerFollowUp)
	if i < 0 {
		return ""
	}
	return strings.TrimSpace(section(text[i+len(prompt.MarkerFollowUp):]))
}

// answerFollowUp produces the in-depth conversational answer (§VI-B). It
// is grounded in the question's own surface features, reproducing the
// paper's example: asked why the predicate on customer does not benefit
// from the index on c_phone, the LLM explains that functions applied to
// indexed columns disable index usage.
func answerFollowUp(pq parsedQuestion, question string) string {
	q := strings.ToLower(question)
	sql := pq.lowerSQL
	switch {
	case strings.Contains(q, "index") && (hasFunctionWrappedPredicate(sql) ||
		strings.Contains(q, "substring") || strings.Contains(q, "function")):
		return "Many database systems cannot utilize indexes on columns when functions " +
			"like SUBSTRING are applied directly to the indexed column: the index orders " +
			"the original column values, not the function's output, so the engine cannot " +
			"navigate the index to the qualifying rows and falls back to scanning. " +
			"Rewriting the predicate as a range over the raw column (for example, " +
			"c_phone >= '20' AND c_phone < '21' for each code) would restore index eligibility."
	case strings.Contains(q, "index"):
		return "An index helps only when the predicate compares the indexed column " +
			"directly with values, and when the expected match count is small enough " +
			"that random row fetches beat a sequential scan. Otherwise the optimizer " +
			"correctly prefers scanning."
	case strings.Contains(q, "offset") || strings.Contains(q, "limit"):
		return "LIMIT bounds the rows returned, but OFFSET rows must still be produced " +
			"and discarded first. A small OFFSET is nearly free; a large one erodes the " +
			"Top-N shortcut because the engine does OFFSET+LIMIT worth of work before " +
			"returning anything — whether that matters depends on its magnitude relative " +
			"to the qualifying set."
	case strings.Contains(q, "cost"):
		return "The cost numbers in the two plans are computed by different optimizers " +
			"with different units and calibration, so they are not comparable across " +
			"engines; only within one engine's plan do relative costs mean anything."
	case strings.Contains(q, "hash join") || strings.Contains(q, "nested loop") || strings.Contains(q, "join"):
		return "A nested loop join re-visits the inner side once per outer row — ideal " +
			"when an index makes each visit a cheap point lookup, but quadratic without " +
			"one. A hash join builds a hash table on the smaller side once and probes it " +
			"per row of the larger side, which scales far better for large qualifying sets."
	case strings.Contains(q, "column") || strings.Contains(q, "storage"):
		return "Row-oriented storage lays each tuple out contiguously, making single-row " +
			"retrieval cheap; column-oriented storage lays each column out contiguously, " +
			"so analytical scans read only the referenced columns and vectorize well."
	default:
		w := "AP"
		if pq.hasWinner && pq.winner == plan.TP {
			w = "TP"
		}
		return "Based on the plans discussed above, the decisive characteristics are the " +
			"join methods, index usability and storage formats already covered; they are " +
			"why the " + w + " engine wins this query. Could you point at the specific " +
			"operator you would like unpacked further?"
	}
}
