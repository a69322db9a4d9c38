package llm

import (
	"fmt"
	"slices"
	"strings"

	"htapxplain/internal/expert"
	"htapxplain/internal/plan"
	"htapxplain/internal/prompt"
)

// SimConfig parameterizes a simulated pre-trained model. The failure
// rates calibrate the *un-grounded* behaviour (no KNOWLEDGE in the
// prompt); with RAG grounding the model composes from retrieved expert
// explanations and the rates are irrelevant.
type SimConfig struct {
	ModelName string
	Seed      int64
	// CostComparisonRate is the probability of comparing cost estimates
	// despite the guardrail instruction (the paper observed DBG-PT
	// "still seems to rely on cost differences sometimes").
	CostComparisonRate float64
	// CostComparisonRateNoGuardrail applies when the prompt lacks the
	// prohibition (the paper observed pre-trained LLMs "often default to
	// directly comparing the plan costs").
	CostComparisonRateNoGuardrail float64
	// IndexMisattributionRate is the probability of crediting an index
	// that cannot actually be used (function-wrapped column).
	IndexMisattributionRate float64
	// MinGroundingWeight is the evidence threshold below which the model
	// returns None in RAG mode.
	MinGroundingWeight float64
}

// Doubao returns the simulated Doubao model with the paper-calibrated
// un-grounded failure rates.
func Doubao() *Sim {
	return NewSim(SimConfig{
		ModelName:                     "doubao-sim",
		Seed:                          11,
		CostComparisonRate:            0.15,
		CostComparisonRateNoGuardrail: 0.70,
		IndexMisattributionRate:       0.45,
		MinGroundingWeight:            0.35,
	})
}

// ChatGPT4 returns the simulated ChatGPT-4.0 model; slightly different
// style and rates (the paper observed "minimal differences in accuracy"
// between the two).
func ChatGPT4() *Sim {
	return NewSim(SimConfig{
		ModelName:                     "chatgpt4-sim",
		Seed:                          23,
		CostComparisonRate:            0.12,
		CostComparisonRateNoGuardrail: 0.65,
		IndexMisattributionRate:       0.40,
		MinGroundingWeight:            0.35,
	})
}

// Sim is a simulated pre-trained LLM.
type Sim struct {
	cfg SimConfig
}

// NewSim constructs a simulated model.
func NewSim(cfg SimConfig) *Sim { return &Sim{cfg: cfg} }

// Name returns the model name.
func (m *Sim) Name() string { return m.cfg.ModelName }

// Generate produces an explanation from a whole prompt: it is
// Prefill(text[:i]).Generate(text[i:]), where i is the start of the line
// that opens the QUESTION section (len(text) when there is none).
func (m *Sim) Generate(text string) (Response, error) {
	i := markerAt(text, prompt.MarkerQuestion)
	if i < 0 {
		i = len(text)
	}
	return m.Prefill(text[:i]).Generate(text[i:])
}

// Prefill reads a prompt's prefix — everything before its QUESTION — once:
// the guardrail and "return None" instructions, whether the user context
// mentions an index, and each KNOWLEDGE section's winner, evidence weight
// and the factors its explanation asserts. The result answers any number
// of questions asked after that prefix.
func (m *Sim) Prefill(prefix string) Prefill {
	p := &prefill{m: m, n: len(prefix)}
	p.readPrefix(prefix)
	return p
}

// prefill is a Sim's reading of a prompt prefix. It is immutable.
type prefill struct {
	m *Sim
	// n is the prefix's length, which the think time counts.
	n              int
	guardrail      bool
	instructedNone bool
	// ctxIndex reports that the user context mentions an index.
	ctxIndex  bool
	knowledge []knowledgeRead
}

// Generate answers the QUESTION section at the start of text and the
// follow-up turns after it. With KNOWLEDGE in the prefix it runs grounded
// (RAG) generation; otherwise it falls back to un-grounded priors with the
// documented failure modes.
func (p *prefill) Generate(text string) (Response, error) {
	q := readQuestion(text)
	var out string
	var none bool
	// a forward scan for the marker first: followUpQuestion's backward one
	// is slower, and almost every question has no follow-up
	var followUp string
	if strings.Contains(text, prompt.MarkerFollowUp) {
		followUp = followUpQuestion(text)
	}
	switch {
	case followUp != "":
		out = answerFollowUp(q, followUp)
	case len(p.knowledge) > 0:
		out, none = p.grounded(q)
	case p.instructedNone:
		// a RAG prompt whose retrieval produced nothing: the instruction
		// itself demands None
		out, none = "None", true
	default:
		out = p.ungrounded(q)
	}
	return Response{
		Text:      out,
		None:      none,
		ThinkTime: thinkLatency(p.n + len(text)),
		GenTime:   genLatency(len(out)),
	}, nil
}

// ---------------------------------------------------------------- grounded

// allFactors is the factor vocabulary the model can express; a
// knowledgeRead's factors bit i stands for allFactors[i].
var allFactors = [...]expert.Factor{
	expert.FactorHashJoinAdvantage, expert.FactorNoUsableIndex,
	expert.FactorIndexPointLookup, expert.FactorIndexOrderTopN,
	expert.FactorColumnarScan, expert.FactorLargeScanVolume,
	expert.FactorStartupOverhead, expert.FactorSortVsIndexOrder,
	expert.FactorDeepOffset, expert.FactorAggregationPushdown,
}

// aggregationBit is FactorAggregationPushdown's index in allFactors.
var aggregationBit = slices.Index(allFactors[:], expert.FactorAggregationPushdown)

// grounded composes an explanation from the retrieved expert knowledge:
// extract factors asserted by similar historical explanations, keep those
// applicable to the question's plans, and verbalize. Returns None when the
// applicable evidence is too weak — the paper's §III-B footnote semantics.
func (p *prefill) grounded(q parsedQuestion) (string, bool) {
	if !q.hasWinner {
		return "None", true
	}
	var scores [len(allFactors)]float64
	for _, k := range p.knowledge {
		w := k.weight
		if k.hasWinner && k.winner != q.winner {
			w *= 0.2
		}
		for b := range allFactors {
			if k.factors&(1<<b) != 0 {
				scores[b] += w
			}
		}
	}
	// filter by applicability to the question's own plans
	type scored struct {
		f expert.Factor
		s float64
	}
	var buf [len(allFactors)]scored
	applicable := buf[:0]
	for b, f := range allFactors { // deterministic order
		if scores[b] < 0.15 { // too weakly evidenced to assert
			continue
		}
		if factorApplies(f, q) {
			applicable = append(applicable, scored{f, scores[b]})
		}
	}
	if len(applicable) == 0 {
		return "None", true
	}
	// sort by score descending (stable: insertion order is deterministic)
	for i := 0; i < len(applicable); i++ {
		for j := i + 1; j < len(applicable); j++ {
			if applicable[j].s > applicable[i].s {
				applicable[i], applicable[j] = applicable[j], applicable[i]
			}
		}
	}
	// gate on the strongest single factor's evidence: one weakly-similar
	// neighbour asserting many factors is not corroboration
	if applicable[0].s < p.m.cfg.MinGroundingWeight {
		return "None", true
	}
	primary := applicable[0].f
	var secondary []expert.Factor
	for _, a := range applicable[1:] {
		if len(secondary) == 3 {
			break
		}
		secondary = append(secondary, a.f)
	}
	// the paper notes the LLM volunteered aggregation insights the
	// experts omitted — add that bonus observation when the plan shows a
	// grouped aggregation the retrieved knowledge also touched on
	if q.winner == plan.AP &&
		strings.Contains(q.lowerSQL, "group by") &&
		scores[aggregationBit] > 0 &&
		primary != expert.FactorAggregationPushdown &&
		!hasFactor(secondary, expert.FactorAggregationPushdown) && len(secondary) < 3 {
		secondary = append(secondary, expert.FactorAggregationPushdown)
	}
	return p.m.compose(q, primary, secondary), false
}

func hasFactor(fs []expert.Factor, f expert.Factor) bool {
	for _, x := range fs {
		if x == f {
			return true
		}
	}
	return false
}

// containsFactor checks whether the explanation text asserts the factor
// (marker-phrase vocabulary shared with the expert package).
func containsFactor(lowerText string, f expert.Factor) bool {
	for _, phrase := range expert.MarkerPhrases(f) {
		if strings.Contains(lowerText, phrase) {
			return true
		}
	}
	return false
}

// factorApplies checks the factor against the question's own surface
// features — the model will not assert a hash-join advantage for a plan
// pair with no joins, etc.
func factorApplies(f expert.Factor, q parsedQuestion) bool {
	tp, ap, sql := q.lowerTP, q.lowerAP, q.lowerSQL
	switch f {
	case expert.FactorHashJoinAdvantage:
		return q.winner == plan.AP && strings.Contains(tp, "nested loop") && strings.Contains(ap, "hash join")
	case expert.FactorNoUsableIndex:
		return q.winner == plan.AP && (hasFunctionWrappedPredicate(sql) || !strings.Contains(tp, "index"))
	case expert.FactorIndexPointLookup:
		return q.winner == plan.TP && strings.Contains(tp, "index")
	case expert.FactorIndexOrderTopN:
		return q.winner == plan.TP && strings.Contains(tp, "index order")
	case expert.FactorColumnarScan:
		return q.winner == plan.AP
	case expert.FactorLargeScanVolume:
		return q.winner == plan.AP
	case expert.FactorStartupOverhead:
		return q.winner == plan.TP
	case expert.FactorSortVsIndexOrder:
		return strings.Contains(sql, "order by")
	case expert.FactorDeepOffset:
		return strings.Contains(sql, "offset")
	case expert.FactorAggregationPushdown:
		return q.winner == plan.AP && (strings.Contains(ap, "aggregate") || strings.Contains(sql, "group by"))
	default:
		return false
	}
}

// hasFunctionWrappedPredicate detects function-wrapped predicate columns
// in the SQL surface (SUBSTRING(...), UPPER(...), ... in WHERE).
func hasFunctionWrappedPredicate(lowerSQL string) bool {
	for _, fn := range []string{"substring(", "substr(", "upper(", "lower(", "length("} {
		if strings.Contains(lowerSQL, fn) {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------- style

// compose renders the grounded explanation in the model's fluent register.
// Marker phrases from the factor vocabulary are embedded so the grader
// measures substance.
func (m *Sim) compose(q parsedQuestion, primary expert.Factor, secondary []expert.Factor) string {
	w, l := "AP", "TP"
	if q.winner == plan.TP {
		w, l = "TP", "AP"
	}
	var b strings.Builder
	style := hash01(m.cfg.Seed, q.sql)
	if style < 0.5 {
		fmt.Fprintf(&b, "%s is faster due to %s", w, fluent(primary, q))
	} else {
		fmt.Fprintf(&b, "%s is faster here primarily because %s", w, fluent(primary, q))
	}
	for i, f := range secondary {
		switch i {
		case 0:
			b.WriteString(" In addition, ")
		case 1:
			b.WriteString(" Moreover, ")
		default:
			b.WriteString(" Finally, ")
		}
		b.WriteString(fluent(f, q))
	}
	fmt.Fprintf(&b, " These factors combined give %s a significant advantage for this query, while %s's plan characteristics work against it at this data size.", w, l)
	return b.String()
}

// fluent renders one factor in LLM style (contains marker phrases).
func fluent(f expert.Factor, q parsedQuestion) string {
	switch f {
	case expert.FactorHashJoinAdvantage:
		return "its use of hash joins, which are highly efficient for handling large datasets, whereas TP's nested loop joins process the inner side once per outer row and scale poorly."
	case expert.FactorNoUsableIndex:
		if hasFunctionWrappedPredicate(q.lowerSQL) {
			return "the selective predicate applies a function to the column, which disables index usage — there is no index the TP engine can use, forcing full scans."
		}
		return "there is no index available for the selective predicate, so the TP engine cannot use an index and must scan the table."
	case expert.FactorIndexPointLookup:
		return "TP directly locates the matching rows with a few index lookups (a point lookup on the key), touching almost no data."
	case expert.FactorIndexOrderTopN:
		return "TP reads rows in index order, so results arrive already sorted and only about LIMIT rows are ever fetched."
	case expert.FactorColumnarScan:
		return "its column-oriented storage scans only the referenced columns and applies filters before joining, which is particularly effective on wide tables."
	case expert.FactorLargeScanVolume:
		return "the qualifying data volume is large — millions of rows — which AP's parallel columnar scans digest far faster than row-at-a-time processing."
	case expert.FactorStartupOverhead:
		return "the query touches very little data, so AP's distributed startup overhead dominates its runtime while TP answers this small query immediately."
	case expert.FactorSortVsIndexOrder:
		return "AP must sort the entire qualifying set (a full sort) before the limit applies."
	case expert.FactorDeepOffset:
		return "the large OFFSET forces the engine to produce and discard many rows before returning anything."
	case expert.FactorAggregationPushdown:
		return "AP's hash aggregates digest large intermediate results efficiently, keeping aggregation close to the scan."
	default:
		return string(f) + "."
	}
}

// ---------------------------------------------------------------- ungrounded

// ungrounded is the no-RAG fallback: explain from surface features with
// the documented pre-trained-LLM failure modes. This is the model the
// §VI-D comparison (and the guardrail ablation) exercises.
func (p *prefill) ungrounded(q parsedQuestion) string {
	m := p.m
	sql, tp, ap := q.lowerSQL, q.lowerTP, q.lowerAP

	// winner: use the stated result if present, otherwise guess with a
	// columnar-storage bias (the overemphasis failure mode)
	winner := plan.AP
	if q.hasWinner {
		winner = q.winner
	} else {
		// heuristic guess with a columnar bias: aggregation-shaped queries
		// are presumed AP; index-bearing non-aggregates sometimes TP
		aggregate := strings.Contains(sql, "count(") || strings.Contains(sql, "sum(") ||
			strings.Contains(sql, "avg(") || strings.Contains(sql, "group by")
		if !aggregate && strings.Contains(tp, "index") && hash01(m.cfg.Seed+1, q.sql) < 0.6 {
			winner = plan.TP
		}
	}
	w, l := "AP", "TP"
	if winner == plan.TP {
		w, l = "TP", "AP"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "The %s engine is faster in this case because ", w)
	if winner == plan.AP {
		// overemphasis on column-oriented storage as THE reason
		b.WriteString("it utilizes column-oriented storage, which efficiently scans large tables by only reading the required columns. ")
		if strings.Contains(ap, "hash join") {
			b.WriteString("Additionally, the AP engine uses hash joins, which are well-suited for joining large datasets. ")
		}
	} else {
		b.WriteString("its row-oriented storage retrieves complete rows directly")
		if strings.Contains(tp, "index") {
			b.WriteString(" and it can use the index")
		}
		b.WriteString(". ")
	}
	// failure mode: index misattribution on function-wrapped predicates,
	// when the prompt suggests an index exists on a predicate column (user
	// context like "an index has been created on c_phone", or index nodes
	// in the TP plan)
	if hasFunctionWrappedPredicate(sql) && (p.ctxIndex || strings.Contains(tp, "index")) &&
		hash01(m.cfg.Seed+2, q.sql) < m.cfg.IndexMisattributionRate {
		b.WriteString("Both engines likely benefit from the index on the filtered column; ")
		fmt.Fprintf(&b, "the %s engine's storage allows it to access and filter that column with less overhead. ", w)
	}
	// failure mode: cost comparison (rate depends on guardrail presence)
	costRate := m.cfg.CostComparisonRateNoGuardrail
	if p.guardrail {
		costRate = m.cfg.CostComparisonRate
	}
	if hash01(m.cfg.Seed+3, q.sql) < costRate {
		fmt.Fprintf(&b, "Comparing the costs, the %s plan shows a lower total cost than the %s plan, supporting this conclusion. ", w, l)
	}
	// failure mode: no context for relative values (OFFSET/LIMIT)
	if strings.Contains(sql, "offset") {
		b.WriteString("The OFFSET clause may or may not be large enough to impact plan efficiency. ")
	}
	fmt.Fprintf(&b, "In contrast, the %s engine's plan characteristics make table access more costly, so the %s engine delivers better performance for this query.", l, w)
	return b.String()
}
