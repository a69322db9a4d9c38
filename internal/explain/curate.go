package explain

import (
	"fmt"

	"htapxplain/internal/expert"
	"htapxplain/internal/htap"
	"htapxplain/internal/knowledge"
	"htapxplain/internal/plan"
	"htapxplain/internal/treecnn"
	"htapxplain/internal/workload"
)

// Label plans every query on both engines and models the result. The
// labelled set is what the whole set-up reads — Samples for router
// training, CurateKB for the knowledge base — so no query is planned twice.
func Label(sys *htap.System, queries []workload.Query) ([]*plan.Modeled, error) {
	out := make([]*plan.Modeled, 0, len(queries))
	for _, q := range queries {
		m, err := sys.Model(q.SQL)
		if err != nil {
			return nil, fmt.Errorf("explain: labeling %q: %w", q.SQL, err)
		}
		out = append(out, m)
	}
	return out, nil
}

// Samples are the router's training pairs for a labelled set: the plan
// pair, labelled with the modeled winner.
func Samples(labelled []*plan.Modeled) []treecnn.Sample {
	out := make([]treecnn.Sample, len(labelled))
	for i, m := range labelled {
		out[i] = treecnn.Sample{Pair: &m.Pair, Label: m.Winner}
	}
	return out
}

// CurateKB builds the paper's small curated knowledge base (§IV: "we
// selectively include only 20 representative queries"): it judges the
// labelled candidates with the expert oracle and selects a
// target-sized subset that covers the (winner, primary factor) space as
// evenly as possible — the "representative queries" selection the paper
// performs manually.
func CurateKB(router *treecnn.Router, oracle *expert.Oracle,
	candidates []*plan.Modeled, target int) (*knowledge.Base, error) {
	kb := knowledge.New(treecnn.PairDim)
	type judged struct {
		m     *plan.Modeled
		truth expert.Truth
	}
	var pool []judged
	for _, m := range candidates {
		truth, err := oracle.Judge(m)
		if err != nil {
			return nil, fmt.Errorf("curate: judging %q: %w", m.SQL, err)
		}
		pool = append(pool, judged{m: m, truth: truth})
	}
	// round-robin over (winner, primary) classes for coverage
	type class struct {
		winner  plan.Engine
		primary expert.Factor
	}
	byClass := map[class][]judged{}
	var order []class
	for _, j := range pool {
		c := class{j.truth.Winner, j.truth.Primary}
		if _, seen := byClass[c]; !seen {
			order = append(order, c)
		}
		byClass[c] = append(byClass[c], j)
	}
	added := 0
	for round := 0; added < target; round++ {
		progressed := false
		for _, c := range order {
			if added >= target {
				break
			}
			items := byClass[c]
			if round >= len(items) {
				continue
			}
			j := items[round]
			e := NewEntry(router, j.m, oracle.Explain(j.truth), j.truth.AllFactors(), false)
			if _, err := kb.Add(e); err != nil {
				return nil, fmt.Errorf("curate: adding entry: %w", err)
			}
			added++
			progressed = true
		}
		if !progressed {
			break // pool exhausted
		}
	}
	return kb, nil
}

// NewEntry builds the knowledge-base record for one expert-explained
// query: the pair's encoding under router, both plans, the modeled result
// and the expert's text. It is the one writer of knowledge.Entry in the
// pipeline — curation, expert feedback and the service's re-curation all
// store what it returns (§IV: "we also provide the interface for the
// knowledge base to accept new queries with experts explanations").
func NewEntry(router *treecnn.Router, m *plan.Modeled, explanation string,
	factors []expert.Factor, corrected bool) knowledge.Entry {
	return knowledge.Entry{
		SQL:         m.SQL,
		Encoding:    router.EmbedPair(&m.Pair),
		TPPlanJSON:  m.Pair.TP.ExplainJSON(),
		APPlanJSON:  m.Pair.AP.ExplainJSON(),
		Winner:      m.Winner,
		Speedup:     m.Speedup(),
		Explanation: explanation,
		Factors:     factors,
		Corrected:   corrected,
	}
}
