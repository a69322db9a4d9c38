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

// Label executes every query on both engines. The results are the labelled
// set the whole set-up reads — Samples for router training, CurateKB for
// the knowledge base — so no query is executed twice.
func Label(sys *htap.System, queries []workload.Query) ([]*htap.Result, error) {
	out := make([]*htap.Result, 0, len(queries))
	for _, q := range queries {
		res, err := sys.Run(q.SQL)
		if err != nil {
			return nil, fmt.Errorf("explain: labeling %q: %w", q.SQL, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// Samples are the router's training pairs for labelled executions: the
// plan pair, labelled with the modeled winner.
func Samples(labelled []*htap.Result) []treecnn.Sample {
	out := make([]treecnn.Sample, len(labelled))
	for i, res := range labelled {
		out[i] = treecnn.Sample{Pair: &res.Pair, Label: res.Winner}
	}
	return out
}

// CurateKB builds the paper's small curated knowledge base (§IV: "we
// selectively include only 20 representative queries"): it judges the
// labelled candidate executions with the expert oracle and selects a
// target-sized subset that covers the (winner, primary factor) space as
// evenly as possible — the "representative queries" selection the paper
// performs manually.
func CurateKB(router *treecnn.Router, oracle *expert.Oracle,
	candidates []*htap.Result, target int) (*knowledge.Base, error) {
	kb := knowledge.New(treecnn.PairDim)
	type judged struct {
		res   *htap.Result
		truth expert.Truth
	}
	var pool []judged
	for _, res := range candidates {
		truth, err := oracle.Judge(res)
		if err != nil {
			return nil, fmt.Errorf("curate: judging %q: %w", res.SQL, err)
		}
		pool = append(pool, judged{res: res, truth: truth})
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
			if err := addEntry(kb, router, oracle, j.res, j.truth); err != nil {
				return nil, err
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

// addEntry encodes and stores one expert-explained execution.
func addEntry(kb *knowledge.Base, router *treecnn.Router, oracle *expert.Oracle,
	res *htap.Result, truth expert.Truth) error {
	enc := router.EmbedPair(&res.Pair)
	_, err := kb.Add(knowledge.Entry{
		SQL:         res.SQL,
		Encoding:    enc,
		TPPlanJSON:  res.Pair.TP.ExplainJSON(),
		APPlanJSON:  res.Pair.AP.ExplainJSON(),
		Winner:      res.Winner,
		Speedup:     res.Speedup(),
		Explanation: oracle.Explain(truth),
		Factors:     truth.AllFactors(),
	})
	if err != nil {
		return fmt.Errorf("curate: adding entry: %w", err)
	}
	return nil
}

// AddExecution is the KB's public ingestion interface (§IV: "we also
// provide the interface for the knowledge base to accept new queries with
// experts explanations").
func AddExecution(kb *knowledge.Base, router *treecnn.Router, res *htap.Result,
	explanation string, factors []expert.Factor) (int, error) {
	return kb.Add(knowledge.Entry{
		SQL:         res.SQL,
		Encoding:    router.EmbedPair(&res.Pair),
		TPPlanJSON:  res.Pair.TP.ExplainJSON(),
		APPlanJSON:  res.Pair.AP.ExplainJSON(),
		Winner:      res.Winner,
		Speedup:     res.Speedup(),
		Explanation: explanation,
		Factors:     factors,
	})
}
