package explain

import (
	"fmt"
	"strings"

	"htapxplain/internal/expert"
	"htapxplain/internal/plan"
)

// SlowReport answers the paper's motivating question — "Why does my query
// run so slowly?" (§I, and §VII's future-work goal) — for one engine's
// plan, independent of the cross-engine comparison: it names the losing
// engine's bottleneck operators and offers actionable advice. It builds on
// the same factor machinery as the comparative explainer, so the two
// answers stay consistent.
type SlowReport struct {
	SQL     string
	Engine  plan.Engine // the engine being diagnosed (the slower one)
	Faster  plan.Engine
	Speedup float64
	// Bottlenecks lists the diagnosed slow spots, most dominant first.
	Bottlenecks []string
	// Advice lists concrete remediations.
	Advice []string
	// Text is the assembled user-facing answer.
	Text string
}

// WhySlow diagnoses why the query is slow on its slower engine: it judges
// the ground-truth factors from the plan pair and its modeled result and
// renders the losing side's bottleneck story.
func (e *Explainer) WhySlow(m *plan.Modeled) (*SlowReport, error) {
	truth, err := e.Oracle.Judge(m)
	if err != nil {
		return nil, fmt.Errorf("explain: whyslow: %w", err)
	}
	return buildSlowReport(m, truth), nil
}

// buildSlowReport is the pure renderer (unit-testable without a system).
func buildSlowReport(m *plan.Modeled, truth expert.Truth) *SlowReport {
	slower := plan.TP
	slowerPlan := m.Pair.TP
	if truth.Winner == plan.TP {
		slower = plan.AP
		slowerPlan = m.Pair.AP
	}
	r := &SlowReport{
		SQL: m.SQL, Engine: slower, Faster: truth.Winner, Speedup: truth.Speedup,
	}
	sum := plan.Summarize(slowerPlan)
	seenB, seenA := map[string]bool{}, map[string]bool{}
	for _, f := range truth.AllFactors() {
		b, a := slowSide(f, slower, sum, truth)
		if b != "" && !seenB[b] {
			seenB[b] = true
			r.Bottlenecks = append(r.Bottlenecks, b)
		}
		if a != "" && !seenA[a] {
			seenA[a] = true
			r.Advice = append(r.Advice, a)
		}
	}
	if len(r.Bottlenecks) == 0 {
		r.Bottlenecks = append(r.Bottlenecks,
			fmt.Sprintf("the %s plan simply does more per-row work than the alternative at this data size", slower))
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "Your query is %.1fx slower on the %s engine. ", truth.Speedup, slower)
	sb.WriteString("The dominant reasons: ")
	sb.WriteString(strings.Join(r.Bottlenecks, "; "))
	sb.WriteString(".")
	if len(r.Advice) > 0 {
		sb.WriteString(" What you can do: ")
		sb.WriteString(strings.Join(r.Advice, "; "))
		sb.WriteString(".")
	}
	fmt.Fprintf(&sb, " Routing this query to the %s engine avoids the problem entirely.", truth.Winner)
	r.Text = sb.String()
	return r
}

// slowSide renders one ground-truth factor from the slow engine's point
// of view, with remediation advice.
func slowSide(f expert.Factor, slower plan.Engine, sum plan.Summary, truth expert.Truth) (bottleneck, advice string) {
	switch f {
	case expert.FactorHashJoinAdvantage:
		return fmt.Sprintf("%d nested-loop join(s) re-visit the inner side once per outer row, which scales poorly on the large qualifying set", sum.NestedLoopJoins),
			"reduce the qualifying set before the join with a more selective indexed predicate"
	case expert.FactorNoUsableIndex:
		if truth.FuncWrappedColumn != "" {
			return fmt.Sprintf("the selective predicate wraps %s in a function, so its index cannot be used and the table is scanned", truth.FuncWrappedColumn),
				fmt.Sprintf("rewrite the predicate as direct comparisons on %s (no function), or add a derived column with an index", truth.FuncWrappedColumn)
		}
		return "the selective predicate has no index, forcing a full scan",
			"add a secondary index on the filtered column"
	case expert.FactorIndexPointLookup, expert.FactorStartupOverhead:
		if slower == plan.AP {
			return "the query touches almost no data, so the distributed engine's startup overhead dominates its runtime",
				"route small point queries to the row engine"
		}
		return "", ""
	case expert.FactorIndexOrderTopN, expert.FactorSortVsIndexOrder:
		if slower == plan.AP {
			return "the entire qualifying set is materialized and sorted before the LIMIT applies",
				"route index-ordered Top-N queries to the row engine, which reads pre-sorted rows"
		}
		return "an explicit sort of the qualifying set precedes the LIMIT", ""
	case expert.FactorColumnarScan:
		if slower == plan.TP {
			return "full rows are read even though only a few columns are referenced", ""
		}
		return "", ""
	case expert.FactorLargeScanVolume:
		if slower == plan.TP {
			return "millions of rows are processed one at a time on a single node", ""
		}
		return "", ""
	case expert.FactorDeepOffset:
		return "the large OFFSET forces the engine to produce and discard many rows first",
			"use keyset pagination (WHERE key > last_seen ORDER BY key LIMIT n) instead of OFFSET"
	case expert.FactorAggregationPushdown:
		if slower == plan.TP {
			return "the aggregation digests a large intermediate result row by row", ""
		}
		return "", ""
	default:
		return "", ""
	}
}
