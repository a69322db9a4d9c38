// Package expert is the reproduction's stand-in for the paper's human
// database experts. It has two
// roles: (1) an oracle that derives the ground-truth performance factors
// for a query from its plans, facts and modeled execution — producing the
// curated explanations stored in the knowledge base — and (2) a grader
// that assesses a generated explanation for correctness and completeness
// exactly along the paper's rubric (accurate / less precise / None).
package expert

import (
	"fmt"
	"strings"

	"htapxplain/internal/htap"
	"htapxplain/internal/optimizer"
	"htapxplain/internal/plan"
)

// Factor identifies one causal performance factor distinguishing the two
// engines on a query. Factors are the shared vocabulary between expert
// explanations, the simulated LLM, and the grader.
type Factor string

const (
	// FactorHashJoinAdvantage — AP's hash joins beat TP's nested loops on
	// large qualifying sets.
	FactorHashJoinAdvantage Factor = "hash-join-advantage"
	// FactorNoUsableIndex — a selective predicate cannot use any index
	// (function-wrapped column or no index exists), forcing TP to scan.
	FactorNoUsableIndex Factor = "no-usable-index"
	// FactorIndexPointLookup — TP answers with a few index point lookups.
	FactorIndexPointLookup Factor = "index-point-lookup"
	// FactorIndexOrderTopN — TP serves ORDER BY ... LIMIT directly from
	// index order, reading only ~LIMIT rows.
	FactorIndexOrderTopN Factor = "index-order-topn"
	// FactorColumnarScan — AP reads only the referenced columns of wide
	// tables.
	FactorColumnarScan Factor = "columnar-scan"
	// FactorLargeScanVolume — the qualifying data volume is large enough
	// that AP's parallel columnar scan dominates.
	FactorLargeScanVolume Factor = "large-scan-volume"
	// FactorStartupOverhead — the query is tiny; AP's distributed startup
	// dominates and TP wins.
	FactorStartupOverhead Factor = "startup-overhead"
	// FactorSortVsIndexOrder — AP must materialize and sort what TP reads
	// pre-sorted from an index.
	FactorSortVsIndexOrder Factor = "sort-vs-index-order"
	// FactorDeepOffset — a large OFFSET forces both engines to produce
	// and discard many rows, eroding Top-N shortcuts.
	FactorDeepOffset Factor = "deep-offset"
	// FactorAggregationPushdown — AP's hash aggregation digests large
	// intermediate results efficiently.
	FactorAggregationPushdown Factor = "aggregation-pushdown"
)

// markerPhrases are the canonical phrases whose presence in an explanation
// signals that it asserts the factor. Both the expert explanation writer
// and the grader use them, so grading measures substance, not phrasing
// luck.
var markerPhrases = map[Factor][]string{
	FactorHashJoinAdvantage:   {"hash join", "nested loop"},
	FactorNoUsableIndex:       {"no index", "cannot use", "index cannot be used", "without an index", "disables index"},
	FactorIndexPointLookup:    {"point lookup", "index lookup", "directly locates"},
	FactorIndexOrderTopN:      {"index order", "already sorted", "pre-sorted"},
	FactorColumnarScan:        {"column-oriented", "columnar", "only the referenced columns", "only relevant columns"},
	FactorLargeScanVolume:     {"large", "millions of rows", "data volume"},
	FactorStartupOverhead:     {"startup", "launch overhead", "small query"},
	FactorSortVsIndexOrder:    {"must sort", "full sort", "sort the entire"},
	FactorDeepOffset:          {"offset", "discard"},
	FactorAggregationPushdown: {"hash aggregate", "aggregation", "aggregates"},
}

// MarkerPhrases returns the canonical phrases for a factor (read-only).
func MarkerPhrases(f Factor) []string { return markerPhrases[f] }

// Truth is the oracle's ground-truth judgment for one query.
type Truth struct {
	Winner plan.Engine
	// Primary is the dominant causal factor; Secondary are contributing
	// factors a complete explanation may also mention.
	Primary   Factor
	Secondary []Factor
	// NoIndexUsable marks that TP had no usable index for the selective
	// predicate — used to flag false index claims in generated text.
	NoIndexUsable bool
	// FuncWrappedColumn is the indexed-but-unusable column name, if any.
	FuncWrappedColumn string
	Speedup           float64
}

// AllFactors returns primary plus secondary factors.
func (t Truth) AllFactors() []Factor {
	return append([]Factor{t.Primary}, t.Secondary...)
}

// Oracle derives ground truth and writes expert explanations.
type Oracle struct {
	sys *htap.System
}

// NewOracle returns an oracle bound to the HTAP system.
func NewOracle(sys *htap.System) *Oracle { return &Oracle{sys: sys} }

// Judge derives the ground-truth factors for a query from its plan pair
// and modeled execution result.
func (o *Oracle) Judge(m *plan.Modeled) (Truth, error) {
	facts, err := optimizer.Facts(o.sys.Cat, m.SQL)
	if err != nil {
		return Truth{}, fmt.Errorf("expert: analyzing query: %w", err)
	}
	return judge(m, facts), nil
}

// judge is the pure rule set (unit-testable without a system).
func judge(m *plan.Modeled, facts *optimizer.QueryFacts) Truth {
	tpSum := plan.Summarize(m.Pair.TP)
	t := Truth{Winner: m.Winner, Speedup: m.Speedup()}

	// index usability facts
	selectiveNoIndex := false
	for _, tf := range facts.Tables {
		if tf.FuncWrappedIndexedColumn != "" {
			t.FuncWrappedColumn = tf.FuncWrappedIndexedColumn
			selectiveNoIndex = true
		}
		if tf.HasPredicate && tf.SargableIndexColumn == "" && tf.FilterSel < 0.5 {
			selectiveNoIndex = true
		}
	}
	t.NoIndexUsable = selectiveNoIndex

	if m.Winner == plan.AP {
		switch {
		case tpSum.Joins() > 0:
			t.Primary = FactorHashJoinAdvantage
			if selectiveNoIndex {
				t.Secondary = append(t.Secondary, FactorNoUsableIndex)
			}
			if facts.HasAggregate || facts.HasGroupBy {
				t.Secondary = append(t.Secondary, FactorAggregationPushdown)
			}
			t.Secondary = append(t.Secondary, FactorColumnarScan)
		case facts.HasOrderBy && tpSum.Sorts+tpSum.TopNs > 0 && !tpSum.UsesIndex:
			t.Primary = FactorLargeScanVolume
			t.Secondary = append(t.Secondary, FactorColumnarScan)
			if facts.HasOrderBy {
				t.Secondary = append(t.Secondary, FactorSortVsIndexOrder)
			}
		case facts.HasAggregate || facts.HasGroupBy:
			// no joins: the dominant cause is the big parallel columnar
			// scan; the aggregation itself is a contributing factor
			if facts.EstScannedRows > 500_000 {
				t.Primary = FactorLargeScanVolume
				t.Secondary = append(t.Secondary, FactorAggregationPushdown, FactorColumnarScan)
			} else {
				t.Primary = FactorAggregationPushdown
				t.Secondary = append(t.Secondary, FactorColumnarScan, FactorLargeScanVolume)
			}
			if selectiveNoIndex {
				t.Secondary = append(t.Secondary, FactorNoUsableIndex)
			}
		default:
			t.Primary = FactorLargeScanVolume
			t.Secondary = append(t.Secondary, FactorColumnarScan)
		}
		if facts.Offset > 100 {
			t.Secondary = append(t.Secondary, FactorDeepOffset)
		}
		return t
	}

	// TP wins
	switch {
	case facts.OrderByIndexedColumn != "" && facts.Limit >= 0:
		t.Primary = FactorIndexOrderTopN
		t.Secondary = append(t.Secondary, FactorSortVsIndexOrder)
		if facts.Offset > 100 {
			t.Secondary = append(t.Secondary, FactorDeepOffset)
		}
	case tpSum.IndexScans > 0 || tpSum.IndexLookups > 0:
		t.Primary = FactorIndexPointLookup
		t.Secondary = append(t.Secondary, FactorStartupOverhead)
	default:
		t.Primary = FactorStartupOverhead
	}
	return t
}

// Explain writes the expert-curated explanation for a judged query — the
// text stored in the knowledge base. It composes the canonical factor
// sentences (using the marker phrases) in a compact expert register, like
// the paper's Table III expert explanation.
func (o *Oracle) Explain(truth Truth) string {
	return ComposeExpert(truth)
}

// ComposeExpert renders an expert explanation from ground truth.
func ComposeExpert(truth Truth) string {
	w, l := "AP", "TP"
	if truth.Winner == plan.TP {
		w, l = "TP", "AP"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s is faster than %s because ", w, l)
	b.WriteString(factorSentence(truth.Primary, truth.Winner, truth.FuncWrappedColumn))
	for _, f := range truth.Secondary {
		b.WriteString(" Also, ")
		b.WriteString(factorSentence(f, truth.Winner, truth.FuncWrappedColumn))
	}
	return b.String()
}

// factorSentence renders one factor as an expert sentence containing its
// marker phrases.
func factorSentence(f Factor, winner plan.Engine, funcCol string) string {
	switch f {
	case FactorHashJoinAdvantage:
		return "TP has to use nested loop joins while AP uses hash join, which is far more efficient on large qualifying sets."
	case FactorNoUsableIndex:
		if funcCol != "" {
			return fmt.Sprintf("the selective predicate wraps %s in a function, which disables index usage, so there is no index TP can use for it.", funcCol)
		}
		return "there is no index available for the selective predicate, so TP cannot use an index and must scan."
	case FactorIndexPointLookup:
		return "TP answers with a handful of index lookups (point lookup via the primary key) that directly locates the rows."
	case FactorIndexOrderTopN:
		return "TP reads rows in index order, so the result is already sorted and only about LIMIT rows are fetched."
	case FactorColumnarScan:
		return "AP's column-oriented storage scans only the referenced columns, avoiding full-row reads."
	case FactorLargeScanVolume:
		return "the qualifying data volume is large (millions of rows), which AP's parallel columnar scan digests far faster."
	case FactorStartupOverhead:
		return "the query touches very little data, so AP's distributed startup overhead dominates while TP returns immediately (small query)."
	case FactorSortVsIndexOrder:
		return "AP must sort the entire qualifying set (full sort) where TP avoids sorting."
	case FactorDeepOffset:
		return "the large OFFSET forces the engine to produce and discard many rows before the first result."
	case FactorAggregationPushdown:
		return "AP's hash aggregates digest the large intermediate result efficiently (aggregation close to the scan)."
	default:
		return string(f) + "."
	}
}
