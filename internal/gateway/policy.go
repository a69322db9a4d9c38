package gateway

import (
	"time"

	"htapxplain/internal/plan"
	"htapxplain/internal/sqlparser"
	"htapxplain/internal/treecnn"
)

// RouteInput is everything a routing policy may consult for one query:
// the parsed statement, both engines' explain trees, and the latency
// model's estimates for each. All fields are always populated — the
// gateway plans both engines before routing (the plans are cached, so on
// the warm path this costs nothing).
type RouteInput struct {
	Stmt   *sqlparser.Select
	Pair   *plan.Pair
	TPTime time.Duration
	APTime time.Duration
}

// RoutingPolicy picks the engine a query executes on. Implementations must
// be safe for concurrent use by multiple gateway workers.
type RoutingPolicy interface {
	Name() string
	Route(in RouteInput) plan.Engine
}

// ---------------------------------------------------------------- cost

// CostPolicy routes by the latency model: whichever engine the model says
// is faster wins. Against modeled ground truth this policy is exact by
// construction; it is the reference the rule-based and learned policies
// are measured against.
type CostPolicy struct{}

// Name implements RoutingPolicy.
func (CostPolicy) Name() string { return "cost" }

// Route implements RoutingPolicy.
func (CostPolicy) Route(in RouteInput) plan.Engine {
	return plan.NewModeled(plan.Pair{}, in.TPTime, in.APTime).Winner
}

// ---------------------------------------------------------------- rule

// RulePolicy is the static-heuristic baseline every HTAP deployment starts
// from: syntactic features of the statement decide the engine, with no
// plan or cost information. It intentionally mirrors the paper's framing —
// aggregates and wide joins look analytical, point lookups and index-order
// Top-N look transactional — and is wrong exactly where those heuristics
// are wrong (e.g. a tiny dimension join that AP's startup cost dominates).
type RulePolicy struct{}

// Name implements RoutingPolicy.
func (RulePolicy) Name() string { return "rule" }

// Route implements RoutingPolicy.
func (RulePolicy) Route(in RouteInput) plan.Engine {
	s := in.Stmt
	if len(s.From) >= 3 {
		return plan.AP
	}
	if s.HasAggregate() || len(s.GroupBy) > 0 {
		return plan.AP
	}
	// Remaining shapes: point/range selects and ORDER BY ... LIMIT paging,
	// which the row store serves through its indexes.
	return plan.TP
}

// ---------------------------------------------------------------- learned

// LearnedPolicy routes with the tree-CNN smart router Source currently
// returns: the trained classifier over plan-pair embeddings predicts the
// faster engine. Source is the retrain-swap hook: the explanation
// service's online maintenance loop atomically swaps in a freshly trained
// router, and every subsequent route sees it — no gateway restart, no
// lock; a fixed router is a closure returning it. Source must be safe for
// concurrent use (typically an atomic pointer load) and must never return
// nil. Router inference is read-only over the model weights, so
// concurrent Route calls are safe.
type LearnedPolicy struct {
	Source func() *treecnn.Router
}

// Name implements RoutingPolicy.
func (LearnedPolicy) Name() string { return "learned" }

// Route implements RoutingPolicy.
func (p LearnedPolicy) Route(in RouteInput) plan.Engine {
	eng, _ := p.Source().Predict(in.Pair)
	return eng
}
