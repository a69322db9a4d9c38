// Package plan defines the engine-neutral execution-plan tree produced by
// both the TP and AP optimizers, its JSON EXPLAIN rendering (matching the
// paper's Table II format: 'Node Type', 'Total Cost', 'Plan Rows',
// 'Relation Name', 'Plans'), and structural feature extraction used by the
// tree-CNN smart router and the expert oracle.
package plan

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"time"
)

// Engine identifies which HTAP engine a plan belongs to.
type Engine int

const (
	TP Engine = iota // row-oriented OLTP engine
	AP               // column-oriented OLAP engine
)

func (e Engine) String() string {
	if e == TP {
		return "TP"
	}
	return "AP"
}

// Op enumerates plan operator types. The display names match the paper's
// Table II EXPLAIN output.
type Op int

const (
	OpTableScan   Op = iota
	OpIndexScan      // ordered range/point access through an index
	OpIndexLookup    // per-row index probe (inner side of an index NLJ)
	OpFilter
	OpNestedLoopJoin
	OpHashJoin
	OpHashBuild // the 'Hash' build side below a hash join
	OpGroupAggregate
	OpHashAggregate // AP-style 'Aggregate'
	OpSort
	OpTopN
	OpLimit
	OpProject
)

// NumOps is the number of distinct operator types (tree-CNN one-hot width).
const NumOps = int(OpProject) + 1

func (o Op) String() string {
	switch o {
	case OpTableScan:
		return "Table Scan"
	case OpIndexScan:
		return "Index Scan"
	case OpIndexLookup:
		return "Index Lookup"
	case OpFilter:
		return "Filter"
	case OpNestedLoopJoin:
		return "Nested loop inner join"
	case OpHashJoin:
		return "Inner hash join"
	case OpHashBuild:
		return "Hash"
	case OpGroupAggregate:
		return "Group aggregate"
	case OpHashAggregate:
		return "Aggregate"
	case OpSort:
		return "Sort"
	case OpTopN:
		return "Top N"
	case OpLimit:
		return "Limit"
	case OpProject:
		return "Projection"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Node is one operator in a plan tree.
type Node struct {
	Op       Op
	Engine   Engine
	Cost     float64 // cumulative cost in the owning engine's (non-comparable) units
	Rows     float64 // estimated output cardinality
	Relation string  // base table name for scans
	Index    string  // index name for index scans/lookups
	// Condition is a human-readable predicate / join condition.
	Condition string
	// UsesIndex reports whether this operator exploits an ordered index
	// (index scans, index lookups, and index-order Top-N).
	UsesIndex bool
	Children  []*Node
}

// Visit walks the tree pre-order.
func (n *Node) Visit(f func(*Node)) {
	if n == nil {
		return
	}
	f(n)
	for _, c := range n.Children {
		c.Visit(f)
	}
}

// Count returns the number of nodes in the tree.
func (n *Node) Count() int {
	if n == nil {
		return 0
	}
	total := 0
	n.Visit(func(*Node) { total++ })
	return total
}

// Depth returns the height of the tree (1 for a leaf).
func (n *Node) Depth() int {
	if n == nil {
		return 0
	}
	max := 0
	for _, c := range n.Children {
		if d := c.Depth(); d > max {
			max = d
		}
	}
	return max + 1
}

// explainNode mirrors the paper's EXPLAIN JSON schema.
type explainNode struct {
	NodeType     string        `json:"Node Type"`
	TotalCost    float64       `json:"Total Cost"`
	PlanRows     float64       `json:"Plan Rows"`
	RelationName string        `json:"Relation Name,omitempty"`
	IndexName    string        `json:"Index Name,omitempty"`
	Condition    string        `json:"Condition,omitempty"`
	Plans        []explainNode `json:"Plans,omitempty"`
}

func (n *Node) toExplain() explainNode {
	e := explainNode{
		NodeType:     n.Op.String(),
		TotalCost:    round2(n.Cost),
		PlanRows:     round2(n.Rows),
		RelationName: n.Relation,
		IndexName:    n.Index,
		Condition:    n.Condition,
	}
	for _, c := range n.Children {
		e.Plans = append(e.Plans, c.toExplain())
	}
	return e
}

func round2(v float64) float64 {
	if v < 0 {
		return v
	}
	// keep small numbers precise, big numbers short — matches the paper's
	// Table II mix of 2.75 and 16500000.0
	return float64(int64(v*100+0.5)) / 100
}

// ExplainJSON renders the plan in the paper's Table II JSON format.
func (n *Node) ExplainJSON() string {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(n.toExplain()); err != nil {
		return fmt.Sprintf("explain error: %v", err)
	}
	return strings.TrimSpace(buf.String())
}

// ExplainIndentJSON renders the plan as indented JSON ("presented in JSON
// format for better readability", §VI-C).
func (n *Node) ExplainIndentJSON() string {
	b, err := json.MarshalIndent(n.toExplain(), "", "  ")
	if err != nil {
		return fmt.Sprintf("explain error: %v", err)
	}
	return string(b)
}

// String renders a compact indented text tree for logs and tests.
func (n *Node) String() string {
	var b strings.Builder
	var rec func(*Node, int)
	rec = func(x *Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(x.Op.String())
		if x.Relation != "" {
			fmt.Fprintf(&b, " on %s", x.Relation)
		}
		if x.Index != "" {
			fmt.Fprintf(&b, " via %s", x.Index)
		}
		fmt.Fprintf(&b, " (cost=%.2f rows=%.0f)", x.Cost, x.Rows)
		if x.Condition != "" {
			fmt.Fprintf(&b, " [%s]", x.Condition)
		}
		b.WriteByte('\n')
		for _, c := range x.Children {
			rec(c, depth+1)
		}
	}
	rec(n, 0)
	return strings.TrimRight(b.String(), "\n")
}

// Pair is the plan pair (one per engine) for a single query — the unit the
// knowledge base keys on.
type Pair struct {
	SQL string
	TP  *Node
	AP  *Node
}

// Modeled is a plan pair with its execution result as this reproduction
// has it: each engine's wall time modeled from its plan at the paper's
// deployment scale, and the engine the model says is faster. It is what
// the explanation pipeline is grounded in — labelling, curation, judging,
// explaining and the slow report all read a Modeled and nothing else —
// and it is built only by NewModeled, so Winner always follows from the
// two times.
type Modeled struct {
	Pair
	TPTime, APTime time.Duration
	Winner         Engine
}

// NewModeled pairs the plans with their modeled times and decides the
// winner: the engine with the lower time, TP on a tie.
func NewModeled(pair Pair, tpTime, apTime time.Duration) Modeled {
	m := Modeled{Pair: pair, TPTime: tpTime, APTime: apTime, Winner: AP}
	if tpTime <= apTime {
		m.Winner = TP
	}
	return m
}

// Speedup returns how many times faster the winner is.
func (m *Modeled) Speedup() float64 {
	slow, fast := m.TPTime, m.APTime
	if m.Winner == TP {
		slow, fast = m.APTime, m.TPTime
	}
	if fast <= 0 {
		return 1
	}
	return float64(slow) / float64(fast)
}

// Summary aggregates structural facts about one plan, consumed by the
// expert oracle, the DBG-PT baseline and prompt construction.
type Summary struct {
	Engine          Engine
	NestedLoopJoins int
	HashJoins       int
	IndexScans      int
	IndexLookups    int
	TableScans      int
	Filters         int
	Sorts           int
	TopNs           int
	Limits          int
	HashAggregates  int
	GroupAggregates int
	UsesIndex       bool
	ScannedRows     float64 // sum of leaf-scan estimated rows
	MaxRows         float64 // largest intermediate cardinality
	RootCost        float64
	Relations       []string
}

// Summarize extracts a Summary from a plan tree.
func Summarize(n *Node) Summary {
	s := Summary{Engine: n.Engine, RootCost: n.Cost}
	seen := map[string]bool{}
	n.Visit(func(x *Node) {
		switch x.Op {
		case OpNestedLoopJoin:
			s.NestedLoopJoins++
		case OpHashJoin:
			s.HashJoins++
		case OpIndexScan:
			s.IndexScans++
		case OpIndexLookup:
			s.IndexLookups++
		case OpTableScan:
			s.TableScans++
		case OpFilter:
			s.Filters++
		case OpSort:
			s.Sorts++
		case OpTopN:
			s.TopNs++
		case OpLimit:
			s.Limits++
		case OpHashAggregate:
			s.HashAggregates++
		case OpGroupAggregate:
			s.GroupAggregates++
		}
		if x.UsesIndex {
			s.UsesIndex = true
		}
		if x.Relation != "" && !seen[x.Relation] {
			seen[x.Relation] = true
			s.Relations = append(s.Relations, x.Relation)
			if len(x.Children) == 0 {
				s.ScannedRows += x.Rows
			}
		}
		if x.Rows > s.MaxRows {
			s.MaxRows = x.Rows
		}
	})
	return s
}

// Joins returns the total number of join operators in the summary.
func (s Summary) Joins() int { return s.NestedLoopJoins + s.HashJoins }
