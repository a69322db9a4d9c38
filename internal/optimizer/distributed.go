// Distributed (shard-aware) planning: routing analysis that decides
// whether a statement pins to one shard or scatters, which tables must
// move through an exchange (shuffle/broadcast) to make the per-shard join
// local, and fragment planning that splits a scatter query into a
// shard-local partial plan plus the coordinator's final gather/merge
// stage.
//
// The split reuses the single-node planner wholesale: a fragment is just
// PlanAP with (a) exchange leaves standing in for non-local tables and
// (b) the aggregate flipped into Partial mode (or a Top-N/limit
// pre-reduction for plain selects). The final stage is the same finish()
// tail — merge aggregate, ordering, limit, projection — applied on top of
// the gather that owns the fragments.
package optimizer

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"htapxplain/internal/catalog"
	"htapxplain/internal/exec"
	"htapxplain/internal/plan"
	"htapxplain/internal/sqlparser"
	"htapxplain/internal/value"
)

// PartitionView tells the distributed planner how tables are laid out
// without importing the shard package: PartitionColumn returns a table's
// hash-partition key column, or ok=false when the table is replicated to
// every shard.
type PartitionView interface {
	PartitionColumn(table string) (string, bool)
}

// PinnedTable is one hash-partitioned table referenced by a statement and
// whether its partition key is fixed by an equality predicate.
type PinnedTable struct {
	Binding string
	Table   string
	Column  string      // partition-key column
	Key     value.Value // the pinned literal when Pinned
	Slot    int         // the pinned literal's slot: a bound vector's key
	Pinned  bool
}

// TableMove says how one table's rows reach the shard fragments that join
// against them: either broadcast (every fragment sees the full filtered
// row set) or shuffled by ShuffleCol (rows land on the shard whose anchor
// partition they can join). Preds are the table's own filter conjuncts,
// applied at the sending scan so only useful rows cross the exchange.
type TableMove struct {
	Binding    string
	Table      string
	Broadcast  bool
	ShuffleCol string // column of Binding routed on when !Broadcast
	Preds      []sqlparser.Expr
}

// DistDecision is the routing analysis of one SELECT: every partitioned
// table it touches (with pin status) and the exchange moves a scatter
// execution needs. The shard coordinator turns pinned keys into shard
// numbers — if every partitioned table pins to the same shard the whole
// statement routes there; otherwise it scatters.
type DistDecision struct {
	Partitioned []PinnedTable
	Moves       []TableMove
}

// AllPinned reports whether every partitioned table's key is fixed by an
// equality predicate (no partitioned tables counts: a replicated-only
// query runs anywhere).
func (d *DistDecision) AllPinned() bool {
	for _, t := range d.Partitioned {
		if !t.Pinned {
			return false
		}
	}
	return true
}

// AnalyzeDist classifies a SELECT against the partition layout. It binds
// the statement, qualifying its unqualified column references in place,
// so a parse must not be shared with concurrent planning until it has
// been bound once; a bound statement is read-only to every later bind.
func AnalyzeDist(cat *catalog.Catalog, sel *sqlparser.Select, pv PartitionView) (*DistDecision, error) {
	a, err := bind(cat, sel)
	if err != nil {
		return nil, err
	}
	d := &DistDecision{}
	var parted []boundTable
	for _, t := range a.tables {
		pcol, ok := pv.PartitionColumn(t.meta.Name)
		if !ok {
			continue // replicated everywhere — never moves, never pins
		}
		parted = append(parted, t)
		pt := PinnedTable{Binding: t.binding, Table: t.meta.Name, Column: pcol}
		if key, ok := t.fold.col(pcol).pin(); ok {
			pt.Key, pt.Slot, pt.Pinned = key.V, key.Slot, true
		}
		d.Partitioned = append(d.Partitioned, pt)
	}
	d.Moves = resolveMoves(a, parted, pv)
	return d, nil
}

// resolveMoves decides, greedily and largest-first, which partitioned
// tables stay local to their own shard (the anchor set) and which must
// move. The largest table anchors; another table stays local when an
// equi-join links both partition keys (co-partitioned), shuffles by its
// join column when it joins an anchored table's partition key (rows
// re-align to the owning shard), and broadcasts otherwise. Broadcasting
// against disjoint anchor partitions produces no duplicates: each row
// joins only the anchor rows its shard owns.
func resolveMoves(a *analysis, parted []boundTable, pv PartitionView) []TableMove {
	if len(parted) <= 1 {
		return nil
	}
	sort.SliceStable(parted, func(i, j int) bool {
		if parted[i].meta.Rows != parted[j].meta.Rows {
			return parted[i].meta.Rows > parted[j].meta.Rows
		}
		return parted[i].binding < parted[j].binding
	})
	pcolOf := func(t boundTable) string {
		c, _ := pv.PartitionColumn(t.meta.Name)
		return c
	}
	anchored := map[string]string{strings.ToLower(parted[0].binding): pcolOf(parted[0])}
	var moves []TableMove
	for _, t := range parted[1:] {
		bind := strings.ToLower(t.binding)
		tp := pcolOf(t)
		local := false
		shuffleCol := ""
		for _, jp := range a.joinPreds {
			tCol, aCol, aBind, ok := joinSides(jp, bind)
			if !ok {
				continue
			}
			apcol, isAnchor := anchored[aBind]
			if !isAnchor || !strings.EqualFold(aCol, apcol) {
				continue // only joins against an anchor's partition key align shards
			}
			if strings.EqualFold(tCol, tp) {
				local = true
				break
			}
			if shuffleCol == "" {
				shuffleCol = tCol
			}
		}
		switch {
		case local:
			anchored[bind] = tp
		case shuffleCol != "":
			moves = append(moves, TableMove{Binding: t.binding, Table: t.meta.Name,
				ShuffleCol: shuffleCol, Preds: t.preds})
		default:
			moves = append(moves, TableMove{Binding: t.binding, Table: t.meta.Name,
				Broadcast: true, Preds: t.preds})
		}
	}
	return moves
}

// joinSides orients an equi-join conjunct around binding: it returns
// binding's column, the other side's column and (lowercased) binding.
func joinSides(jp joinPred, binding string) (tCol, oCol, oBind string, ok bool) {
	switch {
	case strings.EqualFold(jp.aBind, binding):
		return jp.aCol, jp.bCol, strings.ToLower(jp.bBind), true
	case strings.EqualFold(jp.bBind, binding):
		return jp.bCol, jp.aCol, strings.ToLower(jp.aBind), true
	}
	return "", "", "", false
}

// MoveScanSelect synthesizes the sending-side scan for a table move:
// SELECT * FROM table AS binding WHERE <the table's own conjuncts>. Each
// shard plans it against local storage; the union of all shards' outputs
// is the full filtered row set. The Select shares Preds AST nodes with
// the routed statement, which are bound already, so planning it writes
// none of them.
func MoveScanSelect(m TableMove) *sqlparser.Select {
	return &sqlparser.Select{
		Items: []sqlparser.SelectItem{{Star: true}},
		From:  []sqlparser.TableRef{{Name: m.Table, Alias: m.Binding}},
		Where: sqlparser.AndAll(m.Preds),
		Limit: -1,
	}
}

// PlanFragment plans one shard's half of a scatter SELECT — a partial
// aggregate, or a Top-N/limit pre-reduction of the join tree — and adds it
// to the gather g its rows feed, returning its EXPLAIN tree. moved names
// the (lowercased) bindings whose rows reach the fragment through an
// exchange rather than from local storage. For the first fragment added it
// also returns the coordinator's half over g (merge aggregate / ordering /
// limit / projection), which is the same whichever shard's plan builds it,
// as the scatter's plan, short of its EXPLAIN tree and DOP; for the others
// final is nil. Like every planner entry point it binds the statement,
// so every shard can plan one parse in turn.
func (p *Planner) PlanFragment(sel *sqlparser.Select, moved map[string]bool, g *exec.Gather) (explain *plan.Node, final *PhysPlan, err error) {
	a, err := bind(p.Cat, sel)
	if err != nil {
		return nil, nil, err
	}
	a.moved = moved
	shape := apShape()
	b, err := p.apJoinTree(a)
	if err != nil {
		return nil, nil, err
	}
	if b, err = filterOthers(a, b, plan.AP, apFilterPerRow); err != nil {
		return nil, nil, err
	}
	var root exec.Operator
	if sel.HasAggregate() || len(sel.GroupBy) > 0 {
		explain, root, err = fragmentAgg(a, shape, b, g)
	} else {
		explain, root, err = fragmentPlain(a, shape, b, g)
	}
	if root == nil || err != nil {
		return explain, nil, err
	}
	return explain, physPlan(a, plan.AP, built{op: root}, 0), nil
}

// addFragment hands a fragment's built tree to its gather with the usual
// DOP choice — each shard picks parallelism from its own chunk supply —
// and reports whether it is the gather's first.
func addFragment(g *exec.Gather, b built) (first bool) {
	dop := chooseDOP(b.parChunks)
	if dop > 1 && !exec.CanParallelize(b.op) {
		dop = 1
	}
	g.Frags = append(g.Frags, exec.Fragment{Root: b.op, DOP: dop})
	return len(g.Frags) == 1
}

// fragmentAgg splits an aggregation: the shard half is the planner's own
// HashAggregate flipped into Partial mode (so folding stored chunks and
// morsel parallelism keep working), the final half a Merge-mode aggregate
// over the gathered partial states followed by the usual tail.
func fragmentAgg(a *analysis, shape engineShape, b built, g *exec.Gather) (*plan.Node, exec.Operator, error) {
	ab, err := buildAggregate(a, shape, b)
	if err != nil {
		return nil, nil, err
	}
	ha, ok := ab.op.(*exec.HashAggregate)
	if !ok {
		return nil, nil, fmt.Errorf("optimizer: aggregate fragment root is %T, want *exec.HashAggregate", ab.op)
	}
	finalOut := ha.Out
	nGroups := len(finalOut) - len(ha.Aggs)
	partial := make(exec.Schema, 0, nGroups+2*len(ha.Aggs))
	partial = append(partial, finalOut[:nGroups]...)
	for i := range ha.Aggs {
		// state columns are typed loosely: the values carry their own kind
		// (a MIN over strings ships string states) and nothing recompiles
		// expressions against a partial schema
		partial = append(partial,
			exec.Col{Name: fmt.Sprintf("__p%d_state", i), Type: catalog.TypeFloat},
			exec.Col{Name: fmt.Sprintf("__p%d_count", i), Type: catalog.TypeInt})
	}
	ha.Partial = true
	ha.Out = partial

	if !addFragment(g, ab) {
		return ab.node, nil, nil
	}
	groups := make([]exec.Evaluator, nGroups)
	for i := range groups {
		groups[i] = exec.ColumnEval(i)
	}
	final, err := finalTail(a, shape, built{
		op: &exec.HashAggregate{Child: g, Groups: groups, Aggs: ha.Aggs,
			Out: finalOut, Merge: true},
		node: &plan.Node{Op: plan.OpHashAggregate, Engine: plan.AP,
			Cost: shape.costAgg(ab.rows), Rows: ab.rows},
		rows: ab.rows,
	}, true)
	return ab.node, final, err
}

// fragmentPlain handles scatter selects with no aggregation: the fragment
// ships join-tree rows (pre-reduced to the first Limit+Offset rows in the
// final order when a bound exists) and the final stage re-orders, limits
// and projects.
func fragmentPlain(a *analysis, shape engineShape, b built, g *exec.Gather) (*plan.Node, exec.Operator, error) {
	sel := a.sel
	fb := b
	if sel.Limit >= 0 {
		// the fragment keeps LIMIT+OFFSET rows and skips none; the final
		// stage applies the offset
		n, slots := sel.Limit+sel.Offset, exec.CountSlots{N: [2]int{sel.LimitSlot, sel.OffsetSlot}}
		if len(sel.OrderBy) > 0 {
			keys, err := orderKeys(a, b.op.Schema(), false)
			if err != nil {
				return nil, nil, err
			}
			fb = built{
				op: &exec.TopNOp{Child: b.op, Keys: keys, N: n, Slots: slots},
				node: &plan.Node{Op: plan.OpTopN, Engine: plan.AP,
					Cost: b.node.Cost + shape.costTopN(b.rows, n),
					Rows: math.Max(1, float64(n)), Children: []*plan.Node{b.node}},
				rows: math.Max(1, float64(n)), parChunks: b.parChunks,
			}
		} else {
			fb = built{
				op: &exec.LimitOp{Child: b.op, N: n, Slots: slots},
				node: &plan.Node{Op: plan.OpLimit, Engine: plan.AP,
					Cost: b.node.Cost, Rows: math.Max(1, float64(n)),
					Children: []*plan.Node{b.node}},
				rows: math.Max(1, float64(n)), parChunks: b.parChunks,
			}
		}
	}
	if !addFragment(g, fb) {
		return fb.node, nil, nil
	}
	final, err := finalTail(a, shape, built{op: g, rows: fb.rows,
		node: &plan.Node{Op: plan.OpTableScan, Engine: plan.AP, Rows: fb.rows,
			Relation: "gather"}}, false)
	return fb.node, final, err
}

// finalTail applies the coordinator-side ordering/limit/projection, the
// same sequence finish uses after aggregation.
func finalTail(a *analysis, shape engineShape, fb built, agged bool) (exec.BatchOperator, error) {
	sel := a.sel
	var err error
	if len(sel.OrderBy) > 0 {
		fb, err = buildOrdering(a, shape, fb, agged)
		if err != nil {
			return nil, err
		}
	} else if sel.Limit >= 0 {
		fb = buildLimit(sel, shape, fb)
	}
	if agged {
		fb, err = projectAggOutput(a, fb)
	} else {
		fb, err = projectPlain(a, fb)
	}
	if err != nil {
		return nil, err
	}
	return fb.op, nil
}
