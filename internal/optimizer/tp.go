package optimizer

import (
	"fmt"
	"math"

	"htapxplain/internal/exec"
	"htapxplain/internal/plan"
	"htapxplain/internal/rowstore"
	"htapxplain/internal/sqlparser"
)

// TP cost model. Units are the row engine's internal "points" — small
// numbers, deliberately incomparable with the AP engine's units (the
// paper's instruction "you are not allowed to compare the cost estimates"
// exists precisely because of this).
const (
	tpScanPerRow   = 0.02   // heap row visited during a scan
	tpFilterPerRow = 0.004  // predicate evaluation
	tpProbeCost    = 0.25   // one index descent
	tpFetchPerRow  = 0.012  // row fetched through an index
	tpCmpPerPair   = 0.0004 // nested-loop comparison
	tpAggPerRow    = 0.006
	tpSortLogScale = 0.01
)

func tpShape() engineShape {
	return engineShape{
		engine: plan.TP,
		aggOp:  plan.OpGroupAggregate,
		costAgg: func(in float64) float64 {
			return in * tpAggPerRow
		},
		costSort: func(in float64) float64 {
			return in * tpSortLogScale * math.Max(1, math.Log2(math.Max(2, in)))
		},
		costTopN: func(in float64, k int64) float64 {
			return in * tpSortLogScale * math.Max(1, math.Log2(float64(k+2)))
		},
	}
}

// PlanTP plans the query for the row-oriented TP engine: index-aware
// access paths and nested-loop joins (index nested-loop when the inner
// join column is indexed). The TP engine has no hash join — the paper's
// Example 1 hinges on exactly that.
func (p *Planner) PlanTP(sel *sqlparser.Select) (*PhysPlan, error) {
	a, err := bind(p.Cat, sel)
	if err != nil {
		return nil, err
	}
	shape := tpShape()

	// special case: single-table Top-N served directly from index order
	if b, ok, err := p.tryIndexOrderTopN(a, shape); err != nil {
		return nil, err
	} else if ok {
		return finishTopNIndex(a, shape, b)
	}

	// access path + greedy nested-loop join order
	b, err := p.tpJoinTree(a)
	if err != nil {
		return nil, err
	}
	if b, err = filterOthers(a, b, plan.TP, tpFilterPerRow); err != nil {
		return nil, err
	}
	return finish(a, shape, b)
}

// tpAccess plans the TP access path for one table: an index scan when a
// sargable indexed predicate exists, otherwise a full scan; remaining
// predicates become a Filter above.
func (p *Planner) tpAccess(a *analysis, t boundTable) (built, error) {
	rt, ok := p.Row.Table(t.meta.Name)
	if !ok {
		return built{}, fmt.Errorf("optimizer: row store missing table %q", t.meta.Name)
	}
	preds := t.preds
	fullRows := float64(t.meta.Rows)
	filtered := estRows(t)

	var scan built
	if sarg, sel, ok := pickSargable(t.meta, &t.fold, true); ok {
		ix, _ := rt.IndexOn(sarg.column)
		ixMeta, _ := t.meta.IndexOn(sarg.column)
		var keys *exec.Lits
		if sarg.useKeys {
			keys = &sarg.keys
		}
		op := exec.NewRowIndexScan(rt, ix, t.binding, keys, sarg.lo.lit(), sarg.hi.lit())
		matched := math.Max(1, fullRows*sel)
		cost := tpProbeCost*math.Max(1, float64(len(sarg.keys.Values))) + matched*tpFetchPerRow
		scan = built{
			op: op,
			node: &plan.Node{Op: plan.OpIndexScan, Engine: plan.TP, Cost: cost,
				Rows: matched, Relation: t.meta.Name, Index: ixMeta.Name,
				Condition: condString(masked(preds, sarg.conjs(false, false), true)), UsesIndex: true},
			rows: matched,
		}
		// residual = all table preds but those the index read stands for:
		// a strict bound stays, since the index range is inclusive
		preds = masked(preds, sarg.conjs(true, false), false)
	} else {
		op := exec.NewRowTableScan(rt, t.binding)
		scan = built{
			op: op,
			node: &plan.Node{Op: plan.OpTableScan, Engine: plan.TP,
				Cost: fullRows * tpScanPerRow, Rows: fullRows, Relation: t.meta.Name},
			rows: fullRows,
		}
	}
	if len(preds) > 0 {
		pred, err := exec.Compile(sqlparser.AndAll(preds), scan.op.Schema())
		if err != nil {
			return built{}, err
		}
		scan = built{
			op: &exec.FilterOp{Child: scan.op, Pred: pred},
			node: &plan.Node{Op: plan.OpFilter, Engine: plan.TP,
				Cost: scan.node.Cost + scan.rows*tpFilterPerRow, Rows: math.Max(1, filtered),
				Condition: condString(preds), Children: []*plan.Node{scan.node}},
			rows: math.Max(1, filtered),
		}
	}
	return scan, nil
}

// tpJoinTree builds a left-deep nested-loop join tree greedily: start from
// the smallest filtered table, repeatedly attach the cheapest connected
// table, preferring index nested-loop when the inner join column is
// indexed.
func (p *Planner) tpJoinTree(a *analysis) (built, error) {
	type cand struct {
		t    boundTable
		rows float64
	}
	remaining := map[string]boundTable{}
	var start cand
	first := true
	for _, t := range a.tables {
		remaining[t.binding] = t
		r := estRows(t)
		if first || r < start.rows {
			start = cand{t: t, rows: r}
			first = false
		}
	}
	cur, err := p.tpAccess(a, start.t)
	if err != nil {
		return built{}, err
	}
	delete(remaining, start.t.binding)
	joined := map[string]bool{start.t.binding: true}
	usedJoin := map[int]bool{}

	for len(remaining) > 0 {
		// find connected candidates via unused join predicates
		bestBind := ""
		bestJPs := []int(nil)
		for i, jp := range a.joinPreds {
			if usedJoin[i] {
				continue
			}
			var inner string
			switch {
			case joined[jp.aBind] && !joined[jp.bBind]:
				inner = jp.bBind
			case joined[jp.bBind] && !joined[jp.aBind]:
				inner = jp.aBind
			default:
				continue
			}
			if bestBind == "" || inner < bestBind { // deterministic tie-break
				bestBind = inner
			}
		}
		if bestBind == "" {
			// cross join with the smallest remaining table (deterministic)
			for b := range remaining {
				if bestBind == "" || b < bestBind {
					bestBind = b
				}
			}
		}
		inner := remaining[bestBind]
		// collect every join predicate connecting inner to the joined set
		var jps []joinPred
		for i, jp := range a.joinPreds {
			if usedJoin[i] {
				continue
			}
			if (joined[jp.aBind] && jp.bBind == inner.binding) || (joined[jp.bBind] && jp.aBind == inner.binding) {
				jps = append(jps, jp)
				bestJPs = append(bestJPs, i)
			}
		}
		nxt, err := p.tpJoinStep(a, cur, inner, jps)
		if err != nil {
			return built{}, err
		}
		cur = nxt
		for _, i := range bestJPs {
			usedJoin[i] = true
		}
		joined[inner.binding] = true
		delete(remaining, inner.binding)
	}
	return cur, nil
}

// tpJoinStep joins cur with table inner using the given join predicates.
// It chooses index nested-loop when the inner side of the first join
// predicate has an index on its join column and that is cheaper.
func (p *Planner) tpJoinStep(a *analysis, cur built, inner boundTable, jps []joinPred) (built, error) {
	rt, ok := p.Row.Table(inner.meta.Name)
	if !ok {
		return built{}, fmt.Errorf("optimizer: row store missing table %q", inner.meta.Name)
	}
	innerFiltered := estRows(inner)
	joinSel := 1.0
	for _, jp := range jps {
		joinSel *= joinSelectivity(a, jp)
	}
	outRows := math.Max(1, cur.rows*innerFiltered*joinSel)

	// Option 1: index nested-loop join
	type idxJoin struct {
		jp      joinPred
		ix      *rowstore.Index
		ixName  string
		perCost float64
	}
	var bestIdx *idxJoin
	for _, jp := range jps {
		innerCol := jp.bCol
		if jp.bBind != inner.binding {
			innerCol = jp.aCol
		}
		ix, ok := rt.IndexOn(innerCol)
		if !ok {
			continue
		}
		ixMeta, _ := inner.meta.IndexOn(innerCol)
		matchPerProbe := float64(inner.meta.Rows) / ndvOf(inner.meta, innerCol)
		per := tpProbeCost + matchPerProbe*tpFetchPerRow
		if bestIdx == nil || per < bestIdx.perCost {
			bestIdx = &idxJoin{jp: jp, ix: ix, ixName: ixMeta.Name, perCost: per}
		}
	}

	// Option 2: plain nested-loop over inner's access path
	innerAccess, err := p.tpAccess(a, inner)
	if err != nil {
		return built{}, err
	}
	nljCost := cur.node.Cost + innerAccess.node.Cost + cur.rows*innerAccess.rows*tpCmpPerPair

	if bestIdx != nil {
		idxCost := cur.node.Cost + cur.rows*bestIdx.perCost
		if idxCost <= nljCost {
			// inner single-table predicates and the remaining join
			// predicates become the residual over the concat schema
			outerKeyCol, err := cur.op.Schema().Resolve(outerRefOf(bestIdx.jp, inner.binding))
			if err != nil {
				return built{}, err
			}
			var residualPreds []sqlparser.Expr
			residualPreds = append(residualPreds, inner.preds...)
			for _, jp := range jps {
				if jp != bestIdx.jp {
					residualPreds = append(residualPreds, jp.expr)
				}
			}
			var residual exec.Evaluator
			concat := cur.op.Schema().Concat(exec.TableSchema(inner.meta, inner.binding))
			if len(residualPreds) > 0 {
				residual, err = exec.Compile(sqlparser.AndAll(residualPreds), concat)
				if err != nil {
					return built{}, err
				}
			}
			op := exec.NewIndexNLJoin(cur.op, outerKeyCol, rt, bestIdx.ix, inner.binding, residual)
			lookup := &plan.Node{Op: plan.OpIndexLookup, Engine: plan.TP,
				Cost: bestIdx.perCost, Rows: float64(inner.meta.Rows) / ndvOf(inner.meta, innerColOf(bestIdx.jp, inner.binding)),
				Relation: inner.meta.Name, Index: bestIdx.ixName,
				Condition: bestIdx.jp.expr.String(), UsesIndex: true}
			node := &plan.Node{Op: plan.OpNestedLoopJoin, Engine: plan.TP,
				Cost: idxCost, Rows: outRows, UsesIndex: true,
				Condition: bestIdx.jp.expr.String(),
				Children:  []*plan.Node{cur.node, lookup}}
			return built{op: op, node: node, rows: outRows}, nil
		}
	}

	// plain nested loop with all join predicates as the join condition
	concat := cur.op.Schema().Concat(innerAccess.op.Schema())
	var pred exec.Evaluator
	var condExprs []sqlparser.Expr
	for _, jp := range jps {
		condExprs = append(condExprs, jp.expr)
	}
	if len(condExprs) > 0 {
		pred, err = exec.Compile(sqlparser.AndAll(condExprs), concat)
		if err != nil {
			return built{}, err
		}
	}
	op := exec.NewNestedLoopJoin(cur.op, innerAccess.op, pred)
	node := &plan.Node{Op: plan.OpNestedLoopJoin, Engine: plan.TP,
		Cost: nljCost, Rows: outRows, Condition: condString(condExprs),
		Children: []*plan.Node{cur.node, innerAccess.node}}
	return built{op: op, node: node, rows: outRows}, nil
}

// outerRefOf returns the join-pred column reference on the outer side.
func outerRefOf(jp joinPred, innerBind string) *sqlparser.ColumnRef {
	if jp.aBind == innerBind {
		return &sqlparser.ColumnRef{Table: jp.bBind, Column: jp.bCol}
	}
	return &sqlparser.ColumnRef{Table: jp.aBind, Column: jp.aCol}
}

// innerColOf returns the join-pred column name on the inner side.
func innerColOf(jp joinPred, innerBind string) string {
	if jp.aBind == innerBind {
		return jp.aCol
	}
	return jp.bCol
}

// tryIndexOrderTopN recognizes single-table ORDER BY <indexed col> LIMIT n
// queries, which TP can serve in index order without sorting — its
// signature Top-N advantage over AP.
func (p *Planner) tryIndexOrderTopN(a *analysis, shape engineShape) (built, bool, error) {
	sel := a.sel
	if len(a.tables) != 1 || sel.HasAggregate() || len(sel.GroupBy) > 0 ||
		len(sel.OrderBy) != 1 || sel.Limit < 0 {
		return built{}, false, nil
	}
	ref, ok := sel.OrderBy[0].Expr.(*sqlparser.ColumnRef)
	if !ok {
		return built{}, false, nil
	}
	t := a.tables[0]
	ixMeta, ok := t.meta.IndexOn(ref.Column)
	if !ok {
		return built{}, false, nil
	}
	rt, ok := p.Row.Table(t.meta.Name)
	if !ok {
		return built{}, false, fmt.Errorf("optimizer: row store missing table %q", t.meta.Name)
	}
	ix, ok := rt.IndexOn(ref.Column)
	if !ok {
		return built{}, false, nil
	}
	var pred exec.Evaluator
	preds := t.preds
	schema := exec.TableSchema(t.meta, t.binding)
	if len(preds) > 0 {
		ev, err := exec.Compile(sqlparser.AndAll(preds), schema)
		if err != nil {
			return built{}, false, err
		}
		pred = ev
	}
	limitHint := int(sel.Limit + sel.Offset)
	op := exec.NewRowIndexOrderScan(rt, ix, t.binding, sel.OrderBy[0].Desc, limitHint, pred)
	op.Slots = exec.CountSlots{N: [2]int{sel.LimitSlot, sel.OffsetSlot}}
	// expected rows visited before the limit fills: k / selectivity
	tsel := tableSelectivity(t)
	visited := math.Min(float64(t.meta.Rows), float64(limitHint)/tsel)
	cost := tpProbeCost + visited*(tpFetchPerRow+tpFilterPerRow)
	scanNode := &plan.Node{Op: plan.OpIndexScan, Engine: plan.TP, Cost: cost,
		Rows: visited, Relation: t.meta.Name, Index: ixMeta.Name,
		Condition: condString(preds), UsesIndex: true}
	node := &plan.Node{Op: plan.OpTopN, Engine: plan.TP,
		Cost: cost + float64(limitHint)*tpFilterPerRow,
		Rows: math.Min(float64(sel.Limit), visited), UsesIndex: true,
		Condition: fmt.Sprintf("order by %s limit %d offset %d (index order)", ref, sel.Limit, sel.Offset),
		Children:  []*plan.Node{scanNode}}
	return built{op: op, node: node, rows: node.Rows}, true, nil
}

// finishTopNIndex applies OFFSET slicing and projection on top of an
// index-order Top-N scan.
func finishTopNIndex(a *analysis, shape engineShape, b built) (*PhysPlan, error) {
	sel := a.sel
	if sel.Offset > 0 || sel.Limit >= 0 {
		b = built{
			op:   &exec.LimitOp{Child: b.op, N: sel.Limit, Offset: sel.Offset, Slots: countSlots(sel)},
			node: b.node, rows: b.rows,
		}
	}
	pb, err := projectPlain(a, b)
	if err != nil {
		return nil, err
	}
	return physPlan(a, shape.engine, pb, 0), nil
}
