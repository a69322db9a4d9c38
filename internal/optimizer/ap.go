package optimizer

import (
	"fmt"
	"math"

	"htapxplain/internal/exec"
	"htapxplain/internal/plan"
	"htapxplain/internal/sqlparser"
)

// AP cost model. Units are the column engine's internal "points": row
// volumes at the modeled scale dominate, so AP costs are huge numbers
// (the paper's Table II shows 16 500 000 vs TP's 5 213) and must never be
// compared with TP costs.
const (
	apScanPerRow   = 0.1 // per row visited by a columnar scan (per query, after pruning)
	apFilterPerRow = 0.1
	apBuildPerRow  = 1.2
	apProbePerRow  = 0.2
	apOutPerRow    = 0.1
	apAggPerRow    = 0.12
	apSortPerRow   = 0.15
)

func apShape() engineShape {
	return engineShape{
		engine: plan.AP,
		aggOp:  plan.OpHashAggregate,
		costAgg: func(in float64) float64 {
			return in * apAggPerRow
		},
		costSort: func(in float64) float64 {
			return in * apSortPerRow * math.Max(1, math.Log2(math.Max(2, in))/8)
		},
		costTopN: func(in float64, k int64) float64 {
			return in * apSortPerRow
		},
	}
}

// PlanAP plans the query for the column-oriented AP engine: columnar scans
// with projection pushdown and zone-map pruning, hash joins (build on the
// smaller side), hash aggregation. AP has no ordered indexes — ORDER BY
// always sorts, and point lookups degrade to scans; that is its signature
// weakness against TP.
func (p *Planner) PlanAP(sel *sqlparser.Select) (*PhysPlan, error) {
	a, err := bind(p.Cat, sel)
	if err != nil {
		return nil, err
	}
	shape := apShape()
	b, err := p.apJoinTree(a)
	if err != nil {
		return nil, err
	}
	if b, err = filterOthers(a, b, plan.AP, apFilterPerRow); err != nil {
		return nil, err
	}
	return finish(a, shape, b)
}

// apAccess plans the columnar scan of one table: only referenced columns
// are read, table predicates are evaluated inside the scan — the columns
// only they read are read but never emitted — and a zone-map pruner is
// attached when a range/equality predicate allows chunk skipping. The
// scan's cost counts every column it reads.
func (p *Planner) apAccess(a *analysis, t boundTable) (built, error) {
	if a.moved[t.binding] {
		// Exchange-delivered rows replace the local scan: full table
		// schema, pre-filtered at their source shard, so neither the
		// table predicates nor the zone pruner apply again. How many
		// arrive is known only when the moves run, so the leaf is costed
		// from the same filtered estimate a local scan would be.
		rows := estRows(t)
		node := &plan.Node{Op: plan.OpTableScan, Engine: plan.AP,
			Cost: rows * apScanPerRow, Rows: rows, Relation: t.meta.Name + " (exchange)"}
		return built{op: &exec.MemScan{Out: exec.TableSchema(t.meta, t.binding), Key: t.binding},
			node: node, rows: rows}, nil
	}
	ct, ok := p.Col.Table(t.meta.Name)
	if !ok {
		return built{}, fmt.Errorf("optimizer: column store missing table %q", t.meta.Name)
	}
	cols, emit := neededColumns(a, t)
	full := float64(t.meta.Rows)
	filtered := estRows(t)

	scanNode := &plan.Node{Op: plan.OpTableScan, Engine: plan.AP,
		Cost: 0.5, // the paper's AP leaves show a nominal scan-start cost
		Rows: full, Relation: t.meta.Name}

	preds := t.preds
	// compile against the pruned-column schema the scan reads
	subset := make(exec.Schema, len(cols))
	fullSchema := exec.TableSchema(t.meta, t.binding)
	for i, c := range cols {
		subset[i] = fullSchema[c]
	}
	filter, err := exec.CompileScanFilter(preds, subset)
	if err != nil {
		return built{}, err
	}
	pruner, prunerSlots, prunerKernels := zonePruner(t)
	op := exec.NewColTableScan(ct, t.binding, cols, filter, pruner)
	op.Emit, op.PrunerSlots, op.PrunerKernels = emit, prunerSlots, prunerKernels
	chunks := ct.NumChunks()

	if len(preds) == 0 {
		scanNode.Cost = full * apScanPerRow * colFraction(t, cols)
		return built{op: op, node: scanNode, rows: full, parChunks: chunks, parRoot: true}, nil
	}
	node := &plan.Node{Op: plan.OpFilter, Engine: plan.AP,
		Cost: full * apFilterPerRow * colFraction(t, cols),
		Rows: math.Max(1, filtered), Condition: condString(preds),
		Children: []*plan.Node{scanNode}}
	return built{op: op, node: node, rows: math.Max(1, filtered), parChunks: chunks, parRoot: true}, nil
}

// colFraction scales scan cost by the fraction of columns actually read.
func colFraction(t boundTable, cols []int) float64 {
	f := float64(len(cols)) / float64(len(t.meta.Columns))
	if f < 0.1 {
		f = 0.1
	}
	return f
}

// apJoinTree builds the hash-join tree greedily: the largest filtered
// table becomes the initial probe side; each remaining connected table is
// attached as the build side of a new hash join (small side builds).
func (p *Planner) apJoinTree(a *analysis) (built, error) {
	if len(a.tables) == 1 {
		return p.apAccess(a, a.tables[0])
	}
	// deterministic: probe = largest filtered cardinality
	var probe boundTable
	probeRows := -1.0
	for _, t := range a.tables {
		if r := estRows(t); r > probeRows {
			probe, probeRows = t, r
		}
	}
	cur, err := p.apAccess(a, probe)
	if err != nil {
		return built{}, err
	}
	joined := map[string]bool{probe.binding: true}
	remaining := map[string]boundTable{}
	for _, t := range a.tables {
		if t.binding != probe.binding {
			remaining[t.binding] = t
		}
	}
	usedJoin := map[int]bool{}
	for len(remaining) > 0 {
		bestBind := ""
		for i, jp := range a.joinPreds {
			if usedJoin[i] {
				continue
			}
			var other string
			switch {
			case joined[jp.aBind] && !joined[jp.bBind]:
				other = jp.bBind
			case joined[jp.bBind] && !joined[jp.aBind]:
				other = jp.aBind
			default:
				continue
			}
			if bestBind == "" || other < bestBind {
				bestBind = other
			}
		}
		if bestBind == "" {
			for b := range remaining {
				if bestBind == "" || b < bestBind {
					bestBind = b
				}
			}
		}
		inner := remaining[bestBind]
		var jps []joinPred
		for i, jp := range a.joinPreds {
			if usedJoin[i] {
				continue
			}
			if (joined[jp.aBind] && jp.bBind == inner.binding) || (joined[jp.bBind] && jp.aBind == inner.binding) {
				jps = append(jps, jp)
				usedJoin[i] = true
			}
		}
		cur, err = p.apJoinStep(a, cur, inner, jps, a.readAbove(usedJoin))
		if err != nil {
			return built{}, err
		}
		joined[inner.binding] = true
		delete(remaining, inner.binding)
	}
	return cur, nil
}

// readAbove lists the columns read above a join that has consumed the join
// predicates marked used: by the select list, GROUP BY, ORDER BY, the
// cross-table predicates and the join predicates still to come. SELECT *
// reads every column, reported as nil.
func (a *analysis) readAbove(used map[int]bool) []*sqlparser.ColumnRef {
	if a.selectsStar() {
		return nil
	}
	refs := []*sqlparser.ColumnRef{}
	for _, it := range a.sel.Items {
		refs = append(refs, sqlparser.ColumnsIn(it.Expr)...)
	}
	for _, g := range a.sel.GroupBy {
		refs = append(refs, sqlparser.ColumnsIn(g)...)
	}
	for _, o := range a.sel.OrderBy {
		refs = append(refs, sqlparser.ColumnsIn(o.Expr)...)
	}
	for _, e := range a.otherPreds {
		refs = append(refs, sqlparser.ColumnsIn(e)...)
	}
	for i, jp := range a.joinPreds {
		if !used[i] {
			refs = append(refs, sqlparser.ColumnsIn(jp.expr)...)
		}
	}
	return refs
}

// apJoinStep attaches table `inner` as the build side of a hash join on
// top of cur (the probe side). The join emits only the columns among above
// (see readAbove; nil keeps every column), so what neededColumns does at
// the scan — read only what is referenced — holds through the join chain:
// a key column is dropped by the last join that matches on it. The plan
// node, its cost and its rendering do not depend on the emit set.
func (p *Planner) apJoinStep(a *analysis, cur built, inner boundTable, jps []joinPred, above []*sqlparser.ColumnRef) (built, error) {
	buildSide, err := p.apAccess(a, inner)
	if err != nil {
		return built{}, err
	}
	joinSel := 1.0
	for _, jp := range jps {
		joinSel *= joinSelectivity(a, jp)
	}
	outRows := math.Max(1, cur.rows*buildSide.rows*joinSel)

	probeSchema := cur.op.Schema()
	buildSchema := buildSide.op.Schema()
	var probeKeys, buildKeys []int
	var residual []sqlparser.Expr
	condParts := []sqlparser.Expr{}
	for _, jp := range jps {
		probeRef, buildRef := outerRefOf(jp, inner.binding), &sqlparser.ColumnRef{Table: inner.binding, Column: innerColOf(jp, inner.binding)}
		pi, err1 := probeSchema.Resolve(probeRef)
		bi, err2 := buildSchema.Resolve(buildRef)
		if err1 != nil || err2 != nil {
			residual = append(residual, jp.expr)
			continue
		}
		probeKeys = append(probeKeys, pi)
		buildKeys = append(buildKeys, bi)
		condParts = append(condParts, jp.expr)
	}
	var residualEv exec.Evaluator
	if len(residual) > 0 {
		ev, err := exec.Compile(sqlparser.AndAll(residual), probeSchema.Concat(buildSchema))
		if err != nil {
			return built{}, err
		}
		residualEv = ev
	}
	if len(probeKeys) == 0 {
		// no usable equi-key: degenerate to a filtered cross hash join
		// (single bucket). Keep executable; the cost model punishes it.
		probeKeys, buildKeys = []int{}, []int{}
	}
	var emit []int
	if above != nil {
		concat := probeSchema.Concat(buildSchema)
		read := make([]bool, len(concat))
		for _, ref := range above {
			if i, err := concat.Resolve(ref); err == nil { // else another subtree's column
				read[i] = true
			}
		}
		emit = []int{}
		for i := range concat {
			if read[i] {
				emit = append(emit, i)
			}
		}
	}
	op := exec.NewHashJoin(cur.op, buildSide.op, probeKeys, buildKeys, residualEv, emit)

	buildNode := &plan.Node{Op: plan.OpHashBuild, Engine: plan.AP,
		Cost: buildSide.node.Cost + buildSide.rows*apBuildPerRow,
		Rows: buildSide.rows, Children: []*plan.Node{buildSide.node}}
	cost := cur.node.Cost + buildNode.Cost + cur.rows*apProbePerRow + outRows*apOutPerRow
	node := &plan.Node{Op: plan.OpHashJoin, Engine: plan.AP,
		Cost: cost, Rows: outRows, Condition: condString(condParts),
		Children: []*plan.Node{cur.node, buildNode}}
	// only fork-point inputs contribute to the join's parallelism: the
	// build side forks entirely (its access path is a per-morsel chain),
	// while the probe side is pulled serially — a probe that was itself a
	// bare chain loses its root forkability here, and only fork points
	// interior to it (earlier joins' builds) carry over
	chunks := buildSide.parChunks
	if !cur.parRoot && cur.parChunks > chunks {
		chunks = cur.parChunks
	}
	return built{op: op, node: node, rows: outRows, parChunks: chunks}, nil
}
