package optimizer

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"htapxplain/internal/catalog"
	"htapxplain/internal/colstore"
	"htapxplain/internal/exec"
	"htapxplain/internal/plan"
	"htapxplain/internal/rowstore"
	"htapxplain/internal/sqlparser"
	"htapxplain/internal/value"
)

// PhysPlan couples an executable operator tree with its EXPLAIN tree.
type PhysPlan struct {
	Engine  plan.Engine
	Root    exec.Operator
	Explain *plan.Node
	// DOP is the planner-chosen degree of parallelism: the number of
	// morsel workers the plan's scan pipelines are worth spreading across,
	// derived from the physical chunk counts of the scanned tables (see
	// chooseDOP). 1 means serial. The gateway admits DOP workers against
	// its pool and passes the granted count through exec.Context.DOP;
	// executing with a smaller grant (or serially) is always safe — the
	// operators fork at Open from whatever the context carries.
	DOP int
	// Slots are the literal slots of the statement the plan was built
	// from: what a literal vector binds to (exec.Context.Bind). Ties are
	// the pairs of them a vector must hold equal literals in for the plan
	// to execute it (exec.Params.Holds).
	Slots []sqlparser.Slot
	Ties  []sqlparser.Tie

	runnerOnce sync.Once
	runner     *exec.Runner
}

// Execute runs the plan through the vectorized batch pipeline and
// materializes the result rows. Repeated executions (e.g. of a cached
// plan) share a pool of cloned operator trees, so they are concurrency-
// safe and reuse execution buffers.
func (p *PhysPlan) Execute(ctx *exec.Context) ([]value.Row, error) {
	p.runnerOnce.Do(func() { p.runner = exec.NewRunner(p.Root) })
	return p.runner.Drain(ctx)
}

// ExecuteAnalyzed runs the plan once with per-operator instrumentation —
// the EXPLAIN ANALYZE path. A private clone of the operator tree is
// wrapped in measuring operators (transparent to morsel-parallel forking,
// so a DOP>1 plan forks exactly as in Execute) and drained; the measured
// per-operator profile is returned alongside the rows. The profile is
// also populated on error, so a failed run still shows where time went.
func (p *PhysPlan) ExecuteAnalyzed(ctx *exec.Context) ([]value.Row, *exec.OpStats, error) {
	root, prof := exec.Instrument(p.Root.Clone())
	rows, err := exec.Drain(root, ctx)
	return rows, prof.Snapshot(), err
}

// Planner plans queries for both engines over shared storage.
type Planner struct {
	Cat *catalog.Catalog
	Row *rowstore.Store
	Col *colstore.Store
}

// NewPlanner constructs a planner.
func NewPlanner(cat *catalog.Catalog, row *rowstore.Store, col *colstore.Store) *Planner {
	return &Planner{Cat: cat, Row: row, Col: col}
}

// engineShape parameterizes the engine-specific parts of the shared
// post-join planning (aggregation, ordering, limit, projection).
type engineShape struct {
	engine   plan.Engine
	aggOp    plan.Op
	costAgg  func(inRows float64) float64
	costSort func(inRows float64) float64
	costTopN func(inRows float64, k int64) float64
}

// built tracks an operator subtree with its explain node and modeled-scale
// cardinality estimate.
type built struct {
	op   exec.Operator
	node *plan.Node
	rows float64
	// parChunks is the physical base-chunk count of the largest columnar
	// scan a fork point can actually reach in this subtree — the
	// cardinality fact the degree-of-parallelism choice is made from
	// (0 for row-store trees). parRoot marks a subtree that is itself a
	// forkable per-morsel chain (scan + filters): its whole parChunks is
	// usable by whatever forks it (a root drain, an aggregate, a join
	// build), but the moment it becomes a hash join's probe side that
	// root forkability is lost — the probe is pulled serially — and only
	// interior fork points keep contributing.
	parChunks int
	parRoot   bool
}

// finish applies aggregation / ordering / limit / projection on top of the
// join tree, shared by both planners.
func finish(a *analysis, shape engineShape, b built) (*PhysPlan, error) {
	sel := a.sel
	var err error
	if sel.HasAggregate() || len(sel.GroupBy) > 0 {
		b, err = buildAggregate(a, shape, b)
		if err != nil {
			return nil, err
		}
		if len(sel.OrderBy) > 0 {
			b, err = buildOrdering(a, shape, b, true)
			if err != nil {
				return nil, err
			}
		} else if sel.Limit >= 0 {
			b = buildLimit(sel, shape, b)
		}
		b, err = projectAggOutput(a, b)
		if err != nil {
			return nil, err
		}
	} else {
		if len(sel.OrderBy) > 0 {
			b, err = buildOrdering(a, shape, b, false)
			if err != nil {
				return nil, err
			}
		} else if sel.Limit >= 0 {
			b = buildLimit(sel, shape, b)
		}
		b, err = projectPlain(a, b)
		if err != nil {
			return nil, err
		}
	}
	dop := chooseDOP(b.parChunks)
	if dop > 1 && !exec.CanParallelize(b.op) {
		// the final shape has no fork point (e.g. Top-N pulls its scan
		// serially) — asking the gateway for workers would reserve pool
		// slots the execution can never use
		dop = 1
	}
	return physPlan(a, shape.engine, b, dop), nil
}

// physPlan is the plan of a's statement with root b.
func physPlan(a *analysis, eng plan.Engine, b built, dop int) *PhysPlan {
	return &PhysPlan{Engine: eng, Root: b.op, Explain: b.node, DOP: dop, Slots: a.sel.Slots, Ties: a.ties}
}

// tieText records that planning matched expression e to the aggregate
// output column idx by their text: the select list and ORDER BY name group
// and aggregate outputs by their spelling, literals included.
func tieText(a *analysis, e sqlparser.Expr, idx int) {
	src := a.sel.GroupBy
	if idx >= len(src) {
		// the aggregates follow the groups, in select-list order
		idx -= len(src)
		src = nil
		for _, it := range a.sel.Items {
			if ax, ok := it.Expr.(*sqlparser.AggExpr); ok {
				src = append(src, ax)
			}
		}
	}
	a.ties = sqlparser.AppendTies(a.ties, e, src[idx])
}

// buildAggregate plans GROUP BY + aggregates. Output schema: group columns
// (in GROUP BY order) followed by aggregate columns (in select-list order).
func buildAggregate(a *analysis, shape engineShape, child built) (built, error) {
	inSchema := child.op.Schema()
	var groups []exec.Evaluator
	var outSchema exec.Schema
	groupNames := make([]string, len(a.sel.GroupBy))
	// structural shape for the column fold over stored chunks: bare-column
	// groups and aggregate arguments resolve to child-schema positions;
	// any expression group/argument clears it and forces the evaluator path
	groupCols := make([]int, 0, len(a.sel.GroupBy))
	structural := true
	for i, g := range a.sel.GroupBy {
		ev, err := exec.Compile(g, inSchema)
		if err != nil {
			return built{}, err
		}
		groups = append(groups, ev)
		name := strings.ToLower(g.String())
		typ := catalog.TypeString
		if ref, ok := g.(*sqlparser.ColumnRef); ok {
			name = ref.Column
			if idx, err := inSchema.Resolve(ref); err == nil {
				typ = inSchema[idx].Type
				groupCols = append(groupCols, idx)
			} else {
				structural = false
			}
			outSchema = append(outSchema, exec.Col{Binding: ref.Table, Name: name, Type: typ})
		} else {
			structural = false
			outSchema = append(outSchema, exec.Col{Name: name, Type: typ})
		}
		groupNames[i] = name
	}
	var aggs []exec.AggSpec
	for _, it := range a.sel.Items {
		ax, ok := it.Expr.(*sqlparser.AggExpr)
		if !ok {
			continue
		}
		var arg exec.Evaluator
		argCol := -1
		if ax.Arg != nil {
			ev, err := exec.Compile(ax.Arg, inSchema)
			if err != nil {
				return built{}, err
			}
			arg = ev
			if ref, ok := ax.Arg.(*sqlparser.ColumnRef); ok {
				if idx, rerr := inSchema.Resolve(ref); rerr == nil {
					argCol = idx
				} else {
					structural = false
				}
			} else {
				structural = false
			}
		}
		aggs = append(aggs, exec.AggSpec{Func: ax.Func, Arg: arg, ArgCol: argCol})
		name := it.Alias
		if name == "" {
			name = strings.ToLower(ax.String())
		}
		typ := catalog.TypeFloat
		if ax.Func == sqlparser.AggCount {
			typ = catalog.TypeInt
		}
		outSchema = append(outSchema, exec.Col{Name: name, Type: typ})
	}
	op := &exec.HashAggregate{Child: child.op, Groups: groups, Aggs: aggs, Out: outSchema}
	if structural {
		op.GroupCols = groupCols
	}
	outRows := 1.0
	if len(groups) > 0 {
		outRows = math.Min(child.rows, math.Max(1, child.rows/10))
	}
	node := &plan.Node{
		Op: shape.aggOp, Engine: shape.engine,
		Cost: child.node.Cost + shape.costAgg(child.rows),
		Rows: outRows, Children: []*plan.Node{child.node},
	}
	return built{op: op, node: node, rows: outRows, parChunks: child.parChunks}, nil
}

// orderKeys compiles ORDER BY terms against the current schema. In
// aggregated context, AggExpr terms resolve to matching output columns.
func orderKeys(a *analysis, s exec.Schema, agged bool) ([]exec.SortKey, error) {
	var keys []exec.SortKey
	for _, o := range a.sel.OrderBy {
		if agged {
			if ax, ok := o.Expr.(*sqlparser.AggExpr); ok {
				name := strings.ToLower(ax.String())
				idx := -1
				for i, c := range s {
					if c.Name == name {
						idx = i
						break
					}
				}
				if idx < 0 {
					return nil, fmt.Errorf("optimizer: ORDER BY aggregate %s not in select list", ax)
				}
				tieText(a, ax, idx)
				keys = append(keys, exec.ColumnKey(idx, o.Desc))
				continue
			}
			if ref, ok := o.Expr.(*sqlparser.ColumnRef); ok {
				// resolve by bare name or alias against aggregate output
				idx := -1
				for i, c := range s {
					if strings.EqualFold(c.Name, ref.Column) {
						idx = i
						break
					}
				}
				if idx >= 0 {
					keys = append(keys, exec.ColumnKey(idx, o.Desc))
					continue
				}
			}
		}
		if ref, ok := o.Expr.(*sqlparser.ColumnRef); ok {
			idx, err := s.Resolve(ref)
			if err != nil {
				return nil, err
			}
			keys = append(keys, exec.ColumnKey(idx, o.Desc))
			continue
		}
		ev, err := exec.Compile(o.Expr, s)
		if err != nil {
			return nil, err
		}
		keys = append(keys, exec.SortKey{Eval: ev, Desc: o.Desc})
	}
	return keys, nil
}

// buildOrdering plans ORDER BY (+ LIMIT as Top-N when present).
func buildOrdering(a *analysis, shape engineShape, child built, agged bool) (built, error) {
	keys, err := orderKeys(a, child.op.Schema(), agged)
	if err != nil {
		return built{}, err
	}
	sel := a.sel
	if sel.Limit >= 0 {
		op := &exec.TopNOp{Child: child.op, Keys: keys, N: sel.Limit, Offset: sel.Offset, Slots: countSlots(sel)}
		outRows := math.Min(child.rows, float64(sel.Limit))
		node := &plan.Node{
			Op: plan.OpTopN, Engine: shape.engine,
			Cost:      child.node.Cost + shape.costTopN(child.rows, sel.Limit+sel.Offset),
			Rows:      outRows,
			Condition: fmt.Sprintf("limit %d offset %d", sel.Limit, sel.Offset),
			Children:  []*plan.Node{child.node},
		}
		return built{op: op, node: node, rows: outRows, parChunks: child.parChunks}, nil
	}
	op := &exec.SortOp{Child: child.op, Keys: keys}
	node := &plan.Node{
		Op: plan.OpSort, Engine: shape.engine,
		Cost: child.node.Cost + shape.costSort(child.rows),
		Rows: child.rows, Children: []*plan.Node{child.node},
	}
	return built{op: op, node: node, rows: child.rows, parChunks: child.parChunks}, nil
}

// buildLimit plans LIMIT/OFFSET without ordering.
func buildLimit(sel *sqlparser.Select, shape engineShape, child built) built {
	op := &exec.LimitOp{Child: child.op, N: sel.Limit, Offset: sel.Offset, Slots: countSlots(sel)}
	outRows := math.Min(child.rows, float64(sel.Limit))
	node := &plan.Node{
		Op: plan.OpLimit, Engine: shape.engine,
		Cost:      child.node.Cost,
		Rows:      outRows,
		Condition: fmt.Sprintf("limit %d offset %d", sel.Limit, sel.Offset),
		Children:  []*plan.Node{child.node},
	}
	return built{op: op, node: node, rows: outRows, parChunks: child.parChunks}
}

// projectAggOutput reorders the aggregate output into select-list order.
func projectAggOutput(a *analysis, child built) (built, error) {
	s := child.op.Schema()
	var evals []exec.Evaluator
	var out exec.Schema
	for _, it := range a.sel.Items {
		var name string
		spelled := false // name is the item's text
		if ax, ok := it.Expr.(*sqlparser.AggExpr); ok {
			name = it.Alias
			if name == "" {
				name, spelled = strings.ToLower(ax.String()), true
			}
		} else if ref, ok := it.Expr.(*sqlparser.ColumnRef); ok {
			name = ref.Column
		} else {
			name, spelled = strings.ToLower(it.Expr.String()), true
		}
		idx := -1
		for i, c := range s {
			if strings.EqualFold(c.Name, name) {
				idx = i
				break
			}
		}
		if idx < 0 {
			return built{}, fmt.Errorf("optimizer: select item %q is neither aggregated nor grouped", it)
		}
		if spelled {
			tieText(a, it.Expr, idx)
		}
		evals = append(evals, exec.ColumnEval(idx))
		out = append(out, exec.Col{Name: name, Type: s[idx].Type, Binding: s[idx].Binding})
	}
	// identity projection: skip the operator if order already matches
	if len(evals) == len(s) {
		same := true
		for i := range out {
			if out[i].Name != s[i].Name {
				same = false
				break
			}
		}
		if same {
			return child, nil
		}
	}
	op := &exec.ProjectOp{Child: child.op, Evals: evals, Out: out}
	return built{op: op, node: child.node, rows: child.rows, parChunks: child.parChunks}, nil
}

// projectPlain plans the select list of a non-aggregated query.
func projectPlain(a *analysis, child built) (built, error) {
	if len(a.sel.Items) == 1 && a.sel.Items[0].Star {
		return child, nil
	}
	s := child.op.Schema()
	var evals []exec.Evaluator
	var out exec.Schema
	for _, it := range a.sel.Items {
		if it.Star {
			for i, c := range s {
				evals = append(evals, exec.ColumnEval(i))
				out = append(out, c)
			}
			continue
		}
		ev, err := exec.Compile(it.Expr, s)
		if err != nil {
			return built{}, err
		}
		evals = append(evals, ev)
		name := it.Alias
		binding := ""
		typ := catalog.TypeString
		if ref, ok := it.Expr.(*sqlparser.ColumnRef); ok {
			if name == "" {
				name = ref.Column
			}
			binding = ref.Table
			if idx, err := s.Resolve(ref); err == nil {
				typ = s[idx].Type
			}
		} else if name == "" {
			name = strings.ToLower(it.Expr.String())
		}
		out = append(out, exec.Col{Binding: binding, Name: name, Type: typ})
	}
	op := &exec.ProjectOp{Child: child.op, Evals: evals, Out: out}
	return built{op: op, node: child.node, rows: child.rows, parChunks: child.parChunks}, nil
}

// filterOthers puts a Filter of the multi-table non-equi conjuncts, which
// keeps half its input, over the join tree b on engine eng, whose filter
// costs perRow a row; b stands when there are none. A filter keeps a
// per-morsel chain forkable.
func filterOthers(a *analysis, b built, eng plan.Engine, perRow float64) (built, error) {
	if len(a.otherPreds) == 0 {
		return b, nil
	}
	pred, err := exec.Compile(sqlparser.AndAll(a.otherPreds), b.op.Schema())
	if err != nil {
		return built{}, err
	}
	rows := math.Max(1, b.rows*0.5)
	return built{
		op: &exec.FilterOp{Child: b.op, Pred: pred},
		node: &plan.Node{Op: plan.OpFilter, Engine: eng, Cost: b.node.Cost + b.rows*perRow, Rows: rows,
			Condition: condString(a.otherPreds), Children: []*plan.Node{b.node}},
		rows: rows, parChunks: b.parChunks, parRoot: b.parRoot,
	}, nil
}

// condString renders a conjunction for EXPLAIN display.
func condString(preds []sqlparser.Expr) string {
	parts := make([]string, len(preds))
	for i, p := range preds {
		parts[i] = p.String()
	}
	return strings.Join(parts, " AND ")
}

// neededColumns returns the table column positions of binding t its
// columnar scan reads (projection pushdown), and how many of them lead the
// list as the columns it emits: those some operator above the scan reads —
// the select list, GROUP BY, ORDER BY, join and cross-table predicates —
// ascending, then those only the table's own predicates read, ascending,
// which the scan tests and never emits (late materialization). A scan
// emits at least one column: with nothing read above it, the first
// predicate column, or column 0 when there is no predicate. Star selects
// emit every column.
func neededColumns(a *analysis, t boundTable) (cols []int, emit int) {
	if a.selectsStar() {
		out := make([]int, len(t.meta.Columns))
		for i := range out {
			out[i] = i
		}
		return out, len(out)
	}
	const readAbove, readByPred = 1, 2
	use := make([]uint8, len(t.meta.Columns))
	addRefs := func(how uint8, e sqlparser.Expr) {
		for _, ref := range sqlparser.ColumnsIn(e) {
			if ref.Table != t.binding {
				continue
			}
			if i := t.meta.ColumnIndex(ref.Column); i >= 0 {
				use[i] |= how
			}
		}
	}
	for _, it := range a.sel.Items {
		addRefs(readAbove, it.Expr)
	}
	for _, g := range a.sel.GroupBy {
		addRefs(readAbove, g)
	}
	for _, o := range a.sel.OrderBy {
		addRefs(readAbove, o.Expr)
	}
	for _, jp := range a.joinPreds {
		addRefs(readAbove, jp.expr)
	}
	for _, e := range a.otherPreds {
		addRefs(readAbove, e)
	}
	for _, e := range t.preds {
		addRefs(readByPred, e)
	}
	cols = make([]int, 0, len(use))
	for i, u := range use {
		if u&readAbove != 0 {
			cols = append(cols, i)
		}
	}
	emit = len(cols)
	for i, u := range use {
		if u == readByPred {
			cols = append(cols, i)
		}
	}
	switch {
	case emit > 0:
	case len(cols) > 0:
		emit = 1 // COUNT(*)-only: the first predicate column stands in
	default:
		cols, emit = []int{0}, 1 // COUNT(*)-only queries still need one column to scan
	}
	return cols, emit
}

// zonePruner derives a zone-map pruner from the binding's most selective
// folded column, with the slots its bounds are read from under a bound
// literal vector. Works without any index — zone maps are a column-store
// feature — but a range has one pair of bounds, so a key set of several
// keys is not taken: the column's interval stands in, if it has one. A
// one-key IN list's slot bounds both ends, and a bound vector that lists
// several keys there runs the scan unpruned (ColTableScan.bind). kernels
// marks the conjuncts the pruner's range stands for, bit for bit.
func zonePruner(t boundTable) (pr *colstore.RangePruner, slots [2]int, kernels uint64) {
	s, _, ok := pickSargable(t.meta, &t.fold, false)
	if !ok {
		return nil, [2]int{}, 0
	}
	pr = &colstore.RangePruner{Col: s.pos, Lo: s.lo.val(), Hi: s.hi.val(), LoStrict: s.lo.strict, HiStrict: s.hi.strict}
	slots = [2]int{s.lo.Slot, s.hi.Slot}
	if s.useKeys {
		key := s.keys.At(0)
		slot := max(key.Slot, s.keys.List)
		*pr, slots = colstore.RangePruner{Col: s.pos, Lo: &key.V, Hi: &key.V}, [2]int{slot, slot}
	}
	// the pruner is an exact predicate stand-in when it stands for the
	// table's whole predicate: chunk-level RangeSel then decides row
	// membership and the compiled predicate never runs on base chunks
	kernels = s.conjs(true, true)
	pr.Exact = len(t.preds) < 64 && kernels == 1<<len(t.preds)-1
	return pr, slots, kernels
}

// countSlots names the slots of sel's LIMIT and OFFSET for a limit or
// Top-N that keeps LIMIT rows after skipping OFFSET.
func countSlots(sel *sqlparser.Select) exec.CountSlots {
	return exec.CountSlots{N: [2]int{sel.LimitSlot}, Offset: sel.OffsetSlot}
}
