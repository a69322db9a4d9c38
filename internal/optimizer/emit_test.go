package optimizer

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"htapxplain/internal/exec"
	"htapxplain/internal/latency"
	"htapxplain/internal/plan"
	"htapxplain/internal/sqlparser"
	"htapxplain/internal/value"
	"htapxplain/internal/workload"
)

// apScanTemplates are the analytic shapes the benchmark's ap_scan workload
// draws from (bench/defs.go apTemplates).
var apScanTemplates = []string{"join2_lineitem_big", "join2_segment_agg", "rare_agg_nojoin", "topn_price_desc",
	"rare_join4_wide", "join3_phone_inlist", "rare_like_scan"}

// workCounters are the exec.Stats fields that say how much work an
// execution did: RowsScanned, HashBuildRows, HashProbeRows,
// BatchesProduced, GroupsCreated.
type workCounters [5]int64

func countersOf(s exec.Stats) workCounters {
	return workCounters{s.RowsScanned, s.HashBuildRows, s.HashProbeRows, s.BatchesProduced, s.GroupsCreated}
}

// apObservation is everything about one AP execution that a consumer
// outside the executor can see besides the result rows.
type apObservation struct {
	sql        string
	explain    string
	dop1, dop4 workCounters
	analyze    string // EXPLAIN ANALYZE tree: operator, rows, batches
}

func analyzeShape(s *exec.OpStats) string {
	var b strings.Builder
	var rec func(*exec.OpStats, int)
	rec = func(n *exec.OpStats, depth int) {
		fmt.Fprintf(&b, "%s%s rows=%d batches=%d\n", strings.Repeat("  ", depth), n.Name, n.Rows, n.Batches)
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	rec(s, 0)
	return strings.TrimRight(b.String(), "\n")
}

func observeAP(t *testing.T, p *Planner, sql string) apObservation {
	t.Helper()
	pp, err := p.PlanAP(parse(t, sql))
	if err != nil {
		t.Fatalf("PlanAP(%q): %v", sql, err)
	}
	obs := apObservation{sql: sql, explain: pp.Explain.String()}
	for _, dop := range []int{1, 4} {
		ctx := exec.NewContext()
		ctx.DOP = dop
		if _, err := pp.Execute(ctx); err != nil {
			t.Fatalf("Execute(%q) at DOP %d: %v", sql, dop, err)
		}
		if dop == 1 {
			obs.dop1 = countersOf(ctx.Stats)
		} else {
			obs.dop4 = countersOf(ctx.Stats)
		}
	}
	_, prof, err := pp.ExecuteAnalyzed(exec.NewContext())
	if err != nil {
		t.Fatalf("ExecuteAnalyzed(%q): %v", sql, err)
	}
	obs.analyze = analyzeShape(prof)
	return obs
}

// TestAPScanWorkIsPinned holds every ap_scan template's work counters,
// EXPLAIN text and EXPLAIN ANALYZE row/batch counts to recorded values
// (this fixture, seed 7), so an executor change that moves any of them
// says so by re-recording its rows. The EXPLAIN text is what the
// explanations read: modeled times come from latency.Estimate over plan
// nodes, and the counters feed no model, router feature, tree-CNN input or
// knowledge-base entry — they pin the executor's own work. The two
// multi-join chains were re-recorded when hash joins began reducing the
// builds below them (semi-join reduction): fewer build rows kept, fewer
// probe rows and batches above the first join, the same scans and results.
// rare_agg_nojoin's BatchesProduced was re-recorded (1 → 7) when its
// aggregate stopped running a morsel loop of its own and began folding the
// chunks its scan selects: the scan's six batches now count, as EXPLAIN
// ANALYZE already showed them.
func TestAPScanWorkIsPinned(t *testing.T) {
	p := testPlanner(t)
	gen := workload.NewGenerator(7)
	for i, tmpl := range apScanTemplates {
		got := observeAP(t, p, gen.BatchOf(tmpl, 1)[0].SQL)
		if i >= len(apScanPinned) {
			t.Errorf("%s is not pinned; observed:\n%#v", tmpl, got)
			continue
		}
		if want := apScanPinned[i]; got != want {
			t.Errorf("%s moved:\n got %#v\nwant %#v", tmpl, got, want)
		}
	}
}

var apScanPinned = []apObservation{
	{
		sql: `SELECT COUNT(*), SUM(l_extendedprice) FROM lineitem, orders WHERE l_orderkey = o_orderkey AND l_shipdate BETWEEN 386 AND 936`,
		explain: `Aggregate (cost=255916666.67 rows=1)
  Inner hash join (cost=237916666.67 rows=150000000) [(lineitem.l_orderkey = orders.o_orderkey)]
    Filter (cost=11250000.00 rows=150000000) [lineitem.l_shipdate BETWEEN 386 AND 936]
      Table Scan on lineitem (cost=0.50 rows=600000000)
    Hash (cost=181666666.67 rows=150000000)
      Table Scan on orders (cost=1666666.67 rows=150000000)`,
		dop1: workCounters{7564, 1500, 1496, 15, 1}, dop4: workCounters{7564, 1500, 1496, 15, 1},
		analyze: `Aggregate rows=1 batches=1
  Inner hash join rows=1496 batches=6
    Column Scan on lineitem rows=1496 batches=6
    Column Scan on orders rows=1500 batches=2`,
	},
	{
		sql: `SELECT COUNT(*), SUM(o_totalprice) FROM customer, orders WHERE o_custkey = c_custkey AND c_mktsegment = 'machinery'`,
		explain: `Aggregate (cost=43908333.33 rows=1)
  Inner hash join (cost=40308333.33 rows=30000000) [(orders.o_custkey = customer.c_custkey)]
    Table Scan on orders (cost=3333333.33 rows=150000000)
    Hash (cost=3975000.00 rows=3000000)
      Filter (cost=375000.00 rows=3000000) [(customer.c_mktsegment = 'machinery')]
        Table Scan on customer (cost=0.50 rows=15000000)`,
		dop1: workCounters{1650, 24, 1500, 6, 1}, dop4: workCounters{1650, 24, 1500, 6, 1},
		analyze: `Aggregate rows=1 batches=1
  Inner hash join rows=253 batches=2
    Column Scan on orders rows=1500 batches=2
    Column Scan on customer rows=24 batches=1`,
	},
	{
		sql: `SELECT l_shipmode, COUNT(*), AVG(l_extendedprice) FROM lineitem WHERE l_quantity > 33 GROUP BY l_shipmode`,
		explain: `Aggregate (cost=32850000.00 rows=18000000)
  Filter (cost=11250000.00 rows=180000000) [(lineitem.l_quantity > 33)]
    Table Scan on lineitem (cost=0.50 rows=600000000)`,
		dop1: workCounters{6064, 0, 0, 7, 7}, dop4: workCounters{6064, 0, 0, 7, 7},
		analyze: `Aggregate rows=7 batches=1
  Column Scan on lineitem rows=2055 batches=6`,
	},
	{
		sql: `SELECT o_orderkey, o_totalprice FROM orders ORDER BY o_totalprice DESC LIMIT 7`,
		explain: `Top N (cost=25833333.33 rows=7) [limit 7 offset 0]
  Table Scan on orders (cost=3333333.33 rows=150000000)`,
		dop1: workCounters{1500, 0, 0, 4, 0}, dop4: workCounters{1500, 0, 0, 4, 0},
		analyze: `Projection rows=7 batches=1
  Top N rows=7 batches=1
    Column Scan on orders rows=1500 batches=2`,
	},
	{
		sql: `SELECT COUNT(*) FROM customer, nation, orders, lineitem WHERE c_nationkey = n_nationkey AND o_custkey = c_custkey AND l_orderkey = o_orderkey AND c_mktsegment = 'machinery' AND n_name = 'russia'`,
		explain: `Aggregate (cost=530551835.78 rows=1)
  Inner hash join (cost=529975835.78 rows=4800000) [(customer.c_nationkey = nation.n_nationkey)]
    Inner hash join (cost=505495833.33 rows=120000000) [(orders.o_custkey = customer.c_custkey)]
      Inner hash join (cost=369333333.33 rows=600000000) [(lineitem.l_orderkey = orders.o_orderkey)]
        Table Scan on lineitem (cost=6000000.00 rows=600000000)
        Hash (cost=183333333.33 rows=150000000)
          Table Scan on orders (cost=3333333.33 rows=150000000)
      Hash (cost=4162500.00 rows=3000000)
        Filter (cost=562500.00 rows=3000000) [(customer.c_mktsegment = 'machinery')]
          Table Scan on customer (cost=0.50 rows=15000000)
    Hash (cost=2.45 rows=1)
      Filter (cost=1.25 rows=1) [(nation.n_name = 'russia')]
        Table Scan on nation (cost=0.50 rows=25)`,
		dop1: workCounters{7739, 22, 6248, 29, 1}, dop4: workCounters{7739, 22, 6248, 29, 1},
		analyze: `Aggregate rows=1 batches=1
  Inner hash join rows=92 batches=6
    Inner hash join rows=92 batches=6
      Inner hash join rows=92 batches=6
        Column Scan on lineitem rows=6064 batches=6
        Column Scan on orders rows=1500 batches=2
      Column Scan on customer rows=24 batches=1
    Column Scan on nation rows=1 batches=1`,
	},
	{
		sql: `SELECT COUNT(*) FROM customer, nation, orders WHERE SUBSTRING(c_phone, 1, 2) IN ('12', '31', '28', '16', '30', '15') AND c_mktsegment = 'building' AND n_name = 'saudi arabia' AND o_orderstatus = 'f' AND o_custkey = c_custkey AND n_nationkey = c_nationkey`,
		explain: `Aggregate (cost=15688455.78 rows=1)
  Inner hash join (cost=15676935.78 rows=96000) [(nation.n_nationkey = customer.c_nationkey)]
    Inner hash join (cost=15187333.33 rows=2400000) [(orders.o_custkey = customer.c_custkey)]
      Filter (cost=3333333.33 rows=50000000) [(orders.o_orderstatus = 'f')]
        Table Scan on orders (cost=0.50 rows=150000000)
      Hash (cost=1614000.00 rows=720000)
        Filter (cost=750000.00 rows=720000) [SUBSTRING(customer.c_phone, 1, 2) IN ('12', '31', '28', '16', '30', '15') AND (customer.c_mktsegment = 'building')]
          Table Scan on customer (cost=0.50 rows=15000000)
    Hash (cost=2.45 rows=1)
      Filter (cost=1.25 rows=1) [(nation.n_name = 'saudi arabia')]
        Table Scan on nation (cost=0.50 rows=25)`,
		dop1: workCounters{1675, 2, 495, 7, 1}, dop4: workCounters{1675, 2, 495, 7, 1},
		analyze: `Aggregate rows=1 batches=1
  Inner hash join rows=2 batches=1
    Inner hash join rows=2 batches=1
      Column Scan on orders rows=493 batches=2
      Column Scan on customer rows=12 batches=1
    Column Scan on nation rows=1 batches=1`,
	},
	{
		sql: `SELECT COUNT(*) FROM orders WHERE o_comment LIKE '%bold%'`,
		explain: `Aggregate (cost=3466666.67 rows=1)
  Filter (cost=1666666.67 rows=15000000) [orders.o_comment LIKE '%bold%']
    Table Scan on orders (cost=0.50 rows=150000000)`,
		dop1: workCounters{1500, 0, 0, 3, 1}, dop4: workCounters{1500, 0, 0, 3, 1},
		analyze: `Aggregate rows=1 batches=1
  Column Scan on orders rows=190 batches=2`,
	},
}

// joinSchemas lists, top-down, the output columns of every hash join on the
// probe spine of an AP operator tree.
func joinSchemas(t *testing.T, op exec.Operator) []string {
	t.Helper()
	var out []string
	for op != nil {
		switch x := op.(type) {
		case *exec.HashJoin:
			cols := make([]string, len(x.Schema()))
			for i, c := range x.Schema() {
				cols[i] = c.Binding + "." + c.Name
			}
			out = append(out, strings.Join(cols, " "))
			op = x.Probe
		case *exec.FilterOp:
			op = x.Child
		case *exec.ProjectOp:
			op = x.Child
		case *exec.HashAggregate:
			op = x.Child
		case *exec.SortOp:
			op = x.Child
		case *exec.TopNOp:
			op = x.Child
		case *exec.LimitOp:
			op = x.Child
		case *exec.ColTableScan:
			op = nil
		default:
			t.Fatalf("unexpected operator %T in an AP plan", op)
		}
	}
	return out
}

// TestJoinEmitsOnlyWhatParentReads: projection pushdown holds through a
// join chain. Each hash join outputs exactly the columns some operator above
// it reads — the select list, GROUP BY, ORDER BY, cross-table predicates and
// the keys of joins still to come — so a COUNT(*) over a chain carries one
// key column per stage and nothing out of the top; SELECT * keeps every
// column. Every plan must still return what the TP engine returns.
func TestJoinEmitsOnlyWhatParentReads(t *testing.T) {
	p := testPlanner(t)
	type tc struct {
		name, sql string
		want      []string
	}
	cases := []tc{ // the workload's 14 templates; six of them join nothing
		{name: "join3_phone_inlist", want: []string{"", "customer.c_nationkey"}},
		{name: "join2_segment_agg", want: []string{"orders.o_totalprice"}},
		{name: "join2_point_orders", want: []string{"orders.o_orderkey orders.o_totalprice"}},
		{name: "join2_lineitem_big", want: []string{"lineitem.l_extendedprice"}},
		{name: "join3_supplier", want: []string{"", "nation.n_nationkey"}},
		{name: "join2_part_brand", want: []string{"partsupp.ps_supplycost"}},
		{name: "topn_indexed_pk"}, {name: "topn_price_desc"}, {name: "topn_offset_deep"}, {name: "topn_filtered"},
		{name: "rare_join4_wide", want: []string{"", "customer.c_nationkey", "orders.o_custkey"}},
		{name: "rare_agg_nojoin"},
		{name: "rare_tiny_dim_join", want: []string{"nation.n_name"}},
		{name: "rare_like_scan"},
	}
	gen := workload.NewGenerator(7)
	for i := range cases {
		cases[i].sql = gen.BatchOf(cases[i].name, 1)[0].SQL
	}
	cases = append(cases,
		tc{"select star", `SELECT * FROM nation, region WHERE n_regionkey = r_regionkey AND r_name = 'asia'`,
			[]string{"nation.n_nationkey nation.n_name nation.n_regionkey nation.n_comment " +
				"region.r_regionkey region.r_name region.r_comment"}},
		tc{"order by a column not selected", `SELECT o_orderkey FROM customer, orders` +
			` WHERE o_custkey = c_custkey AND c_mktsegment = 'building' ORDER BY c_acctbal DESC, o_orderkey LIMIT 9`,
			[]string{"orders.o_orderkey customer.c_acctbal"}},
		tc{"non-equi cross-table predicate", `SELECT COUNT(*) FROM customer, orders` +
			` WHERE o_custkey = c_custkey AND o_totalprice > c_acctbal * 20`,
			[]string{"orders.o_totalprice customer.c_acctbal"}},
	)
	for _, c := range cases {
		ap, err := p.PlanAP(parse(t, c.sql))
		if err != nil {
			t.Fatalf("%s: PlanAP: %v", c.name, err)
		}
		if got := joinSchemas(t, ap.Root); strings.Join(got, " | ") != strings.Join(c.want, " | ") {
			t.Errorf("%s: joins emit %q, want %q\n%s", c.name, got, c.want, c.sql)
		}
		tp, err := p.PlanTP(parse(t, c.sql))
		if err != nil {
			t.Fatalf("%s: PlanTP: %v", c.name, err)
		}
		apRows, err := ap.Execute(exec.NewContext())
		if err != nil {
			t.Fatalf("%s: AP: %v", c.name, err)
		}
		tpRows, err := tp.Execute(exec.NewContext())
		if err != nil {
			t.Fatalf("%s: TP: %v", c.name, err)
		}
		if got, want := canonRows(apRows), canonRows(tpRows); got != want {
			t.Errorf("%s: AP returns %.300s, TP %.300s", c.name, got, want)
		}
	}
}

// canonRows renders a result so the two engines' answers compare: values
// sorted within a row and rows sorted (the engines order SELECT * columns and
// unordered results differently), floats to nine digits (they sum in
// different orders).
func canonRows(rows []value.Row) string {
	out := make([]string, len(rows))
	for i, r := range rows {
		vals := make([]string, len(r))
		for j, v := range r {
			if vals[j] = v.String(); v.K == value.KindFloat {
				vals[j] = fmt.Sprintf("%.9g", v.Float())
			}
		}
		sort.Strings(vals)
		out[i] = strings.Join(vals, ",")
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}

// scansIn lists the columnar scans of an AP operator tree, top-down, probe
// side before build side.
func scansIn(t *testing.T, op exec.Operator) []*exec.ColTableScan {
	t.Helper()
	switch x := op.(type) {
	case *exec.ColTableScan:
		return []*exec.ColTableScan{x}
	case *exec.HashJoin:
		return append(scansIn(t, x.Probe), scansIn(t, x.Build)...)
	case *exec.FilterOp:
		return scansIn(t, x.Child)
	case *exec.ProjectOp:
		return scansIn(t, x.Child)
	case *exec.HashAggregate:
		return scansIn(t, x.Child)
	case *exec.SortOp:
		return scansIn(t, x.Child)
	case *exec.TopNOp:
		return scansIn(t, x.Child)
	case *exec.LimitOp:
		return scansIn(t, x.Child)
	}
	t.Fatalf("unexpected operator %T in an AP plan", op)
	return nil
}

// columnUses splits, per binding, the columns a bound statement reads into
// those read above the scans — select list, GROUP BY, ORDER BY and every
// WHERE conjunct over other than one table — and those the one-table
// conjuncts read, each as a set of column names.
func columnUses(sel *sqlparser.Select) (above, pred map[string]map[string]bool) {
	above, pred = map[string]map[string]bool{}, map[string]map[string]bool{}
	add := func(m map[string]map[string]bool, e sqlparser.Expr) {
		for _, ref := range sqlparser.ColumnsIn(e) {
			if m[ref.Table] == nil {
				m[ref.Table] = map[string]bool{}
			}
			m[ref.Table][ref.Column] = true
		}
	}
	for _, it := range sel.Items {
		add(above, it.Expr)
	}
	for _, g := range sel.GroupBy {
		add(above, g)
	}
	for _, o := range sel.OrderBy {
		add(above, o.Expr)
	}
	for _, c := range sqlparser.Conjuncts(sel.Where) {
		tables := map[string]bool{}
		for _, ref := range sqlparser.ColumnsIn(c) {
			tables[ref.Table] = true
		}
		if len(tables) == 1 {
			add(pred, c)
		} else {
			add(above, c)
		}
	}
	return above, pred
}

// apScanModeled is each ap_scan template's modeled time on either engine
// and the winner: what the router trains on and the explanations cite.
var apScanModeled = []string{
	"join2_lineitem_big: TP 42m34.5005s, AP 4.06125s, AP",
	"join2_segment_agg: TP 3m11.5505s, AP 621.875ms, AP",
	"rare_agg_nojoin: TP 5m9.0005s, AP 1.98s, AP",
	"topn_price_desc: TP 1m52.5005s, AP 1.5925s, AP",
	"rare_join4_wide: TP 46.92052175s, AP 5.258125057s, AP",
	"join3_phone_inlist: TP 4.74292175s, AP 406.358391ms, AP",
	"rare_like_scan: TP 1m12.7505s, AP 380ms, AP",
}

// TestScansEmitNoPredicateOnlyColumn: late materialization over the
// ap_scan templates. Each columnar scan reads what its table's columns are
// read for anywhere in the statement, but emits only those read above it:
// a column only the table's own predicates read is tested in the scan and
// dropped — unless nothing above reads the table, when the scan emits one
// column, its first predicate column. Planning is otherwise untouched: the
// plans' modeled times are the recorded ones (the EXPLAIN text is
// TestAPScanWorkIsPinned's).
func TestScansEmitNoPredicateOnlyColumn(t *testing.T) {
	p := testPlanner(t)
	gen := workload.NewGenerator(7)
	for i, tmpl := range apScanTemplates {
		sql := gen.BatchOf(tmpl, 1)[0].SQL
		sel := parse(t, sql)
		ap, err := p.PlanAP(sel)
		if err != nil {
			t.Fatalf("%s: PlanAP: %v", tmpl, err)
		}
		tp, err := p.PlanTP(parse(t, sql))
		if err != nil {
			t.Fatalf("%s: PlanTP: %v", tmpl, err)
		}
		m := plan.NewModeled(plan.Pair{SQL: sql, TP: tp.Explain, AP: ap.Explain},
			latency.Estimate(tp.Explain), latency.Estimate(ap.Explain))
		modeled := fmt.Sprintf("%s: TP %v, AP %v, %v", tmpl, m.TPTime, m.APTime, m.Winner)
		if recorded := "(none)"; i >= len(apScanModeled) || modeled != apScanModeled[i] {
			if i < len(apScanModeled) {
				recorded = apScanModeled[i]
			}
			t.Errorf("modeled %q, recorded %q", modeled, recorded)
		}

		above, pred := columnUses(sel) // PlanAP qualified every reference
		for _, scan := range scansIn(t, ap.Root) {
			b := scan.Binding
			meta := scan.Table.Meta
			var read, emitted []string
			for _, c := range scan.Cols {
				read = append(read, meta.Columns[c].Name)
			}
			for _, c := range scan.Schema() {
				emitted = append(emitted, c.Name)
			}
			var wantRead, wantEmit []string
			for _, c := range meta.Columns {
				if above[b][c.Name] {
					wantRead, wantEmit = append(wantRead, c.Name), append(wantEmit, c.Name)
				}
			}
			for _, c := range meta.Columns {
				if pred[b][c.Name] && !above[b][c.Name] {
					wantRead = append(wantRead, c.Name)
				}
			}
			switch {
			case len(wantEmit) > 0:
			case len(wantRead) > 0:
				wantEmit = wantRead[:1]
			default:
				wantRead, wantEmit = []string{meta.Columns[0].Name}, []string{meta.Columns[0].Name}
			}
			if !slices.Equal(read, wantRead) || !slices.Equal(emitted, wantEmit) {
				t.Errorf("%s: scan of %s reads %v and emits %v, want %v and %v", tmpl, b, read, emitted, wantRead, wantEmit)
			}
		}
	}
}
