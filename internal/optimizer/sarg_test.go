package optimizer

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"htapxplain/internal/exec"
	"htapxplain/internal/latency"
	"htapxplain/internal/plan"
	"htapxplain/internal/sqlparser"
	"htapxplain/internal/value"
)

// conjunctObservation is what one spelling of a customer WHERE clause
// gets from planning and execution: the route, the shape of both plans
// (every node but its condition text), the AP scan's kernel count and zone
// pruner, and the rows.
type conjunctObservation struct {
	route         plan.Engine
	tpTree        string
	apTree        string
	kernels       int
	pruner        string
	tpRows, apRow string
}

// nodeShapes renders a plan tree without its condition strings, which
// spell a conjunct as it was written.
func nodeShapes(n *plan.Node) string {
	var b strings.Builder
	n.Visit(func(n *plan.Node) {
		fmt.Fprintf(&b, "%v/%v cost=%.4f rows=%.4f %s %s index=%v\n",
			n.Op, n.Engine, n.Cost, n.Rows, n.Relation, n.Index, n.UsesIndex)
	})
	return b.String()
}

func observeConjuncts(t *testing.T, p *Planner, where string) conjunctObservation {
	t.Helper()
	sql := "SELECT c_custkey, c_nationkey FROM customer WHERE " + where + " ORDER BY c_custkey"
	tp, err := p.PlanTP(parse(t, sql))
	if err != nil {
		t.Fatalf("PlanTP(%q): %v", sql, err)
	}
	ap, err := p.PlanAP(parse(t, sql))
	if err != nil {
		t.Fatalf("PlanAP(%q): %v", sql, err)
	}
	obs := conjunctObservation{
		route:  plan.NewModeled(plan.Pair{SQL: sql, TP: tp.Explain, AP: ap.Explain}, latency.Estimate(tp.Explain), latency.Estimate(ap.Explain)).Winner,
		tpTree: nodeShapes(tp.Explain),
		apTree: nodeShapes(ap.Explain),
	}
	a, err := bind(p.Cat, parse(t, sql))
	if err != nil {
		t.Fatal(err)
	}
	scan, err := p.apAccess(a, a.tables[0])
	if err != nil {
		t.Fatal(err)
	}
	cs := scan.op.(*exec.ColTableScan)
	obs.kernels = len(cs.Filter)
	if cs.Pruner != nil {
		// not its slots: they number the literals in the order written
		obs.pruner = fmt.Sprintf("%+v lo=%v hi=%v", *cs.Pruner, cs.Pruner.Lo, cs.Pruner.Hi)
	}
	for _, pp := range []*PhysPlan{tp, ap} {
		rows, err := exec.Drain(pp.Root, exec.NewContext())
		if err != nil {
			t.Fatalf("run %q: %v", sql, err)
		}
		if pp == tp {
			obs.tpRows = fmt.Sprint(rows)
		} else {
			obs.apRow = fmt.Sprint(rows)
		}
	}
	if obs.tpRows != obs.apRow {
		t.Errorf("%s: TP rows %s, AP rows %s", where, obs.tpRows, obs.apRow)
	}
	return obs
}

// TestMirroredAndReorderedConjunctsAlike: a comparison written lit op' col
// is the Sarg col op lit, NOT (col op lit) is col op” lit, a repeated IN
// key is one key, and the order of conjuncts does not matter, two bounds on
// one column included: the binder folds them into one range whichever
// comes first. Each pair of spellings gets the same route, the same TP and
// AP plans up to their condition text (so the same index path and
// estimates), an AP scan of column kernels only (one per conjunct: no
// row-evaluator fallback), the same zone pruner and the same rows.
func TestMirroredAndReorderedConjunctsAlike(t *testing.T) {
	p := testPlanner(t)
	const other = " AND c_mktsegment <> 'x'"
	for _, tc := range []struct{ a, b string }{
		{"c_custkey = 7" + other, "7 = c_custkey" + other},
		{"c_custkey < 7" + other, "7 > c_custkey" + other},
		{"c_custkey <= 7" + other, "7 >= c_custkey" + other},
		{"c_custkey > 140" + other, "140 < c_custkey" + other},
		{"c_custkey >= 140" + other, "140 <= c_custkey" + other},
		{"c_custkey <> 7" + other, "7 <> c_custkey" + other},
		{"c_nationkey = 3 AND c_custkey IN (3, 9, 27, 81)", "c_custkey IN (3, 9, 27, 81) AND 3 = c_nationkey"},
		{"c_nationkey = 3 AND c_custkey BETWEEN 5 AND 60", "c_custkey BETWEEN 5 AND 60 AND 3 = c_nationkey"},
		{"c_custkey > 5 AND c_custkey < 60", "5 < c_custkey AND 60 > c_custkey"},
		{"c_custkey > 5 AND c_custkey < 60", "c_custkey < 60 AND c_custkey > 5"},
		{"c_custkey >= 5 AND c_custkey <= 60" + other, "c_custkey <= 60 AND c_custkey >= 5" + other},
		{"c_custkey > 5 AND c_custkey >= 5 AND c_custkey < 60", "c_custkey < 60 AND c_custkey >= 5 AND c_custkey > 5"},
		{"c_custkey > 5 AND c_custkey < 60 AND c_custkey < 90", "c_custkey < 90 AND 60 > c_custkey AND c_custkey > 5"},
		{"NOT (c_custkey >= 60)" + other, "c_custkey < 60" + other},
		{"NOT (c_custkey IN (3, 9))" + other, "c_custkey NOT IN (3, 9)" + other},
		{"c_custkey IN (3, 9, 3)" + other, "c_custkey IN (9, 3)" + other},
	} {
		a, b := observeConjuncts(t, p, tc.a), observeConjuncts(t, p, tc.b)
		if a != b {
			t.Errorf("%q and %q are treated differently:\n%+v\n%+v", tc.a, tc.b, a, b)
		}
		if want := len(sqlparser.Conjuncts(parse(t, "SELECT 1 FROM customer WHERE "+tc.a).Where)); a.kernels != want {
			t.Errorf("%q: AP scan has %d kernels for %d conjuncts (a row-evaluator fallback)", tc.a, a.kernels, want)
		}
	}
}

// TestIndexKeysPicksThePlannersConjunct: DML reads through the folded
// column the TP planner would — the most selective indexed one, whether a
// comparison is mirrored or negated or conjuncts are reordered — as keys
// or as a range, and only when every conjunct tests a bare column against
// literals.
func TestIndexKeysPicksThePlannersConjunct(t *testing.T) {
	p := testPlanner(t)
	customer, _ := p.Cat.Table("customer")
	five, nine := value.NewInt(5), value.NewInt(9)
	for _, tc := range []struct {
		where  string
		ok     bool
		col    string
		keys   []value.Value
		lo, hi *value.Value
	}{
		{where: "c_nationkey = 3 AND c_custkey = 5", ok: true, col: "c_custkey", keys: []value.Value{five}},
		{where: "c_custkey = 5 AND c_nationkey = 3", ok: true, col: "c_custkey", keys: []value.Value{five}},
		{where: "3 = c_nationkey AND 5 = c_custkey", ok: true, col: "c_custkey", keys: []value.Value{five}},
		{where: "c_custkey IN (5, 9) AND c_mktsegment <> 'x'", ok: true, col: "c_custkey", keys: []value.Value{five, nine}},
		{where: "c_custkey BETWEEN 5 AND 9", ok: true, col: "c_custkey", lo: &five, hi: &nine},
		{where: "9 > c_custkey AND c_name LIKE 'c%'", ok: true, col: "c_custkey", hi: &nine},
		{where: "c_nationkey = 3", ok: true, col: "c_nationkey", keys: []value.Value{value.NewInt(3)}},
		// two bounds on one column are one range, in either order; a
		// strict bound is read inclusively, the WHERE being evaluated on
		// every candidate
		{where: "c_custkey > 5 AND c_custkey <= 9", ok: true, col: "c_custkey", lo: &five, hi: &nine},
		{where: "c_custkey <= 9 AND c_custkey > 5", ok: true, col: "c_custkey", lo: &five, hi: &nine},
		{where: "c_custkey < 20 AND c_custkey BETWEEN 5 AND 9", ok: true, col: "c_custkey", lo: &five, hi: &nine},
		{where: "NOT (c_custkey >= 9)", ok: true, col: "c_custkey", hi: &nine},
		{where: "c_custkey IN (5, 9, 5)", ok: true, col: "c_custkey", keys: []value.Value{five, nine}},
		{where: "c_custkey <> 5"},
		{where: "c_custkey NOT IN (5, 9)"},
		{where: "c_mktsegment = 'machinery'"},
		{where: "c_custkey = 5 AND c_acctbal + 1 > 0"},
		{where: "c_custkey = 5 AND SUBSTRING(c_phone, 1, 2) = '12'"},
		{where: "c_custkey = 5 OR c_custkey = 9"},
	} {
		upd, err := sqlparser.ParseStatement("UPDATE customer SET c_acctbal = 0 WHERE " + tc.where)
		if err != nil {
			t.Fatal(err)
		}
		col, keys, lo, hi, ok := IndexKeys(customer, upd.(*sqlparser.Update).Where)
		if ok != tc.ok || col != tc.col || !slices.EqualFunc(keys, tc.keys, value.Value.Equal) ||
			!reflect.DeepEqual(lo, tc.lo) || !reflect.DeepEqual(hi, tc.hi) {
			t.Errorf("IndexKeys(%s) = %q %v %v %v %v, want %q %v %v %v %v",
				tc.where, col, keys, lo, hi, ok, tc.col, tc.keys, tc.lo, tc.hi, tc.ok)
		}
	}
}

// TestSelectivityPerShape pins the estimate of each conjunct shape, a Sarg
// or not: a comparison between two columns gets its operator's estimate
// (an equality 1/ndv of its left column), an IN with a non-literal item
// k/ndv, a BETWEEN with a column bound the BETWEEN estimate, and a
// mirrored Sarg the estimate of its col op lit spelling.
func TestSelectivityPerShape(t *testing.T) {
	p := testPlanner(t)
	customer, _ := p.Cat.Table("customer")
	custkey, nationkey := 1/ndvOf(customer, "c_custkey"), 1/ndvOf(customer, "c_nationkey")
	if custkey == nationkey {
		t.Fatalf("c_custkey and c_nationkey share an NDV; the equality cases cannot tell which side is read")
	}
	for _, tc := range []struct {
		where string
		want  float64
	}{
		{"c_custkey = c_nationkey", custkey},
		{"c_nationkey = c_custkey", nationkey},
		{"c_custkey <> c_nationkey", 0.9},
		{"c_custkey < c_nationkey", 0.3},
		{"c_custkey >= c_nationkey", 0.3},
		{"c_nationkey IN (c_custkey, 3)", 2 * nationkey},
		{"c_nationkey NOT IN (c_custkey, 3)", 1 - 2*nationkey},
		{"c_custkey BETWEEN c_nationkey AND 9", 0.25},
		{"c_custkey = 5", custkey},
		{"5 = c_custkey", custkey},
		{"c_custkey < 5", 0.3},
		{"5 > c_custkey", 0.3},
		{"SUBSTRING(c_phone, 1, 2) = '12'", 0.04},
		{"'12' = SUBSTRING(c_phone, 1, 2)", 0.04},
		{"SUBSTRING(c_phone, 1, 2) IN ('12', '13')", 2.0 / 25},
		{"c_acctbal + 1 = 5", 0.05},
		{"c_name LIKE 'c%'", 0.05},
		{"c_name LIKE '%c'", 0.1},
	} {
		if got := selectivity(customer, parse(t, "SELECT 1 FROM customer WHERE "+tc.where).Where); got != tc.want {
			t.Errorf("selectivity(%s) = %v, want %v", tc.where, got, tc.want)
		}
	}
}

// TestOneEstimatePerColumn: the estimate of a binding's predicates is one
// per folded column, so every spelling of a range, a key set or a negated
// comparison on one column gets the estimate of its plainest spelling — a
// two-sided range BETWEEN's, a one-sided one a comparison's, k keys k/ndv
// however often a key repeats — and conjuncts the fold does not hold keep
// their own estimate.
func TestOneEstimatePerColumn(t *testing.T) {
	p := testPlanner(t)
	for _, class := range [][]string{
		{"c_custkey BETWEEN 6 AND 59", "c_custkey > 5 AND c_custkey < 60", "c_custkey < 60 AND c_custkey > 5",
			"c_custkey >= 6 AND c_custkey <= 59", "c_custkey <= 59 AND c_custkey >= 6 AND c_custkey < 90"},
		{"c_custkey < 60", "NOT (c_custkey >= 60)", "60 > c_custkey", "c_custkey < 60 AND c_custkey <= 90"},
		{"c_custkey IN (7, 9)", "c_custkey IN (7, 9, 7)", "c_custkey IN (9, 7, 9, 7)"},
		{"c_custkey = 7", "7 = c_custkey", "c_custkey IN (7)", "NOT (c_custkey <> 7)", "c_custkey = 7 AND c_custkey IN (7, 9)"},
		{"c_custkey NOT IN (7, 9)", "NOT (c_custkey IN (7, 9))"},
		{"c_custkey <> 7 AND c_custkey > 5", "c_custkey > 5 AND NOT (c_custkey = 7)"},
	} {
		var want float64
		for i, where := range class {
			a, err := bind(p.Cat, parse(t, "SELECT 1 FROM customer WHERE "+where))
			if err != nil {
				t.Fatal(err)
			}
			got := tableSelectivity(a.tables[0])
			if i == 0 {
				want = got
			} else if got != want {
				t.Errorf("%s: estimate %v, but %s: %v", where, got, class[0], want)
			}
		}
	}
}
