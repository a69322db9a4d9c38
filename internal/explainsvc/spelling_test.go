package explainsvc

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"htapxplain/internal/htap"
	"htapxplain/internal/knowledge"
	"htapxplain/internal/optimizer"
	"htapxplain/internal/plan"
)

// spellingObservation is everything a client or the explainer sees of one
// spelling of a query, short of its text: the served rows, route and work,
// both plans' EXPLAIN shape (every node but its condition, which quotes
// the conjuncts as written), the optimizer's facts, the modeled times and
// winner, the retrieved knowledge and the explanation.
type spellingObservation struct {
	rows, engine, stats string
	shape               string
	facts               string
	modeled             string
	hits                string
	text                string
}

// planShape renders a plan tree without its condition strings.
func planShape(n *plan.Node) string {
	var b strings.Builder
	n.Visit(func(n *plan.Node) {
		fmt.Fprintf(&b, "%v/%v cost=%g rows=%g %s %s index=%v\n",
			n.Op, n.Engine, n.Cost, n.Rows, n.Relation, n.Index, n.UsesIndex)
	})
	return b.String()
}

// TestSpellingsServeAndExplainAlike is a metamorphic oracle over the whole
// serving and explaining path: each class lists spellings of one query —
// mirrored comparisons, reordered conjuncts (two bounds on one column
// among them), BETWEEN against its two inclusive bounds, duplicate IN
// keys, NOT (c >= x) against c < x — and every member, served by
// Gateway.Serve and explained by Service.Explain each on a fresh gateway
// and service (IN lists of any length share one template), must observe
// the same rows, route, scan work, plan shapes, facts, modeled times and
// winner, retrieved hits and explanation text as the first. The simulated
// model picks one of two openings ("X is faster due to" or "X is faster
// here primarily because") by a hash of the question's SQL text, as a
// sampled model's wording varies with its prompt; that one clause is read
// as the first, and every factor the text asserts, in order, must match.
func TestSpellingsServeAndExplainAlike(t *testing.T) {
	sys, err := htap.New(htap.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	router, kb, _, err := Bootstrap(sys, BootstrapConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := kb.Save(&saved); err != nil {
		t.Fatal(err)
	}
	const point = "SELECT o_orderkey, o_totalprice FROM customer, orders WHERE "
	const big = "SELECT COUNT(*), SUM(l_extendedprice) FROM lineitem, orders WHERE l_orderkey = o_orderkey AND "
	const cust = "SELECT c_custkey, c_name FROM customer WHERE "
	for _, class := range [][]string{
		// mirrored, and reordered on different columns
		{point + "o_custkey = c_custkey AND c_custkey = 7", point + "c_custkey = o_custkey AND 7 = c_custkey",
			point + "7 = c_custkey AND o_custkey = c_custkey"},
		{cust + "c_custkey < 60 AND c_mktsegment = 'building'", cust + "60 > c_custkey AND 'building' = c_mktsegment",
			cust + "c_mktsegment = 'building' AND c_custkey < 60"},
		// two bounds on one column, reordered
		{big + "l_shipdate > 100 AND l_shipdate < 700", big + "l_shipdate < 700 AND l_shipdate > 100",
			big + "700 > l_shipdate AND 100 < l_shipdate"},
		// BETWEEN and its two inclusive bounds
		{big + "l_shipdate BETWEEN 100 AND 700", big + "l_shipdate >= 100 AND l_shipdate <= 700",
			big + "l_shipdate <= 700 AND 100 <= l_shipdate"},
		// duplicate IN keys
		{point + "o_custkey = c_custkey AND c_custkey IN (7, 9, 7)", point + "o_custkey = c_custkey AND c_custkey IN (7, 9)",
			point + "o_custkey = c_custkey AND c_custkey IN (9, 7, 9, 9)"},
		// NOT (c >= x) and c < x
		{big + "NOT (l_shipdate >= 700)", big + "l_shipdate < 700", big + "700 > l_shipdate"},
		{big + "NOT (l_shipdate IN (7, 9)) AND o_orderkey < 100", big + "o_orderkey < 100 AND l_shipdate NOT IN (9, 7)"},
	} {
		var first spellingObservation
		for i, sql := range class {
			kb, err := knowledge.Load(bytes.NewReader(saved.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			gw := newGateway(t, sys, 2)
			svc := newService(t, sys, gw, router, kb, Config{Seed: 7})
			// explained first, on an uncalibrated model: a served query
			// calibrates it by its measured wall time
			ex, err := svc.Explain(sql)
			if err != nil {
				t.Fatalf("Explain(%q): %v", sql, err)
			}
			resp := gw.Serve(sql)
			if resp.Err != nil {
				t.Fatalf("Serve(%q): %v", sql, resp.Err)
			}
			var rows []string
			for _, r := range resp.Rows {
				rows = append(rows, fmt.Sprint(r))
			}
			slices.Sort(rows)
			entry, _, err := gw.PlanPair(sql)
			if err != nil {
				t.Fatal(err)
			}
			facts, err := optimizer.Facts(sys.Cat, sql)
			if err != nil {
				t.Fatal(err)
			}
			facts.SQL = ""
			var hits []string
			for _, h := range ex.Retrieved {
				hits = append(hits, fmt.Sprintf("%d@%g", h.Entry.ID, h.Distance))
			}
			obs := spellingObservation{
				rows:    strings.Join(rows, " "),
				engine:  resp.Engine.String(),
				stats:   fmt.Sprintf("%+v", resp.Stats),
				shape:   planShape(entry.Pair.TP) + planShape(entry.Pair.AP),
				facts:   fmt.Sprintf("%+v", *facts),
				modeled: fmt.Sprintf("TP %v AP %v winner %v", ex.Result.TPTime, ex.Result.APTime, ex.Result.Winner),
				hits:    strings.Join(hits, " "),
				text:    strings.Replace(ex.Text(), " is faster here primarily because ", " is faster due to ", 1),
			}
			if len(resp.Rows) == 0 || len(ex.Retrieved) == 0 {
				t.Fatalf("%s: %d rows, %d hits: the class checks nothing", sql, len(resp.Rows), len(ex.Retrieved))
			}
			if i == 0 {
				first = obs
				continue
			}
			for _, f := range []struct{ name, a, b string }{
				{"rows", first.rows, obs.rows}, {"engine", first.engine, obs.engine}, {"stats", first.stats, obs.stats},
				{"plan shape", first.shape, obs.shape}, {"facts", first.facts, obs.facts},
				{"modeled", first.modeled, obs.modeled}, {"hits", first.hits, obs.hits}, {"text", first.text, obs.text},
			} {
				if f.a != f.b {
					t.Errorf("%q and %q differ in %s:\n%s\n%s", class[0], sql, f.name, f.a, f.b)
				}
			}
		}
	}
}
