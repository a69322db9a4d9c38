package gateway

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math/rand"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"htapxplain/internal/exec"
	"htapxplain/internal/htap"
	"htapxplain/internal/obs"
	"htapxplain/internal/plan"
	"htapxplain/internal/shard"
	"htapxplain/internal/sqlparser"
	"htapxplain/internal/tpch"
	"htapxplain/internal/value"
)

// The one-path suite: a single system is a one-shard fleet, so one table
// of statements through Gateway.Serve must give the answers of a bare,
// unsharded htap.System at every fleet size.

// refOutcome is what the unsharded reference says a statement does.
type refOutcome struct {
	kind     string
	rows     []value.Row
	affected int
	rootRows int64 // EXPLAIN ANALYZE: rows out of the plan's root operator
	failed   bool
}

// refServe executes sql on the reference system the way a client of the
// gateway would see it: reads through Run, DML through Exec, blocks
// through one transaction, EXPLAIN ANALYZE through the instrumented AP
// plan.
func refServe(t *testing.T, ref *htap.System, sql string) refOutcome {
	t.Helper()
	if body, explain, analyze := sqlparser.StripExplain(sql); explain {
		if !analyze {
			return refOutcome{kind: "explain"}
		}
		sel, err := sqlparser.Parse(body)
		if err != nil {
			t.Fatalf("reference parse %q: %v", body, err)
		}
		phys, err := ref.Planner.PlanAP(sel)
		if err != nil {
			t.Fatalf("reference plan %q: %v", body, err)
		}
		rows, prof, err := phys.ExecuteAnalyzed(exec.NewContext())
		if err != nil {
			t.Fatalf("reference analyze %q: %v", body, err)
		}
		return refOutcome{kind: "explain_analyze", rows: rows, rootRows: prof.Rows}
	}
	switch kind := sqlparser.StatementKind(sql); kind {
	case "insert", "update", "delete":
		res, err := ref.Exec(sql)
		if err != nil {
			return refOutcome{kind: kind, failed: true}
		}
		return refOutcome{kind: res.Kind, affected: res.RowsAffected}
	case "begin", "commit", "rollback":
		script, err := sqlparser.ParseScript(sql)
		if err != nil {
			return refOutcome{kind: "txn", failed: true}
		}
		tx := ref.Begin()
		for _, stmt := range script.Stmts {
			if _, err := tx.ExecStmt(stmt); err != nil {
				tx.Rollback()
				return refOutcome{kind: "rollback", failed: true}
			}
		}
		if !script.Commit {
			tx.Rollback()
			return refOutcome{kind: "rollback"}
		}
		txr, err := tx.Commit()
		if errors.Is(err, htap.ErrConflict) {
			return refOutcome{kind: "conflict", failed: true}
		}
		if err != nil {
			t.Fatalf("reference commit %q: %v", sql, err)
		}
		return refOutcome{kind: "commit", affected: txr.RowsAffected}
	}
	res, err := ref.Run(sql)
	if err != nil {
		t.Fatalf("reference Run(%q): %v", sql, err)
	}
	if !res.ResultsAgree {
		t.Fatalf("reference engines disagree on %q", sql)
	}
	return refOutcome{kind: "select", rows: res.APRows}
}

// keysOnDistinctShards returns two customer keys that live on different
// shards of an n-shard fleet (the same shard when n is 1).
func keysOnDistinctShards(n int) (a, b int64) {
	a = 7
	for b = a + 1; n > 1 && shard.ShardOf(value.NewInt(b), n) == shard.ShardOf(value.NewInt(a), n); b++ {
	}
	return a, b
}

// insertCustomers renders one INSERT of the given new customer keys.
func insertCustomers(keys ...int64) string {
	var b strings.Builder
	b.WriteString(`INSERT INTO customer (c_custkey, c_name, c_address, c_nationkey, c_phone, c_acctbal, c_mktsegment, c_comment) VALUES `)
	for i, k := range keys {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, `(%d, 'cust%d', 'addr', 1, '11-000', 10.0, 'BUILDING', 'onepath')`, k, k)
	}
	return b.String()
}

// literalTemplate is one template of the literal-vector table: its
// statements, all of one fingerprint, and whether a reply is held to the
// reference's rows or — a LIMIT with no ORDER BY, whose rows are the
// executor's pick — to their count. breaks, when set, reports the vectors
// whose literals break a tie of the plan vector 0 was planned into (see
// sqlparser.Tie): each is planned for itself.
type literalTemplate struct {
	name      string
	vectors   []string
	countOnly bool
	breaks    func(i int) bool
}

// literalVectors is the number of statements per literal template.
const literalVectors = 64

// literalTemplates builds the literal-vector table: every tp, ap and
// explain template of the benchmark (bench/defs.go) and the shapes they
// lack. Across the table the vectors change the owning shard, flip a
// statement between routed and scatter, move a zone-pruned range, vary an
// IN list between 1 and 3 items, run OFFSET 0 and OFFSET > 0 through a
// DOP-4 limit, reach LIMIT 0, put an int, a float and a string into one
// slot, bind negative numbers and doubled quotes, give LIKE every matcher
// shape, and keep, swap or break the pairing of a select item with the
// GROUP BY term or aggregate it is matched to by its text. seed draws the
// literals.
func literalTemplates(t testing.TB, seed int64) []literalTemplate {
	r := rand.New(rand.NewSource(seed))
	pick := func(xs []string) string { return xs[r.Intn(len(xs))] }
	quote := func(s string) string { return "'" + strings.ReplaceAll(s, "'", "''") + "'" }
	// mixed is usual for most vectors; every ninth is an int, a float or a
	// string with a doubled quote instead
	mixed := func(i int, usual string) string {
		switch i % 9 {
		case 4:
			return strconv.Itoa(r.Intn(3000))
		case 6:
			return fmt.Sprintf("%d.25", r.Intn(3000))
		case 8:
			return quote(fmt.Sprintf("it's %d", r.Intn(30)))
		}
		return usual
	}
	codes := func() string { // an IN list of 1 to 3 phone country codes
		var cs []string
		for k := 1 + r.Intn(3); k > 0; k-- {
			cs = append(cs, quote(strconv.Itoa(10+r.Intn(25))))
		}
		return strings.Join(cs, ", ")
	}
	keys := func() string { // an IN list of 1 to 3 customer keys
		var ks []string
		for k := 1 + r.Intn(3); k > 0; k-- {
			ks = append(ks, strconv.Itoa(1+r.Intn(310)))
		}
		return strings.Join(ks, ", ")
	}
	// orders of real customers, so a pinned pair sometimes holds a row
	var owned [][2]int64
	for _, row := range refRows(t, testSystem(t), `SELECT o_custkey, o_orderkey FROM orders WHERE o_orderkey < 400`, plan.AP) {
		owned = append(owned, [2]int64{row[0].I, row[1].I})
	}
	likes := []string{"ironic", "ironic%", "%ironic", "%ironic%", "%iro_ic%", "%it''s%", "%"}
	gen := func(name string, countOnly bool, vec func(i int) string) literalTemplate {
		lt := literalTemplate{name: name, countOnly: countOnly}
		for i := 0; i < literalVectors; i++ {
			lt.vectors = append(lt.vectors, vec(i))
		}
		return lt
	}
	// tied is a template whose plan matches expressions by their text,
	// literals included. vec(i%4, x, y, z) renders class i%4 from three
	// distinct literals: 0 keeps vector 0's pairing with fresh literals, 1
	// swaps it, 2 names what nothing matches (an error, as a fresh plan's),
	// and 3 spells every candidate alike, which keeps it too
	tied := func(name string, lits []int, vec func(class, x, y, z int) string) literalTemplate {
		lt := gen(name, false, func(i int) string {
			p := r.Perm(len(lits))
			return vec(i%4, lits[p[0]], lits[p[1]], lits[p[2]])
		})
		lt.breaks = func(i int) bool { return i%4 == 1 || i%4 == 2 }
		return lt
	}
	return []literalTemplate{
		// select items matched to GROUP BY terms
		tied("grouped substrings", []int{2, 3, 5}, func(class, x, y, z int) string {
			items, terms := [2]int{x, y}, [2]int{x, y}
			switch class {
			case 1:
				items = [2]int{y, x}
			case 2:
				items[1] = z
			case 3:
				items, terms = [2]int{x, x}, [2]int{x, x}
			}
			return fmt.Sprintf(`SELECT SUBSTRING(c_phone, 1, %d), SUBSTRING(c_phone, 1, %d), COUNT(*) FROM customer`+
				` GROUP BY SUBSTRING(c_phone, 1, %d), SUBSTRING(c_phone, 1, %d)`, items[0], items[1], terms[0], terms[1])
		}),
		// an ORDER BY aggregate matched to a select item: SUM(k - c_acctbal)
		// is k·n − Σ, so k reorders the segments
		tied("ordered aggregate", []int{0, 3000, 10000}, func(class, x, y, z int) string {
			aggs, key := [2]int{x, y}, x
			switch class {
			case 1:
				key = y
			case 2:
				key = z
			case 3:
				aggs = [2]int{x, x}
			}
			return fmt.Sprintf(`SELECT c_mktsegment, SUM(%d - c_acctbal), SUM(%d - c_acctbal) FROM customer`+
				` GROUP BY c_mktsegment ORDER BY SUM(%d - c_acctbal) LIMIT 2`, aggs[0], aggs[1], key)
		}),
		gen("join3_phone_inlist", false, func(i int) string {
			start := 1
			if i%5 == 3 {
				start = 2
			}
			return fmt.Sprintf(`SELECT COUNT(*) FROM customer, nation, orders WHERE SUBSTRING(c_phone, %d, %d) IN (%s)`+
				` AND c_mktsegment = %s AND n_name = %s AND o_orderstatus = %s AND o_custkey = c_custkey AND n_nationkey = c_nationkey`,
				start, 2+r.Intn(2)-start+1, codes(), mixed(i, quote(pick(tpch.MktSegments))), quote(pick(tpch.Nations)), quote(pick(tpch.OrderStatuses)))
		}),
		gen("join2_segment_agg", false, func(i int) string {
			return fmt.Sprintf(`SELECT COUNT(*), SUM(o_totalprice) FROM customer, orders WHERE o_custkey = c_custkey AND c_mktsegment = %s`,
				mixed(i, quote(pick(tpch.MktSegments))))
		}),
		gen("join2_point_orders", false, func(i int) string {
			return fmt.Sprintf(`SELECT o_orderkey, o_totalprice FROM customer, orders WHERE o_custkey = c_custkey AND c_custkey = %s`,
				mixed(i, strconv.Itoa(1+r.Intn(300))))
		}),
		gen("join2_lineitem_big", false, func(i int) string {
			lo := r.Intn(1500)
			return fmt.Sprintf(`SELECT COUNT(*), SUM(l_extendedprice) FROM lineitem, orders WHERE l_orderkey = o_orderkey AND l_shipdate BETWEEN %d AND %s`,
				lo, mixed(i, strconv.Itoa(lo+180+r.Intn(700))))
		}),
		gen("join3_supplier", false, func(i int) string {
			return fmt.Sprintf(`SELECT COUNT(*) FROM supplier, nation, customer WHERE s_nationkey = n_nationkey AND c_nationkey = n_nationkey`+
				` AND n_name = %s AND s_acctbal > %s`, quote(pick(tpch.Nations)), mixed(i, strconv.Itoa(1000+r.Intn(8000))))
		}),
		gen("join2_part_brand", false, func(i int) string {
			return fmt.Sprintf(`SELECT COUNT(*), AVG(ps_supplycost) FROM partsupp, part WHERE ps_partkey = p_partkey AND p_brand = %s`,
				mixed(i, quote(fmt.Sprintf("brand#%d%d", 1+r.Intn(5), 1+r.Intn(5)))))
		}),
		gen("topn_indexed_pk", false, func(i int) string {
			return fmt.Sprintf(`SELECT o_orderkey, o_totalprice FROM orders ORDER BY o_orderkey LIMIT %d`, i)
		}),
		gen("topn_price_desc", false, func(i int) string {
			return fmt.Sprintf(`SELECT o_orderkey, o_totalprice FROM orders ORDER BY o_totalprice DESC LIMIT %d`, (i*7)%100)
		}),
		gen("topn_offset_deep", false, func(i int) string {
			return fmt.Sprintf(`SELECT c_custkey, c_name, c_acctbal FROM customer ORDER BY c_acctbal DESC LIMIT %d OFFSET %d`, i%30, r.Intn(320))
		}),
		gen("topn_filtered", false, func(i int) string {
			return fmt.Sprintf(`SELECT c_custkey, c_name FROM customer WHERE c_mktsegment = %s ORDER BY c_custkey LIMIT %d`,
				mixed(i, quote(pick(tpch.MktSegments))), i%31)
		}),
		gen("rare_join4_wide", false, func(i int) string {
			return fmt.Sprintf(`SELECT COUNT(*) FROM customer, nation, orders, lineitem WHERE c_nationkey = n_nationkey AND o_custkey = c_custkey`+
				` AND l_orderkey = o_orderkey AND c_mktsegment = %s AND n_name = %s`, quote(pick(tpch.MktSegments)), mixed(i, quote(pick(tpch.Nations))))
		}),
		gen("rare_agg_nojoin", false, func(i int) string {
			return fmt.Sprintf(`SELECT l_shipmode, COUNT(*), AVG(l_extendedprice) FROM lineitem WHERE l_quantity > %s GROUP BY l_shipmode`,
				mixed(i, strconv.Itoa(r.Intn(50))))
		}),
		gen("rare_tiny_dim_join", false, func(i int) string {
			return fmt.Sprintf(`SELECT n_name FROM nation, region WHERE n_regionkey = r_regionkey AND r_name = %s`, mixed(i, quote(pick(tpch.Regions))))
		}),
		gen("rare_like_scan", false, func(i int) string {
			return fmt.Sprintf(`SELECT COUNT(*) FROM orders WHERE o_comment LIKE '%s'`, likes[i%len(likes)])
		}),
		// a LIKE the scan's kernels cannot take: the row evaluator's
		gen("evaluated like", false, func(i int) string {
			return fmt.Sprintf(`SELECT COUNT(*) FROM orders WHERE SUBSTRING(o_comment, 1, %d) LIKE '%s'`, 10+i%30, likes[i%len(likes)])
		}),
		// the owning shard moves with the key
		gen("pinned", false, func(i int) string {
			return fmt.Sprintf(`SELECT c_custkey, c_name, c_acctbal FROM customer WHERE c_custkey = %s`, mixed(i, strconv.Itoa(1+r.Intn(300))))
		}),
		// routed when both keys hash to one shard, a scatter otherwise
		gen("pinned pair", false, func(i int) string {
			o := owned[r.Intn(len(owned))]
			if i%2 == 1 {
				o[1] = owned[r.Intn(len(owned))][1]
			}
			return fmt.Sprintf(`SELECT c_name, o_totalprice FROM customer, orders WHERE o_custkey = c_custkey AND c_custkey = %d AND o_orderkey = %d`, o[0], o[1])
		}),
		// lineitem is clustered on l_orderkey: the range moves the pruned chunks
		gen("clustered range", false, func(i int) string {
			lo := r.Intn(3000)
			return fmt.Sprintf(`SELECT COUNT(*), SUM(l_extendedprice) FROM lineitem WHERE l_orderkey BETWEEN %d AND %s`, lo, mixed(i, strconv.Itoa(lo+r.Intn(1500))))
		}),
		// a slot before the list: the list's values start after its
		gen("key list", false, func(i int) string {
			return fmt.Sprintf(`SELECT c_custkey, c_name FROM customer WHERE c_nationkey >= %d AND c_custkey IN (%s)`, 1+r.Intn(5), keys())
		}),
		// planned on one key, the list is the zone-map range the encoded
		// aggregate selects by; a vector of several keys leaves no range
		gen("one-key list", false, func(i int) string {
			qs := []string{strconv.Itoa(1 + r.Intn(50))}
			for k := r.Intn(3); i > 0 && k > 0; k-- {
				qs = append(qs, strconv.Itoa(1+r.Intn(50)))
			}
			return fmt.Sprintf(`SELECT COUNT(*), SUM(l_extendedprice) FROM lineitem WHERE l_quantity IN (%s)`, strings.Join(qs, ", "))
		}),
		gen("negated bound", false, func(i int) string {
			bound := strconv.Itoa(r.Intn(1000))
			if i%3 == 1 {
				bound = fmt.Sprintf("%d.5", r.Intn(1000))
			}
			return fmt.Sprintf(`SELECT c_custkey, c_acctbal FROM customer WHERE c_acctbal > -%s ORDER BY c_custkey LIMIT %d`, bound, 5+i%20)
		}),
		// a DOP-4 limit: forked at OFFSET 0, serial under an offset
		gen("parallel limit", true, func(i int) string {
			off := 0
			if i%2 == 1 {
				off = 1 + r.Intn(400)
			}
			return fmt.Sprintf(`SELECT l_orderkey FROM lineitem WHERE l_quantity > %d LIMIT %d OFFSET %d`, r.Intn(50), (i*37)%900, off)
		}),
	}
}

// literalReference memoizes the unsharded reference for a statement on one
// engine: testSystem plans it afresh and runs it serially — its rows, or
// the error of a statement the fresh plan refuses.
type literalReference map[string]literalResult

type literalResult struct {
	rows []value.Row
	err  error
}

func (m literalReference) rows(t *testing.T, sql string, eng plan.Engine) ([]value.Row, error) {
	t.Helper()
	key := eng.String() + ":" + sql
	if r, ok := m[key]; ok {
		return r.rows, r.err
	}
	var r literalResult
	res, err := testSystem(t).Run(sql)
	switch {
	case err != nil:
		r.err = err
	case eng == plan.TP:
		r.rows = res.TPRows
	default:
		r.rows = res.APRows
	}
	m[key] = r
	return r.rows, r.err
}

// serveLiteralTemplates is the literal-vector half of the differential: a
// template's first statement is a miss, and every later one a hit — or a
// template hit the first time its target (a shard or the scatter) is
// served, and every time its literals break the kept plan's ties — and
// each reply holds the reference's rows, or fails where it fails.
func serveLiteralTemplates(t *testing.T, g *Gateway, coord *shard.Coordinator, ref literalReference) {
	n := coord.NumShards()
	for _, lt := range literalTemplates(t, 27) {
		fp, _, _ := sqlparser.Fingerprint(lt.vectors[0])
		planned := map[int]bool{} // the targets the template has plans for
		skipped := map[int64]bool{}
		forked, serialOffset := false, true
		for i, sql := range lt.vectors {
			if got, _, _ := sqlparser.Fingerprint(sql); got != fp {
				t.Fatalf("%s: vector %d has another fingerprint:\n%s\n%s", lt.name, i, got, fp)
			}
			target, _, err := coord.Route(sql)
			if err != nil {
				t.Fatal(err)
			}
			want := CacheHit
			switch {
			case i == 0:
				want = CacheMiss
			case !planned[target], lt.breaks != nil && lt.breaks(i):
				want = CacheTemplateHit
			}
			resp := g.Serve(sql)
			refRows, refErr := ref.rows(t, sql, resp.Engine)
			if (resp.Err != nil) != (refErr != nil) || resp.Cache != want {
				t.Fatalf("%s, vector %d on target %d: cache %v err %v, want %v and err %v\n%s", lt.name, i, target, resp.Cache, resp.Err, want, refErr, sql)
			}
			planned[target] = true
			if i == 0 && target < 0 {
				planned[0] = true // a scatter's miss plans its pair on shard 0
			}
			if refErr != nil {
				continue
			}
			if lt.countOnly && len(resp.Rows) != len(refRows) || !lt.countOnly && !sameRows(resp.Rows, refRows) {
				t.Fatalf("%s, vector %d (%v, %v): %d rows diverge from the reference's %d\n%s\n got %v\nwant %v",
					lt.name, i, resp.Cache, resp.Engine, len(resp.Rows), len(refRows), sql, resp.Rows, refRows)
			}
			skipped[resp.Stats.ChunksSkipped] = true
			if lt.name == "parallel limit" && n == 1 {
				offset := !strings.HasSuffix(sql, "OFFSET 0")
				forked = forked || !offset && resp.Stats.ParallelWorkers > 0
				serialOffset = serialOffset && (!offset || resp.Stats.ParallelWorkers == 0)
			}
		}
		if len(planned) > n+1 {
			t.Errorf("%s: planned on %d targets of a %d-shard fleet", lt.name, len(planned), n)
		}
		switch {
		case lt.name == "pinned" && n > 1 && len(planned) < 2:
			t.Errorf("pinned: every key on one shard")
		case lt.name == "pinned pair" && n > 1 && (!planned[-1] || len(planned) < 3):
			t.Errorf("pinned pair: targets %v, want the scatter and a routed shard", planned)
		case lt.name == "clustered range" && len(skipped) < 2:
			t.Errorf("clustered range: every vector pruned the same chunks")
		case lt.name == "parallel limit" && n == 1 && (!forked || !serialOffset):
			t.Errorf("parallel limit: forked at OFFSET 0 %v, serial under an offset %v", forked, serialOffset)
		}
	}

	// a unary minus folds into a number but not into a string, so one
	// fingerprint can number its literals two ways: literals that do not
	// pair with the template's slots (a string where the template negates a
	// number) are planned for the statement alone, and so is a plan that
	// numbers them otherwise — a template hit every time, the kept plans
	// untouched
	paired := `SELECT c_custkey FROM customer WHERE c_custkey > 0 OR c_name = -5`
	unpaired := `SELECT c_custkey FROM customer WHERE c_custkey > 0 OR c_name = -'x'`
	a, b := keysOnDistinctShards(n)
	str := func(k int64) string {
		return fmt.Sprintf(`SELECT c_custkey FROM customer WHERE c_custkey = %d AND (c_custkey > 0 OR c_name = -'x')`, k)
	}
	num := func(k int64) string {
		return fmt.Sprintf(`SELECT c_custkey FROM customer WHERE c_custkey = %d AND (c_custkey > 0 OR c_name = -5)`, k)
	}
	fleet := func(outcome CacheOutcome) CacheOutcome {
		if n == 1 {
			return CacheHit
		}
		return outcome
	}
	for i, c := range []struct {
		sql  string
		want CacheOutcome
	}{
		{paired, CacheMiss}, {unpaired, CacheTemplateHit}, {unpaired, CacheTemplateHit}, {paired, CacheHit},
		{str(a), CacheMiss}, {num(b), fleet(CacheTemplateHit)}, {num(b), fleet(CacheTemplateHit)},
		{str(b), fleet(CacheTemplateHit)}, {num(b), CacheHit}, {num(a), CacheHit},
	} {
		resp := g.Serve(c.sql)
		refRows, refErr := ref.rows(t, c.sql, resp.Engine)
		if resp.Err != nil || refErr != nil || resp.Cache != c.want || !sameRows(resp.Rows, refRows) {
			t.Fatalf("serve %d of %q: cache %v err %v, want %v and the reference's rows", i+1, c.sql, resp.Cache, resp.Err, c.want)
		}
	}
}

// FuzzHitMatchesFreshPlan: a statement of a literal template served as a
// hit on a warm gateway — its template planned for other literals, the new
// ones bound at execute time into a pooled plan — returns the rows the
// same statement returns planned afresh on a cold gateway, or fails where
// that fails, on one shard and on four, serial and forked (a one-worker
// ledger grants no extra workers, so every plan runs at DOP 1). The fuzzer
// picks the literals' seed, the template and the vector.
func FuzzHitMatchesFreshPlan(f *testing.F) {
	// as in TestOnePathDifferential: DOP-4 plans on every machine
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	type fleet struct {
		name       string
		warm, cold *Gateway
	}
	var fleets []fleet
	for _, n := range []int{1, 4} {
		coord := testCoordinator(f, n)
		for _, workers := range []int{1, 4} {
			cfg := Config{Workers: workers, CacheCapacity: 64}
			fl := fleet{fmt.Sprintf("%d shards, %d workers", n, workers), NewSharded(coord, cfg), NewSharded(coord, cfg)}
			f.Cleanup(fl.warm.Stop)
			f.Cleanup(fl.cold.Stop)
			fleets = append(fleets, fl)
		}
	}
	for i := range literalTemplates(f, 27) {
		f.Add(int64(27), uint8(i), uint8(1+i))
	}
	f.Fuzz(func(t *testing.T, seed int64, tmpl, vec uint8) {
		lts := literalTemplates(t, seed)
		lt := lts[int(tmpl)%len(lts)]
		sql := lt.vectors[int(vec)%len(lt.vectors)]
		for _, fl := range fleets {
			fl.warm.Serve(lt.vectors[0]) // plans the template unless it is cached
			hit := fl.warm.Serve(sql)
			fl.cold.InvalidatePlans()
			fresh := fl.cold.Serve(sql)
			if hit.Cache == CacheMiss || fresh.Cache != CacheMiss {
				t.Fatalf("%s on %s: warm %v, cold %v; want a hit and a miss\n%s", lt.name, fl.name, hit.Cache, fresh.Cache, sql)
			}
			if (hit.Err != nil) != (fresh.Err != nil) {
				t.Fatalf("%s on %s: hit err %v, fresh plan err %v\n%s", lt.name, fl.name, hit.Err, fresh.Err, sql)
			}
			if lt.countOnly && len(hit.Rows) != len(fresh.Rows) || !lt.countOnly && !sameRows(hit.Rows, fresh.Rows) {
				t.Fatalf("%s on %s (%v): the hit's %d rows diverge from a fresh plan's %d\n%s\n got %v\nwant %v",
					lt.name, fl.name, hit.Cache, len(hit.Rows), len(fresh.Rows), sql, hit.Rows, fresh.Rows)
			}
		}
	})
}

func TestOnePathDifferential(t *testing.T) {
	// the planner sizes DOP from GOMAXPROCS: 4 makes the parallel limit a
	// DOP-4 plan on every machine
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ref := literalReference{}
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			coord := testCoordinator(t, n)
			cfg := Config{Workers: 4, CacheCapacity: 64}
			g := NewSharded(coord, cfg)
			defer g.Stop()
			serveLiteralTemplates(t, g, coord, ref)
			g.InvalidatePlans()
			ref := writeSystem(t)

			a, b := keysOnDistinctShards(n)
			pinned := fmt.Sprintf(`SELECT c_custkey, c_name, c_acctbal FROM customer WHERE c_custkey = %d`, a)
			steps := []struct {
				name    string
				sql     string
				ordered bool
			}{
				{"pinned select", pinned, false},
				{"scatter aggregate", `SELECT c_mktsegment, COUNT(*), SUM(c_acctbal), MIN(c_acctbal) FROM customer GROUP BY c_mktsegment`, false},
				{"scatter join with a move", `SELECT c_mktsegment, COUNT(*), SUM(o_totalprice) FROM customer, orders WHERE o_custkey = c_custkey GROUP BY c_mktsegment`, false},
				{"scatter order by limit", `SELECT c_custkey, c_name, c_acctbal FROM customer WHERE c_acctbal > 5000 ORDER BY c_custkey LIMIT 20`, true},
				{"replicated only", `SELECT n_name, n_regionkey FROM nation WHERE n_regionkey = 1`, false},
				{"explain pinned", `EXPLAIN ` + pinned, false},
				{"explain scatter", `EXPLAIN SELECT COUNT(*) FROM orders`, false},
				{"explain analyze pinned", `EXPLAIN ANALYZE ` + pinned, false},
				{"explain analyze scatter", `EXPLAIN ANALYZE SELECT COUNT(*) FROM orders`, false},
				{"explain analyze scatter group", `EXPLAIN ANALYZE SELECT o_orderstatus, COUNT(*) FROM orders GROUP BY o_orderstatus`, false},
				{"insert one", insertCustomers(4000000001), false},
				{"insert across shards", insertCustomers(4000000002, 4000000003, 4000000004, 4000000005), false},
				{"insert replicated", `INSERT INTO nation (n_nationkey, n_name, n_regionkey, n_comment) VALUES (77, 'onepath', 1, 'x')`, false},
				{"update pinned", fmt.Sprintf(`UPDATE customer SET c_acctbal = c_acctbal + 5 WHERE c_custkey = %d`, a), false},
				{"update unpinned", `UPDATE customer SET c_comment = 'swept' WHERE c_custkey >= 4000000001`, false},
				{"delete pinned", `DELETE FROM customer WHERE c_custkey = 4000000005`, false},
				{"delete nothing", `DELETE FROM customer WHERE c_custkey = 4999999999`, false},
				{"failed write", `INSERT INTO nosuch VALUES (1)`, false},
				{"commit block", fmt.Sprintf(`BEGIN; UPDATE customer SET c_acctbal = 1.5 WHERE c_custkey = %d; %s; COMMIT`,
					a, insertCustomers(4000000006)), false},
				{"rollback block", `BEGIN; DELETE FROM customer WHERE c_custkey = 4000000001; ROLLBACK`, false},
				{"failed block", `BEGIN; DELETE FROM customer WHERE c_custkey = 4000000002; INSERT INTO nosuch VALUES (1); COMMIT`, false},
				{"cross-shard block", fmt.Sprintf(`BEGIN; UPDATE customer SET c_acctbal = 2.5 WHERE c_custkey = %d; `+
					`UPDATE customer SET c_acctbal = 3.5 WHERE c_custkey = %d; COMMIT`, a, b), false},
				{"pinned select after writes", pinned, false},
				{"scatter after writes", `SELECT COUNT(*), SUM(c_acctbal) FROM customer`, false},
				{"replicated after writes", `SELECT COUNT(*) FROM nation`, false},
				{"explain analyze after writes", `EXPLAIN ANALYZE SELECT COUNT(*) FROM customer`, false},
			}
			// serve runs sql through the gateway and the reference, once both
			// have replicated every commit, and holds the gateway's answer to
			// the reference's
			serve := func(name, sql string, ordered bool) *Response {
				t.Helper()
				// AP reads are fresh up to the replication watermark
				if err := coord.WaitFresh(10 * time.Second); err != nil {
					t.Fatal(err)
				}
				if err := ref.WaitFresh(10 * time.Second); err != nil {
					t.Fatal(err)
				}
				want := refServe(t, ref, sql)
				got := g.Serve(sql)
				if (got.Err != nil) != want.failed {
					t.Fatalf("%s: err = %v, reference failed = %v", name, got.Err, want.failed)
				}
				if got.Kind != want.kind {
					t.Fatalf("%s: kind %q, reference %q", name, got.Kind, want.kind)
				}
				if got.RowsAffected != want.affected {
					t.Fatalf("%s: rows_affected %d, reference %d", name, got.RowsAffected, want.affected)
				}
				switch {
				case ordered:
					if len(got.Rows) != len(want.rows) {
						t.Fatalf("%s: %d rows, reference %d", name, len(got.Rows), len(want.rows))
					}
					for i := range got.Rows {
						if !sameRow(got.Rows[i], want.rows[i]) {
							t.Fatalf("%s: row %d = %v, reference %v", name, i, got.Rows[i], want.rows[i])
						}
					}
				case !sameRows(got.Rows, want.rows):
					t.Fatalf("%s: rows diverge from the reference:\n got %v\nwant %v", name, got.Rows, want.rows)
				}
				switch got.Kind {
				case "explain":
					if got.Explain == "" {
						t.Fatalf("%s: empty plan rendering", name)
					}
				case "explain_analyze":
					if got.Profile == nil || got.Profile.Rows != want.rootRows {
						t.Fatalf("%s: profile root %+v, reference root rows %d", name, got.Profile, want.rootRows)
					}
				}
				return got
			}
			crossBefore := coord.Stats().CrossShardTxns
			for _, st := range steps {
				serve(st.name, st.sql, st.ordered)
			}
			if d := coord.Stats().CrossShardTxns - crossBefore; (n > 1) != (d > 0) {
				t.Errorf("cross-shard commits advanced by %d on %d shards", d, n)
			}

			// a repeated pinned read re-executes the retained plan
			if resp := g.Serve(pinned); resp.Err != nil || resp.Cache != CacheHit {
				t.Errorf("repeated pinned read: cache %v err %v, want a hit", resp.Cache, resp.Err)
			}

			// cached scatters: each scatter read of the table runs its
			// template's kept scatter plan until InvalidatePlans drops it;
			// then it is served three times — a miss, then two full hits,
			// each after a committed write, a refresh and a merge, and each
			// equal to the reference — and its EXPLAIN ANALYZE stays a miss
			var scatters []int
			for i, st := range steps {
				if sqlparser.StatementKind(st.sql) != "select" {
					continue
				}
				if target, _, err := coord.Route(st.sql); err != nil {
					t.Fatal(err)
				} else if target < 0 {
					scatters = append(scatters, i)
				}
			}
			if (n > 1) != (len(scatters) > 0) {
				t.Fatalf("%d scatter reads on %d shards", len(scatters), n)
			}
			for _, i := range scatters {
				if got := serve(steps[i].name, steps[i].sql, steps[i].ordered); got.Cache != CacheHit {
					t.Fatalf("%s served again: cache %v, want a hit on its bound scatter", steps[i].name, got.Cache)
				}
			}
			g.InvalidatePlans()
			key := int64(4100000000)
			for _, i := range scatters {
				st := steps[i]
				for k, want := range []CacheOutcome{CacheMiss, CacheHit, CacheHit} {
					if k > 0 {
						key++
						serve("write before a cached scatter", fmt.Sprintf(`BEGIN; %s; `+
							`INSERT INTO orders (o_orderkey, o_custkey, o_orderstatus, o_totalprice, o_orderdate, o_orderpriority, o_clerk, o_shippriority, o_comment) `+
							`VALUES (%d, %d, 'o', 5.0, 9000, '1-urgent', 'clerk', 0, 'cached'); `+
							`UPDATE customer SET c_acctbal = c_acctbal + 1000 WHERE c_custkey = %d; COMMIT`,
							insertCustomers(key), key, key, a), false)
						if err := coord.WaitFresh(10 * time.Second); err != nil {
							t.Fatal(err)
						}
						for s := 0; s < n; s++ {
							coord.Shard(s).Col.MergeAll()
						}
					}
					if got := serve(st.name, st.sql, st.ordered); got.Cache != want || got.Engine != plan.AP {
						t.Fatalf("%s, serve %d after InvalidatePlans: cache %v engine %v, want %v on AP", st.name, k+1, got.Cache, got.Engine, want)
					}
				}
				if got := serve("explain analyze "+st.name, "EXPLAIN ANALYZE "+st.sql, st.ordered); got.Cache != CacheMiss {
					t.Fatalf("EXPLAIN ANALYZE of a bound scatter (%s): cache %v, want a miss", st.name, got.Cache)
				}
			}

			// a forced conflict: the loser's snapshot is pinned while the
			// winner holds the owning shard's commit critical section
			hot := fmt.Sprintf(`UPDATE customer SET c_acctbal = c_acctbal + 100 WHERE c_custkey = %d`, b)
			owner := coord.Shard(shard.ShardOf(value.NewInt(b), n))
			win := owner.Begin()
			if _, err := win.Exec(hot); err != nil {
				t.Fatal(err)
			}
			prepared, err := win.Prepare(nil)
			if err != nil {
				t.Fatal(err)
			}
			begun := owner.TxnStats().Begun
			lost := make(chan *Response, 1)
			go func() { lost <- g.Serve(`BEGIN; ` + hot + `; COMMIT`) }()
			for owner.TxnStats().Begun == begun {
				time.Sleep(time.Millisecond)
			}
			if _, wait, err := prepared.Publish(); err != nil {
				t.Fatal(err)
			} else if wait != nil {
				if err := wait(); err != nil {
					t.Fatal(err)
				}
			}
			if resp := <-lost; resp.Kind != "conflict" || !errors.Is(resp.Err, htap.ErrConflict) {
				t.Fatalf("forced conflict: kind %q err %v", resp.Kind, resp.Err)
			}
			if want := refServe(t, ref, hot); want.failed {
				t.Fatal("reference rejected the winning update")
			}
			if err := coord.WaitFresh(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			if err := ref.WaitFresh(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			final := `SELECT c_custkey, c_acctbal, c_comment FROM customer WHERE c_custkey >= 4000000001 OR c_custkey <= 20`
			if got := g.Serve(final); got.Err != nil || !sameRows(got.Rows, refServe(t, ref, final).rows) {
				t.Fatalf("final state diverges from the reference (err %v)", got.Err)
			}

			m := g.Metrics()
			if m.TxnConflicts != 1 {
				t.Errorf("txn_conflicts = %d, want the one forced conflict", m.TxnConflicts)
			}
			if len(m.Shards) != n {
				t.Errorf("snapshot has %d shards, want %d", len(m.Shards), n)
			}
			g.slots.mu.Lock()
			free := g.slots.free
			g.slots.mu.Unlock()
			if free != cfg.Workers {
				t.Errorf("worker ledger holds %d free slots after the run, want %d", free, cfg.Workers)
			}
		})
	}
}

// TestPlanRunsOnItsTarget interleaves the explanation service's PlanPair
// with served reads of one fingerprint whose literals live on different
// shards: a template keeps a plan per shard it has served, and a key is
// only ever executed by the plan built on its owner — with one shared
// cache, a plan built on one shard and run for another shard's key would
// be a silent wrong answer.
func TestPlanRunsOnItsTarget(t *testing.T) {
	const n = 4
	coord := testCoordinator(t, n)
	g := NewSharded(coord, Config{Workers: 2, CacheCapacity: 64})
	defer g.Stop()

	a, b := keysOnDistinctShards(n)
	c := a + 1 // a third key on a's shard
	for shard.ShardOf(value.NewInt(c), n) != shard.ShardOf(value.NewInt(a), n) {
		c++
	}
	sqlFor := func(k int64) string {
		return fmt.Sprintf(`SELECT c_custkey, c_name FROM customer WHERE c_custkey = %d`, k)
	}
	serve := func(k int64, want CacheOutcome) {
		t.Helper()
		before := coord.Stats()
		resp := g.Serve(sqlFor(k))
		if resp.Err != nil || len(resp.Rows) != 1 || resp.Rows[0][0].I != k {
			t.Fatalf("key %d: rows %v err %v, want its own row", k, resp.Rows, resp.Err)
		}
		after, owner := coord.Stats(), shard.ShardOf(value.NewInt(k), n)
		if after.RoutedQueries != before.RoutedQueries+1 || after.ScatterFanout != before.ScatterFanout+1 ||
			after.Shards[owner].Queries != before.Shards[owner].Queries+1 {
			t.Fatalf("key %d: not counted as one routed query on shard %d: %+v -> %+v", k, owner, before, after)
		}
		if resp.Cache != want {
			t.Fatalf("key %d: cache %v, want %v", k, resp.Cache, want)
		}
	}

	entry, cached, err := g.PlanPair(sqlFor(a)) // cold explain: plans on a's owner
	if err != nil || cached {
		t.Fatalf("PlanPair: cached %v err %v", cached, err)
	}
	serve(b, CacheTemplateHit) // same template, another shard: planned there
	if _, cached, err := g.PlanPair(sqlFor(b)); err != nil || !cached {
		t.Fatalf("PlanPair after serve: cached %v err %v", cached, err)
	}
	serve(a, CacheHit) // the plan PlanPair kept
	serve(b, CacheHit)
	serve(c, CacheHit) // a literal never served, on a planned shard
	serve(a, CacheHit)

	entry.mu.Lock()
	targets := map[int]bool{}
	for target := range entry.plans {
		targets[target] = true
	}
	entry.mu.Unlock()
	if oa, ob := shard.ShardOf(value.NewInt(a), n), shard.ShardOf(value.NewInt(b), n); len(targets) != 2 || !targets[oa] || !targets[ob] {
		t.Errorf("template keeps plans for shards %v, want exactly the owners %d and %d", targets, oa, ob)
	}

	// a scatter statement has no owner: PlanPair plans its pair on shard 0
	// and keeps it there, the first serve plans the scatter and keeps it,
	// and the second re-executes it — a scatter every time
	scatter := `SELECT COUNT(*) FROM orders`
	entry, _, err = g.PlanPair(scatter)
	if err != nil {
		t.Fatal(err)
	}
	if entry.planFor(-1, plan.AP) != nil || entry.Pair.TP == nil || entry.Pair.AP == nil {
		t.Fatalf("scatter template after PlanPair: scatter plan %v, pair %+v", entry.planFor(-1, plan.AP), entry.Pair)
	}
	var want int64
	for i := 0; i < n; i++ {
		tbl, _ := coord.Shard(i).Row.Table("orders")
		want += int64(len(tbl.Scan()))
	}
	for i, cache := range []CacheOutcome{CacheTemplateHit, CacheHit} {
		before := coord.Stats().ScatterQueries
		resp := g.Serve(scatter)
		if resp.Err != nil || resp.Cache != cache || resp.Engine != plan.AP || resp.Rows[0][0].I != want {
			t.Fatalf("serve %d of the scatter after PlanPair: rows %v engine %v cache %v err %v, want %d on AP, a %v",
				i+1, resp.Rows, resp.Engine, resp.Cache, resp.Err, want, cache)
		}
		if coord.Stats().ScatterQueries != before+1 {
			t.Errorf("serve %d of a statement with a published template did not scatter", i+1)
		}
	}
	if entry.planFor(-1, plan.AP) == nil || entry.planFor(-1, plan.TP) != nil {
		t.Error("scatter template does not keep exactly its AP scatter plan")
	}
}

// TestFleetWriteSpans: the commit pipeline's spans survive the fleet path
// — a key-routed INSERT and a cross-shard COMMIT both carry apply,
// wal_append and wal_fsync_wait.
func TestFleetWriteSpans(t *testing.T) {
	coord := durableCoordinator(t, 2)
	tracer := obs.NewTracer(obs.TracerConfig{SampleRate: 1})
	g := NewSharded(coord, Config{Workers: 2, Tracer: tracer})
	defer g.Stop()

	a, b := keysOnDistinctShards(2)
	insert := insertCustomers(4000000009)
	block := fmt.Sprintf(`BEGIN; UPDATE customer SET c_acctbal = 1.0 WHERE c_custkey = %d; `+
		`UPDATE customer SET c_acctbal = 2.0 WHERE c_custkey = %d; COMMIT`, a, b)
	for _, sql := range []string{insert, block} {
		if resp := g.Serve(sql); resp.Err != nil {
			t.Fatalf("Serve(%q): %v", sql, resp.Err)
		}
	}
	if coord.Stats().CrossShardTxns != 1 {
		t.Fatalf("cross-shard commits = %d, want 1", coord.Stats().CrossShardTxns)
	}
	traces := tracer.Traces() // newest first
	for i, name := range []string{"cross-shard commit", "insert"} {
		spans := map[string]int{}
		for _, sp := range traces[i].Spans {
			spans[sp.Name]++
		}
		for _, want := range []string{"parse", "apply", "wal_append", "wal_fsync_wait"} {
			if spans[want] == 0 {
				t.Errorf("%s trace missing span %q (has %v)", name, want, spans)
			}
		}
		if spans["execute"] != 0 || spans["commit"] != 0 {
			t.Errorf("%s trace still carries a stand-in span: %v", name, spans)
		}
	}
	// both participants of the cross-shard commit log and wait
	spans := map[string]int{}
	for _, sp := range traces[0].Spans {
		spans[sp.Name]++
	}
	if spans["apply"] != 2 || spans["wal_append"] != 2 || spans["wal_fsync_wait"] != 2 {
		t.Errorf("cross-shard commit spans = %v, want two of each commit stage", spans)
	}
}

// TestOneExecutor holds the package to its one execution path: outside
// tests, execute is the only function that takes extra workers from the
// ledger (tryAcquire) or runs a physical plan (Execute, ExecuteAnalyzed) —
// a scatter, an EXPLAIN ANALYZE and the sampled dual run included — and
// nothing in the module drives a tree through exec.DrainOnce, the entry
// point that existed for trees that could not be cloned.
func TestOneExecutor(t *testing.T) {
	guarded := map[string]bool{"tryAcquire": true, "Execute": true, "ExecuteAnalyzed": true}
	calls := 0
	fset := token.NewFileSet()
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ours := filepath.Dir(path) == "../../internal/gateway" && !strings.HasSuffix(path, "_test.go")
		for _, decl := range f.Decls {
			fn, _ := decl.(*ast.FuncDecl)
			ast.Inspect(decl, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.Ident:
					if x.Name == "DrainOnce" {
						t.Errorf("%s: DrainOnce is back; a Gather clones, so drive it through Drain or a Runner", fset.Position(x.Pos()))
					}
				case *ast.CallExpr:
					sel, ok := x.Fun.(*ast.SelectorExpr)
					if !ours || !ok || !guarded[sel.Sel.Name] {
						break
					}
					calls++
					if fn == nil || fn.Name.Name != "execute" {
						t.Errorf("%s: %s called outside Gateway.execute", fset.Position(x.Pos()), sel.Sel.Name)
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Errorf("found %d guarded calls in the package, want execute's 3 (is the walk looking at the right tree?)", calls)
	}
}
