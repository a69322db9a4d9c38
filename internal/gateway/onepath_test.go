package gateway

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"htapxplain/internal/exec"
	"htapxplain/internal/htap"
	"htapxplain/internal/obs"
	"htapxplain/internal/plan"
	"htapxplain/internal/shard"
	"htapxplain/internal/sqlparser"
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

func TestOnePathDifferential(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			coord := testCoordinator(t, n)
			ref := writeSystem(t)
			cfg := Config{Workers: 4, CacheCapacity: 64}
			g := NewSharded(coord, cfg)
			defer g.Stop()

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
						if rowKey(got.Rows[i]) != rowKey(want.rows[i]) {
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

			// cached scatters: each scatter read of the table is bound under
			// its template until InvalidatePlans drops it; then it is served
			// three times — a miss, then two full hits, each after a committed
			// write, a refresh and a merge, and each equal to the reference —
			// and its EXPLAIN ANALYZE stays a miss
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

// TestBoundPlanRunsOnItsOwner interleaves the explanation service's
// PlanPair with served reads of one fingerprint whose literals live on
// different shards: with one shared cache, a bind planned on one shard and
// served to another shard's key would be a silent wrong answer.
func TestBoundPlanRunsOnItsOwner(t *testing.T) {
	const n = 4
	coord := testCoordinator(t, n)
	g := NewSharded(coord, Config{Workers: 2, CacheCapacity: 64})
	defer g.Stop()

	a, b := keysOnDistinctShards(n)
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

	entry, cached, err := g.PlanPair(sqlFor(a)) // cold explain: plans and binds on a's owner
	if err != nil || cached {
		t.Fatalf("PlanPair: cached %v err %v", cached, err)
	}
	serve(b, CacheTemplateHit) // same template, another shard's key
	if _, cached, err := g.PlanPair(sqlFor(b)); err != nil || !cached {
		t.Fatalf("PlanPair after serve: cached %v err %v", cached, err)
	}
	serve(a, CacheHit) // the bind PlanPair retained
	serve(b, CacheHit)
	serve(a, CacheHit)

	entry.mu.Lock()
	for _, bp := range entry.binds {
		for _, k := range []int64{a, b} {
			if _, params, _ := sqlparser.Fingerprint(sqlFor(k)); sqlparser.ParamKey(params) == bp.ParamKey {
				if want := shard.ShardOf(value.NewInt(k), n); bp.Shard != want {
					t.Errorf("bind for key %d retained on shard %d, owner is %d", k, bp.Shard, want)
				}
			}
		}
	}
	if len(entry.binds) != 2 {
		t.Errorf("template retains %d binds, want one per key", len(entry.binds))
	}
	entry.mu.Unlock()

	// a scatter statement has no owner: PlanPair publishes its template
	// with no bound plan, the first serve binds the scatter plan under it,
	// and the second re-executes that bind — a scatter every time
	scatter := `SELECT COUNT(*) FROM orders`
	entry, _, err = g.PlanPair(scatter)
	if err != nil {
		t.Fatal(err)
	}
	if len(entry.binds) != 0 || entry.Pair.TP == nil || entry.Pair.AP == nil {
		t.Fatalf("scatter template: %d binds, pair %+v", len(entry.binds), entry.Pair)
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
	entry.mu.Lock()
	defer entry.mu.Unlock()
	if len(entry.binds) != 1 || entry.binds[entry.order[0]].Shard != -1 {
		t.Errorf("scatter template retains %d binds, want the one scatter (Shard -1)", len(entry.binds))
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
