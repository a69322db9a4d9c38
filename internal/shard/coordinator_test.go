package shard

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"htapxplain/internal/exec"
	"htapxplain/internal/htap"
	"htapxplain/internal/plan"
	"htapxplain/internal/value"
	"htapxplain/internal/workload"
)

func newCoordinator(t *testing.T, n int, opt Options) *Coordinator {
	t.Helper()
	c, err := New(n, htap.DefaultConfig(), opt)
	if err != nil {
		t.Fatalf("New(%d shards): %v", n, err)
	}
	t.Cleanup(c.Close)
	return c
}

func newReference(t *testing.T) *htap.System {
	t.Helper()
	ref, err := htap.New(htap.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ref.Close)
	return ref
}

// testRowKey renders a row with floats rounded to 4 decimals (and -0.0
// collapsed) — the engine's own result-comparison normalization, which
// absorbs accumulation-order differences between a scatter's partial
// aggregates and the reference's serial aggregation.
func testRowKey(r value.Row) string {
	var b strings.Builder
	for _, v := range r {
		switch v.K {
		case value.KindInt:
			fmt.Fprintf(&b, "i%d|", v.I)
		case value.KindFloat:
			f := math.Round(v.Float()*1e4) / 1e4
			if f == 0 {
				f = 0
			}
			fmt.Fprintf(&b, "f%.4f|", f)
		case value.KindString:
			b.WriteString("s" + v.S + "|")
		case value.KindBool:
			fmt.Fprintf(&b, "b%d|", v.I)
		default:
			b.WriteString("n|")
		}
	}
	return b.String()
}

func renderRows(rows []value.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = testRowKey(r)
	}
	return out
}

func sameMultiset(a, b []value.Row) bool {
	if len(a) != len(b) {
		return false
	}
	ka, kb := renderRows(a), renderRows(b)
	sort.Strings(ka)
	sort.Strings(kb)
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

// referenceRows runs sql on the unsharded reference and returns the
// winning engine's rows.
func referenceRows(t *testing.T, ref *htap.System, sql string) []value.Row {
	t.Helper()
	res, err := ref.Run(sql)
	if err != nil {
		t.Fatalf("reference Run(%q): %v", sql, err)
	}
	if !res.ResultsAgree {
		t.Fatalf("reference engines disagree on %q", sql)
	}
	return res.APRows
}

// query runs one SELECT the way the gateway does, minus its plan cache and
// worker ledger: on the owning shard when Route pins it, as a PlanScatter
// plan at the plan's own DOP otherwise. fanout is the shards it touched.
func query(c *Coordinator, sql string) (rows []value.Row, fanout int, err error) {
	target, dec, err := c.Route(sql)
	if err != nil {
		return nil, 0, err
	}
	if target >= 0 {
		res, err := c.Shard(target).Run(sql)
		if err != nil {
			return nil, 0, err
		}
		c.NoteRouted(target)
		if res.Winner == plan.AP {
			return res.APRows, 1, nil
		}
		return res.TPRows, 1, nil
	}
	phys, err := c.PlanScatter(sql, dec)
	if err != nil {
		return nil, 0, err
	}
	ctx := exec.NewContext()
	ctx.DOP = phys.DOP
	rows, err = phys.Execute(ctx)
	c.NoteScatter(&ctx.Stats)
	return rows, c.NumShards(), err
}

// The differential suite: every query class the scatter planner splits —
// global aggregate, group-by with the full aggregate set, partition-wise
// join, broadcast join, plain scan with ORDER BY / LIMIT — plus a
// replicated-table route.
var diffQueries = []struct {
	sql     string
	ordered bool
}{
	{"SELECT COUNT(*) FROM customer", false},
	{"SELECT c_mktsegment, COUNT(*), SUM(c_acctbal), AVG(c_acctbal), MIN(c_acctbal), MAX(c_acctbal) FROM customer GROUP BY c_mktsegment", false},
	{"SELECT o_orderstatus, COUNT(*), SUM(o_totalprice) FROM orders WHERE o_totalprice > 1000 GROUP BY o_orderstatus", false},
	// orders ⋈ lineitem co-partition on the order key: partition-wise join
	{"SELECT o_orderstatus, COUNT(*), SUM(l_quantity) FROM orders, lineitem WHERE l_orderkey = o_orderkey GROUP BY o_orderstatus", false},
	// customer ⋈ orders joins off customer's partition key: broadcast move
	{"SELECT c_mktsegment, COUNT(*), SUM(o_totalprice) FROM customer, orders WHERE o_custkey = c_custkey GROUP BY c_mktsegment", false},
	{"SELECT c_custkey, c_name, c_acctbal FROM customer WHERE c_acctbal > 5000 ORDER BY c_custkey LIMIT 20", true},
	{"SELECT COUNT(*) FROM nation", false},
}

// TestShardDifferential is the acceptance harness: every query in the
// suite, at scatter DOP {1, 4} and shard counts {1, 4}, interleaved with
// barriered rounds of DML applied identically to the sharded coordinator
// and to a single unsharded reference system, must return the same
// multiset of rows (ordered queries: the same sequence).
func TestShardDifferential(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, dop := range []int{1, 4} {
			t.Run(fmt.Sprintf("shards=%d/dop=%d", shards, dop), func(t *testing.T) {
				c := newCoordinator(t, shards, Options{FragDOP: dop})
				ref := newReference(t)
				gen := workload.NewDMLGenerator(31)

				for round := 0; round < 3; round++ {
					if round > 0 {
						// a barriered round of identical DML on both systems
						for _, q := range gen.Batch(20) {
							if _, err := c.ExecDML(q.SQL); err != nil {
								t.Fatalf("round %d coordinator %q: %v", round, q.SQL, err)
							}
							if _, err := ref.Exec(q.SQL); err != nil {
								t.Fatalf("round %d reference %q: %v", round, q.SQL, err)
							}
						}
					}
					if err := c.WaitFresh(10 * time.Second); err != nil {
						t.Fatal(err)
					}
					if err := ref.WaitFresh(10 * time.Second); err != nil {
						t.Fatal(err)
					}
					for _, q := range diffQueries {
						want := referenceRows(t, ref, q.sql)
						check := func(path string, got []value.Row) {
							t.Helper()
							if q.ordered {
								g, w := renderRows(got), renderRows(want)
								if len(g) != len(w) {
									t.Fatalf("round %d %s %q: %d rows, want %d", round, path, q.sql, len(g), len(w))
								}
								for i := range g {
									if g[i] != w[i] {
										t.Fatalf("round %d %s %q: row %d = %s, want %s", round, path, q.sql, i, g[i], w[i])
									}
								}
							} else if !sameMultiset(got, want) {
								t.Fatalf("round %d %s %q: sharded result diverges (%d vs %d rows)",
									round, path, q.sql, len(got), len(want))
							}
						}
						got, _, err := query(c, q.sql)
						if err != nil {
							t.Fatalf("round %d query(%q): %v", round, q.sql, err)
						}
						check("query", got)
						if shards > 1 {
							continue
						}
						// Route pins everything on a one-shard fleet, so the
						// one-fragment scatter is driven directly
						sc, err := c.PrepareScatter(q.sql, nil)
						if err != nil {
							t.Fatalf("round %d PrepareScatter(%q): %v", round, q.sql, err)
						}
						rows, _, err := sc.Run()
						if err != nil {
							t.Fatalf("round %d scatter Run(%q): %v", round, q.sql, err)
						}
						check("scatter", rows)
					}
				}
			})
		}
	}
}

// TestPointRoutingTouchesOneShard asserts the TP routing property: a
// point lookup pinned by its partition key executes on exactly one shard
// and the scatter fanout gauge advances by exactly 1 per routed query.
func TestPointRoutingTouchesOneShard(t *testing.T) {
	c := newCoordinator(t, 4, Options{})
	for key := int64(1); key <= 20; key++ {
		before := c.Stats()
		sql := fmt.Sprintf("SELECT c_custkey, c_name FROM customer WHERE c_custkey = %d", key)
		target, dec, err := c.Route(sql)
		if err != nil {
			t.Fatal(err)
		}
		if target < 0 {
			t.Fatalf("point lookup %q scattered: %+v", sql, dec)
		}
		if want := ShardOf(value.NewInt(key), 4); target != want {
			t.Fatalf("key %d routed to shard %d, want %d", key, target, want)
		}
		if _, _, err := query(c, sql); err != nil {
			t.Fatal(err)
		}
		after := c.Stats()
		if got := after.ScatterFanout - before.ScatterFanout; got != 1 {
			t.Fatalf("key %d: fanout advanced by %d, want 1", key, got)
		}
		touched := 0
		for i := range after.Shards {
			d := after.Shards[i].Queries - before.Shards[i].Queries
			if d < 0 || d > 1 {
				t.Fatalf("key %d: shard %d query delta %d", key, i, d)
			}
			touched += int(d)
		}
		if touched != 1 {
			t.Fatalf("key %d touched %d shards, want exactly 1", key, touched)
		}
		if after.ScatterQueries != before.ScatterQueries {
			t.Fatalf("point lookup counted as scatter")
		}
	}

	// and the converse: an unpinned aggregate scatters to all shards
	before := c.Stats()
	if _, _, err := query(c, "SELECT COUNT(*) FROM customer"); err != nil {
		t.Fatal(err)
	}
	after := c.Stats()
	if got := after.ScatterFanout - before.ScatterFanout; got != 4 {
		t.Fatalf("scatter fanout advanced by %d, want 4", got)
	}
	if after.ScatterQueries-before.ScatterQueries != 1 {
		t.Fatalf("scatter not counted")
	}
	if after.ExchangeRows <= before.ExchangeRows {
		t.Fatalf("scatter moved no exchange rows")
	}
}

// TestDMLRouting: generated writes pin the customer partition key, so
// each must buffer on exactly one shard and total row counts must match
// what an unsharded system reports.
func TestDMLRouting(t *testing.T) {
	c := newCoordinator(t, 4, Options{})
	ref := newReference(t)
	gen := workload.NewDMLGenerator(57)
	for _, q := range gen.Batch(40) {
		got, err := c.ExecDML(q.SQL)
		if err != nil {
			t.Fatalf("ExecDML(%q): %v", q.SQL, err)
		}
		want, err := ref.Exec(q.SQL)
		if err != nil {
			t.Fatalf("reference Exec(%q): %v", q.SQL, err)
		}
		if got.RowsAffected != want.RowsAffected {
			t.Fatalf("%q: sharded affected %d rows, reference %d", q.SQL, got.RowsAffected, want.RowsAffected)
		}
	}
	st := c.Stats()
	if st.CrossShardTxns != 0 {
		t.Fatalf("single-key DML produced %d cross-shard commits", st.CrossShardTxns)
	}
	var sum uint64
	for _, sh := range st.Shards {
		sum += sh.CommitLSN
	}
	if sum == 0 {
		t.Fatal("no shard advanced its commit LSN")
	}
}

// TestCrossShardTxn drives the two-phase path: one transaction inserting
// keys that hash to different shards must commit atomically on all of
// them, count once in the cross-shard gauge, and be readable afterwards.
func TestCrossShardTxn(t *testing.T) {
	const n = 4
	c := newCoordinator(t, n, Options{})

	// pick one key per shard from a private range
	keys := make([]int64, 0, n)
	seen := map[int]int64{}
	for k := int64(2_000_000_000); len(seen) < n; k++ {
		s := ShardOf(value.NewInt(k), n)
		if _, ok := seen[s]; !ok {
			seen[s] = k
			keys = append(keys, k)
		}
	}

	tx := c.Begin()
	for _, k := range keys {
		sql := fmt.Sprintf("INSERT INTO customer (c_custkey, c_name, c_address, c_nationkey, c_phone, c_acctbal, c_mktsegment, c_comment) VALUES (%d, 'xshard', 'a', 1, '11-000', 10.0, 'building', 'cross')", k)
		if _, err := tx.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	res, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if !res.CrossShard || len(res.Shards) != n {
		t.Fatalf("commit = %+v, want cross-shard over %d shards", res, n)
	}
	if res.RowsAffected != n {
		t.Fatalf("RowsAffected = %d, want %d", res.RowsAffected, n)
	}
	if st := c.Stats(); st.CrossShardTxns != 1 {
		t.Fatalf("CrossShardTxns = %d, want 1", st.CrossShardTxns)
	}
	for _, k := range keys {
		rows, fanout, err := query(c, fmt.Sprintf("SELECT c_custkey FROM customer WHERE c_custkey = %d", k))
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 || fanout != 1 {
			t.Fatalf("key %d: %d rows at fanout %d after cross-shard commit", k, len(rows), fanout)
		}
	}

	// conflicts abort the whole distributed transaction: two racing
	// cross-shard updates of the same keys — first to commit wins, the
	// loser reports a conflict and leaves no partial effects
	tx1, tx2 := c.Begin(), c.Begin()
	for _, k := range keys[:2] {
		u := fmt.Sprintf("UPDATE customer SET c_acctbal = c_acctbal + 1 WHERE c_custkey = %d", k)
		if _, err := tx1.Exec(u); err != nil {
			t.Fatal(err)
		}
		if _, err := tx2.Exec(u); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Commit(); !errors.Is(err, htap.ErrConflict) {
		t.Fatalf("second writer committed with err=%v, want conflict", err)
	}
}

// TestUpdateCannotMovePartitionKey: repartitioning via UPDATE is
// rejected, not silently misrouted.
func TestUpdateCannotMovePartitionKey(t *testing.T) {
	c := newCoordinator(t, 2, Options{})
	_, err := c.ExecDML("UPDATE customer SET c_custkey = 999 WHERE c_custkey = 1")
	if err == nil || !strings.Contains(err.Error(), "partition key") {
		t.Fatalf("err = %v, want partition-key rejection", err)
	}
}

// TestScatterGatherRace is the CI -race gauntlet: concurrent AP scatters
// race single-shard DML (and the background mergers) at N=4. The test
// asserts nothing about row counts — it exists so the race detector sees
// scatter fragments, exchange moves, per-shard commits and metrics
// all running at once.
func TestScatterGatherRace(t *testing.T) {
	c := newCoordinator(t, 4, Options{})
	const writers, readers, iters = 2, 2, 8
	var wg sync.WaitGroup
	errs := make(chan error, writers*iters+readers*iters)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			gen := workload.NewDMLGenerator(int64(9000 + w*1000))
			for i := 0; i < iters; i++ {
				if _, err := c.ExecDML(gen.Next().SQL); err != nil && !errors.Is(err, htap.ErrConflict) {
					errs <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			queries := []string{
				"SELECT c_mktsegment, COUNT(*), SUM(c_acctbal) FROM customer GROUP BY c_mktsegment",
				"SELECT COUNT(*) FROM customer WHERE c_acctbal > 0",
				"SELECT c_custkey, c_name FROM customer WHERE c_custkey = 17",
			}
			for i := 0; i < iters; i++ {
				if _, _, err := query(c, queries[(r+i)%len(queries)]); err != nil {
					errs <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.ScatterQueries == 0 || st.RoutedQueries == 0 {
		t.Fatalf("gauntlet exercised scatter=%d routed=%d, want both > 0", st.ScatterQueries, st.RoutedQueries)
	}
}

// moveJoin is a scatter join with a move: customer joins orders off
// customer's partition key, so customer is broadcast to every fragment.
const moveJoin = "SELECT c_mktsegment, COUNT(*), SUM(o_totalprice) FROM customer, orders WHERE o_custkey = c_custkey GROUP BY c_mktsegment"

// TestScatterPlanBakesNothingIn: PlanScatter takes no exec.Context and
// reads no storage, so a scatter's moves belong to each execution — their
// exchange rows show up in that execution's stats, and a second Execute of
// the same plan after a committed write to the moved table joins the new
// row. A plan that ran its moves while it was planned would return the old
// answer forever.
func TestScatterPlanBakesNothingIn(t *testing.T) {
	c := newCoordinator(t, 2, Options{})
	phys, err := c.PlanScatter(moveJoin, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.ExchangeRows != 0 || st.ScatterQueries != 0 {
		t.Fatalf("planning alone counted %d exchange rows, %d scatters", st.ExchangeRows, st.ScatterQueries)
	}
	run := func() (orders int64, moved int64) {
		t.Helper()
		ctx := exec.NewContext()
		rows, err := phys.Execute(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			orders += r[1].I
		}
		// every exchange row that is not a gathered partial-aggregate row
		// crossed in the customer broadcast
		return orders, ctx.Stats.ExchangeRows
	}
	before, moved := run()
	customers := referenceRows(t, newReference(t), "SELECT COUNT(*) FROM customer")[0][0].I
	if moved < 2*customers {
		t.Fatalf("execution moved %d exchange rows, want at least the %d customers broadcast to 2 fragments", moved, customers)
	}

	// a new customer with one order: both rows commit, then replicate
	const key = 2_100_000_001
	for _, sql := range []string{
		fmt.Sprintf("INSERT INTO customer (c_custkey, c_name, c_address, c_nationkey, c_phone, c_acctbal, c_mktsegment, c_comment) VALUES (%d, 'late', 'a', 1, '11-000', 10.0, 'building', 'moved')", key),
		fmt.Sprintf("INSERT INTO orders (o_orderkey, o_custkey, o_orderstatus, o_totalprice, o_orderdate, o_orderpriority, o_clerk, o_shippriority, o_comment) VALUES (%d, %d, 'o', 5.0, 9000, '1-urgent', 'clerk', 0, 'moved')", key, key),
	} {
		if _, err := c.ExecDML(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	if err := c.WaitFresh(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	after, movedAfter := run()
	if after != before+1 || movedAfter != moved+2 {
		t.Fatalf("re-executed plan joined %d orders over %d exchange rows, want %d over %d: the moves are not part of the execution",
			after, movedAfter, before+1, moved+2)
	}
}

// TestScatterPlanIsShared: one PlanScatter plan executed from 8 goroutines
// at once (the race detector watches) gives the unsharded answer every
// time, whatever DOP each execution is granted — the ledger-exhausted
// grant of 1 included — and the plan, its DOP included, is unchanged
// afterwards: the grant scales the fragments in the execution's context,
// never in the plan.
func TestScatterPlanIsShared(t *testing.T) {
	c := newCoordinator(t, 4, Options{FragDOP: 4})
	want := referenceRows(t, newReference(t), moveJoin)
	phys, err := c.PlanScatter(moveJoin, nil)
	if err != nil {
		t.Fatal(err)
	}
	planned := phys.DOP
	if planned != 16 {
		t.Fatalf("plan DOP = %d, want 4 fragments x FragDOP 4", planned)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				ctx := exec.NewContext()
				ctx.DOP = []int{1, 3, planned}[(w+i)%3]
				rows, err := phys.Execute(ctx)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if !sameMultiset(rows, want) {
					t.Errorf("worker %d at DOP %d: shared plan diverges from the reference", w, ctx.DOP)
				}
			}
		}(w)
	}
	wg.Wait()
	if phys.DOP != planned {
		t.Fatalf("executing the plan changed its DOP from %d to %d", planned, phys.DOP)
	}
}

// TestKeySetDMLStaysOnItsShards: an UPDATE or DELETE runs on the shards its
// WHERE clause's key set on the partition key hashes to. Keys that all
// hash to one shard — an IN list with a repeat, or an IN beside an = —
// commit there alone, not through the two-phase path; keys on two shards
// commit on those two.
func TestKeySetDMLStaysOnItsShards(t *testing.T) {
	const n = 4
	c := newCoordinator(t, n, Options{})
	ref := newReference(t)
	byShard := map[int][]int64{}
	for k := int64(1); len(byShard[0]) < 3 || len(byShard[1]) < 1; k++ {
		s := ShardOf(value.NewInt(k), n)
		byShard[s] = append(byShard[s], k)
	}
	a, b, d := byShard[0][0], byShard[0][1], byShard[0][2]
	other := byShard[1][0]
	for _, tc := range []struct {
		sql    string
		shards []int
	}{
		{fmt.Sprintf("UPDATE customer SET c_acctbal = 1.5 WHERE c_custkey IN (%d, %d, %d)", a, b, a), []int{0}},
		{fmt.Sprintf("UPDATE customer SET c_acctbal = 2.5 WHERE c_custkey IN (%d, %d) AND c_custkey = %d", a, other, a), []int{0}},
		{fmt.Sprintf("UPDATE customer SET c_acctbal = 3.5 WHERE c_nationkey >= 0 AND c_custkey IN (%d, %d)", d, other), []int{0, 1}},
		{fmt.Sprintf("DELETE FROM customer WHERE c_custkey IN (%d, %d)", b, d), []int{0}},
	} {
		tx := c.Begin()
		got, err := tx.Exec(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		res, err := tx.Commit()
		if err != nil {
			t.Fatalf("%s: commit: %v", tc.sql, err)
		}
		if !slices.Equal(res.Shards, tc.shards) || res.CrossShard != (len(tc.shards) > 1) {
			t.Errorf("%s: committed on shards %v (cross-shard %v), want %v", tc.sql, res.Shards, res.CrossShard, tc.shards)
		}
		want, err := ref.Exec(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		if got.RowsAffected != want.RowsAffected || want.RowsAffected == 0 {
			t.Errorf("%s: affected %d rows, the unsharded system %d", tc.sql, got.RowsAffected, want.RowsAffected)
		}
	}
}
