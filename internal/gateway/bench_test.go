package gateway

import (
	"fmt"
	"runtime"
	"testing"

	"htapxplain/internal/shard"
	"htapxplain/internal/workload"
)

// joinPool returns the seeded join workload the warm-cache gate serves: the
// point-lookup join template (customer ⋈ their orders), the classic
// plan-cache beneficiary — execution is an index probe over a handful of
// rows, so per-query planning dominates serving cost. The literals vary
// per query, and every statement executes the one plan with its own
// literals bound.
func joinPool(n int) []workload.Query {
	return workload.NewGenerator(42).BatchOf("join2_point_orders", n)
}

// TestWarmCacheSpeedup: once a pool has been served, a warm plan cache
// serves every query of it again as a full hit — no parse, no plan, no
// route — on a single system and on a 2-shard fleet whose pool mixes
// pinned and scatter templates, and a hit allocates at most a recorded
// number of times. How much faster that is, is the benchmark's to say.
func TestWarmCacheSpeedup(t *testing.T) {
	// the planner sizes DOP from GOMAXPROCS, and a forked worker allocates
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var fleetPool []string
	for _, k := range []int{7, 8, 9, 10} {
		fleetPool = append(fleetPool, fmt.Sprintf(`SELECT c_custkey, c_name, c_acctbal FROM customer WHERE c_custkey = %d`, k))
	}
	for _, lo := range []int{1000, 5000} {
		fleetPool = append(fleetPool,
			fmt.Sprintf(`SELECT c_mktsegment, COUNT(*), SUM(c_acctbal) FROM customer WHERE c_acctbal > %d GROUP BY c_mktsegment`, lo),
			fmt.Sprintf(`SELECT c_mktsegment, COUNT(*), SUM(o_totalprice) FROM customer, orders WHERE o_custkey = c_custkey AND o_totalprice > %d GROUP BY c_mktsegment`, lo*100))
	}
	for _, q := range joinPool(4) {
		fleetPool = append(fleetPool, q.SQL)
	}
	var pointPool []string
	for _, q := range joinPool(12) {
		pointPool = append(pointPool, q.SQL)
	}
	// maxAllocs is what a hit allocates at most, averaged over the pool
	// (measured 13.42 and 85.00): the point join's index probes on one
	// system; on the fleet, pinned reads and scatters, whose gather forks a
	// worker per shard
	for _, tc := range []struct {
		name      string
		coord     *shard.Coordinator
		pool      []string
		maxAllocs float64
	}{
		{"single system", shard.Wrap(testSystem(t)), pointPool, 16},
		{"2-shard fleet", testCoordinator(t, 2), fleetPool, 86},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := NewSharded(tc.coord, Config{Workers: 1, CacheCapacity: 256})
			defer g.Stop()
			pass := func() {
				for _, sql := range tc.pool {
					if resp := g.Serve(sql); resp.Err != nil {
						t.Fatal(resp.Err)
					}
				}
			}
			pass() // the warm pass plans every template on every target
			before, coordBefore := g.Metrics(), tc.coord.Stats()
			for _, sql := range tc.pool {
				if resp := g.Serve(sql); resp.Err != nil || resp.Cache != CacheHit {
					t.Fatalf("warm serve of %q: cache %v err %v, want a hit", sql, resp.Cache, resp.Err)
				}
			}
			after, coordAfter := g.Metrics(), tc.coord.Stats()
			if hits := after.CacheHits - before.CacheHits; hits != int64(len(tc.pool)) ||
				after.CacheMisses != before.CacheMisses || after.CacheTemplateHits != before.CacheTemplateHits {
				t.Errorf("warm pass: %d hits, %d misses, %d template hits, want %d hits and nothing planned",
					hits, after.CacheMisses-before.CacheMisses, after.CacheTemplateHits-before.CacheTemplateHits, len(tc.pool))
			}
			routed := coordAfter.RoutedQueries - coordBefore.RoutedQueries
			scattered := coordAfter.ScatterQueries - coordBefore.ScatterQueries
			if tc.coord.NumShards() > 1 && (routed == 0 || scattered == 0) {
				t.Errorf("fleet pool hit %d pinned and %d scatter plans, want both kinds", routed, scattered)
			}
			if raceEnabled {
				return // the race detector's sync.Pool drops pooled trees at random
			}
			allocs := testing.AllocsPerRun(10, pass) / float64(len(tc.pool))
			t.Logf("%d full hits (%d pinned, %d scatter): %.2f allocations per hit", len(tc.pool), routed, scattered, allocs)
			if allocs > tc.maxAllocs {
				t.Errorf("a full hit allocates %.2f times, want at most %.0f", allocs, tc.maxAllocs)
			}
		})
	}
}
