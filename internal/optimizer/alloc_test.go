package optimizer

import (
	"math"
	"runtime"
	"testing"

	"htapxplain/internal/exec"
	"htapxplain/internal/workload"
)

// TestWarmAPFoldAllocs pins what a warm pooled runner allocates to drain
// the AP plans of the two ap_scan templates whose cost is mostly an
// aggregate fold: the grouped fold of rare_agg_nojoin over its scan's
// stored chunks and the global column fold above join2_lineitem_big's
// join, on the benchmark's fixture (scale 0.01) under the workload's seed
// 7, serially and forked four ways — and, serially, rare_agg_nojoin's
// shape grouped by an integer column, whose rows resolve their groups
// through the hash table rather than by dictionary code; and, serially,
// the two templates whose frame-of-reference keys a scan hands up in their
// int form: rare_join4_wide's hash joins and topn_price_desc's Top-N,
// which materialize no value vector for a key they only probe or screen
// with. An all-rows fold
// reads a shared identity vector, never one of its own; the aggregate
// keeps each fold worker's scratch, borrowing its per-row ordinal vector
// from the recycler for one fold, and a scan keeps the clones it forks,
// so neither is made afresh per query. Steady state is the least of three
// rounds. Serially the counts are exact; forked, the allocation count is
// exact but the bytes depend on which morsels each worker draws (how many
// groups each worker's table meets) and on when the collector runs: over
// sixteen runs they read 10.7 to 14.2 KB for rare_agg_nojoin and 5.7 KB
// for join2_lineitem_big, so their ceiling is the largest recorded plus a
// tenth. A vector of 1024 states or positions per worker would still
// cross it.
func TestWarmAPFoldAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the count is meaningless under it")
	}
	p := plannerAt(t, 0.01)
	gen := workload.NewGenerator(7)
	const runs = 10
	const hashed = "SELECT l_suppkey, COUNT(*), AVG(l_extendedprice) FROM lineitem WHERE l_quantity > 33 GROUP BY l_suppkey"
	for _, c := range []struct {
		tmpl   string
		dop    int
		allocs float64
		bytes  uint64
	}{
		{"rare_agg_nojoin", 1, 85, 6001},
		{"rare_agg_nojoin", 4, 145, 15600},
		{"join2_lineitem_big", 1, 28, 2176},
		{"join2_lineitem_big", 4, 45, 6300},
		{hashed, 1, 848, 73865},
		{"rare_join4_wide", 1, 47, 12544},
		{"topn_price_desc", 1, 36, 6360},
	} {
		sql := c.tmpl
		if sql != hashed {
			sql = gen.BatchOf(c.tmpl, 1)[0].SQL
		}
		pp, err := p.PlanAP(parse(t, sql))
		if err != nil {
			t.Fatal(err)
		}
		drain := func() {
			ctx := exec.NewContext()
			ctx.DOP = c.dop
			if _, err := pp.Execute(ctx); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < runs; i++ {
			drain()
		}
		allocs, bytes := math.Inf(1), uint64(math.MaxUint64)
		for r := 0; r < 3; r++ {
			allocs = min(allocs, testing.AllocsPerRun(runs, drain))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				drain()
			}
			runtime.ReadMemStats(&after)
			bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/runs)
		}
		t.Logf("%s at DOP %d: %.0f allocations, %d bytes a run", c.tmpl, c.dop, allocs, bytes)
		if allocs > c.allocs || bytes > c.bytes {
			t.Errorf("%s at DOP %d: %.0f allocations and %d bytes a run, want at most %.0f and %d",
				c.tmpl, c.dop, allocs, bytes, c.allocs, c.bytes)
		}
	}
}
