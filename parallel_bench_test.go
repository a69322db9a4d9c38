package bench

import (
	"math"
	"runtime"
	"sort"
	"testing"

	"htapxplain/internal/exec"
	"htapxplain/internal/htap"
	"htapxplain/internal/optimizer"
	"htapxplain/internal/sqlparser"
	"htapxplain/internal/value"
)

// The morsel-parallelism gate runs over the compression gate's
// auto-encoded dataset (compressionSystems): 2.5x the default
// physical scale, ~30 lineitem chunks, so DOP 8 still has morsel supply.

func parallelBenchSystem(tb testing.TB) *htap.System {
	_, auto := compressionSystems(tb)
	return auto
}

// parallelAggSQL is the large-scan/aggregate shape the parallel gate
// counts: every row is visited, predicate and aggregate work happen
// inside the morsel workers, and only 7 group partials cross the merge.
const parallelAggSQL = `SELECT l_shipmode, COUNT(*), SUM(l_extendedprice), AVG(l_quantity)` +
	` FROM lineitem WHERE l_quantity > 5 GROUP BY l_shipmode`

func planParallelAgg(tb testing.TB, sys *htap.System) *optimizer.PhysPlan {
	tb.Helper()
	sel, err := sqlparser.Parse(parallelAggSQL)
	if err != nil {
		tb.Fatal(err)
	}
	phys, err := sys.Planner.PlanAP(sel)
	if err != nil {
		tb.Fatal(err)
	}
	return phys
}

// TestParallelSpeedup is the count gate for morsel-driven execution: the
// large-scan/aggregate pipeline granted DOP 4 forks four workers, which
// among them are dispatched every lineitem chunk exactly once, and returns
// DOP 1's rows. It counts, so it holds under -race and on two cores; how
// much faster DOP 4 is, is the benchmark's to say.
func TestParallelSpeedup(t *testing.T) {
	// the planner sizes DOP from GOMAXPROCS
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	sys := parallelBenchSystem(t)
	phys := planParallelAgg(t, sys)
	if phys.DOP != 4 {
		t.Fatalf("planned DOP %d, want 4", phys.DOP)
	}
	run := func(dop int) ([]value.Row, exec.Stats) {
		ctx := exec.NewContext()
		ctx.DOP = dop
		rows, err := phys.Execute(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return rows, ctx.Stats
	}
	serial, _ := run(1)
	rows, st := run(4)
	ct, _ := sys.Col.Table("lineitem")
	t.Logf("scan+aggregate over %d rows at DOP 4: %d workers, %d morsels of %d chunks", mustRows(t, sys), st.ParallelWorkers, st.MorselsDispatched, ct.NumChunks())
	if st.ParallelWorkers != 4 {
		t.Errorf("DOP 4 forked %d workers, want 4", st.ParallelWorkers)
	}
	if st.MorselsDispatched != int64(ct.NumChunks()) || st.ChunksSkipped != 0 {
		t.Errorf("workers were dispatched %d morsels (%d skipped), want each of lineitem's %d chunks once",
			st.MorselsDispatched, st.ChunksSkipped, ct.NumChunks())
	}
	if len(rows) != len(serial) {
		t.Fatalf("DOP 4 returned %d groups, DOP 1 %d", len(rows), len(serial))
	}
	// the fork merges its groups in key order and folds each worker's
	// morsels in a different order: floats agree to rounding
	sortRows(serial)
	sortRows(rows)
	for i := range rows {
		for j, v := range rows[i] {
			w := serial[i][j]
			if v.K != w.K || v.K != value.KindFloat && v.Compare(w) != 0 ||
				v.K == value.KindFloat && math.Abs(v.Float()-w.Float()) > 1e-9*math.Abs(w.Float()) {
				t.Errorf("group %d column %d: DOP 4 %v, DOP 1 %v", i, j, v, w)
			}
		}
	}
}

// sortRows orders rows by their first column.
func sortRows(rows []value.Row) {
	sort.Slice(rows, func(i, j int) bool { return rows[i][0].Compare(rows[j][0]) < 0 })
}

func mustRows(t testing.TB, sys *htap.System) int {
	ct, ok := sys.Col.Table("lineitem")
	if !ok {
		t.Fatal("no lineitem column table")
	}
	return ct.NumRows()
}
