package bench

import (
	"fmt"
	"sync"
	"testing"

	"htapxplain/internal/colstore"
	"htapxplain/internal/exec"
	"htapxplain/internal/htap"
	"htapxplain/internal/optimizer"
	"htapxplain/internal/sqlparser"
	"htapxplain/internal/tpch"
)

// The compression gate pits the same dataset, at 2.5x the
// default physical scale, stored raw against the auto-encoded layout.

var (
	encSysOnce sync.Once
	encRawSys  *htap.System
	encAutoSys *htap.System
	encSysErr  error
)

// compressionSystems returns two identical datasets, one under PolicyRaw
// and one under PolicyAuto — the before/after pair every compression gate
// compares.
func compressionSystems(tb testing.TB) (raw, auto *htap.System) {
	tb.Helper()
	encSysOnce.Do(func() {
		mk := func(p colstore.EncodingPolicy) (*htap.System, error) {
			return htap.New(htap.Config{ModeledSF: 100,
				Data:     tpch.Config{PhysScale: 0.005, Seed: 42},
				Encoding: p})
		}
		encRawSys, encSysErr = mk(colstore.PolicyRaw)
		if encSysErr == nil {
			encAutoSys, encSysErr = mk(colstore.PolicyAuto)
		}
	})
	if encSysErr != nil {
		tb.Fatalf("htap.New: %v", encSysErr)
	}
	return encRawSys, encAutoSys
}

func planOn(tb testing.TB, sys *htap.System, sql string) *optimizer.PhysPlan {
	tb.Helper()
	sel, err := sqlparser.Parse(sql)
	if err != nil {
		tb.Fatal(err)
	}
	phys, err := sys.Planner.PlanAP(sel)
	if err != nil {
		tb.Fatal(err)
	}
	return phys
}

// halfOrderKeySQL builds the selective sorted-scan gate query: a range on
// the ascending l_orderkey covering roughly half the table, so zone maps
// prune half the chunks and the surviving half exercises the encoded
// range prefilter against the raw candidate loop.
func halfOrderKeySQL(tb testing.TB, sys *htap.System) string {
	tb.Helper()
	rows, err := planOn(tb, sys, `SELECT MAX(l_orderkey) FROM lineitem`).Execute(exec.NewContext())
	if err != nil {
		tb.Fatal(err)
	}
	if len(rows) != 1 || len(rows[0]) != 1 {
		tb.Fatalf("MAX(l_orderkey) returned %d rows", len(rows))
	}
	return fmt.Sprintf(`SELECT COUNT(*) FROM lineitem WHERE l_orderkey <= %d`, rows[0][0].I/2)
}

// TestCompressionWins is the count gate for the encoding layer: the auto
// policy keeps the same TPC-H data in at most a third of the raw resident
// bytes, and over the encoded layout the selective sorted range scan skips
// half the chunks by their zone maps and its aggregate, folding the scan's
// stored chunks, counts the other half without decoding one. It counts, so
// it holds under -race and on two cores; how much faster encoded storage
// is, is the benchmark's to say.
func TestCompressionWins(t *testing.T) {
	raw, auto := compressionSystems(t)

	// footprint gate: >= 3x smaller resident column data
	rawMS, autoMS := raw.Col.MemStats(), auto.Col.MemStats()
	if rawMS.ResidentBytes != rawMS.RawBytes {
		t.Errorf("raw policy resident %d != raw %d bytes", rawMS.ResidentBytes, rawMS.RawBytes)
	}
	ratio := float64(rawMS.ResidentBytes) / float64(autoMS.ResidentBytes)
	t.Logf("resident column data: raw %d bytes, encoded %d bytes → %.2fx",
		rawMS.ResidentBytes, autoMS.ResidentBytes, ratio)
	if ratio < 3 {
		t.Errorf("compression ratio = %.2fx, want >= 3x", ratio)
	}

	// the selective sorted scan: half the chunks pruned, the rest folded
	// in the encoded domain
	ctx := exec.NewContext()
	if _, err := planOn(t, auto, halfOrderKeySQL(t, raw)).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	ct, _ := auto.Col.Table("lineitem")
	st, chunks := ctx.Stats, int64(ct.NumChunks())
	t.Logf("half-range COUNT(*) over %d chunks: %d skipped, %d scanned (%d encoded, %d decoded)",
		chunks, st.ChunksSkipped, st.ChunksScanned, st.EncodedChunks, st.DecodedChunks)
	if st.ChunksSkipped+st.ChunksScanned != chunks || st.ChunksSkipped < chunks/2-1 || st.ChunksSkipped > chunks/2+1 {
		t.Errorf("the half-range scan skipped %d and scanned %d of %d chunks, want half skipped", st.ChunksSkipped, st.ChunksScanned, chunks)
	}
	if st.DecodedChunks != 0 || st.EncodedChunks == 0 {
		t.Errorf("the aggregate over stored chunks decoded %d chunks and folded %d encoded, want 0 decoded of some encoded", st.DecodedChunks, st.EncodedChunks)
	}
}
