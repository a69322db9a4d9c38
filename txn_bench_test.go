package bench

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"htapxplain/internal/htap"
)

// txnCommitRate measures committed-transaction throughput with n
// concurrent writers against a durable system whose fsync carries a
// modeled 2ms device latency — the regime where the commit pipeline's
// group-commit batching (LSNs assigned under a short critical section,
// durability waited on outside it) is the difference between serial
// ~500 commits/s and thousands.
func txnCommitRate(t *testing.T, n, totalCommits int) float64 {
	t.Helper()
	cfg := htap.DefaultConfig()
	cfg.Durability = htap.DurabilityConfig{
		Dir:                  t.TempDir(),
		SimulatedSyncLatency: 2 * time.Millisecond,
		CheckpointInterval:   time.Hour,
	}
	sys, err := htap.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	per := totalCommits / n
	var wg sync.WaitGroup
	errs := make(chan error, n)
	start := time.Now()
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				key := 3_500_000_000 + int64(w)*1_000_000 + int64(i)
				tx := sys.Begin()
				sql := fmt.Sprintf(
					"INSERT INTO customer (c_custkey, c_name, c_address, c_nationkey, c_phone, c_acctbal, c_mktsegment, c_comment) "+
						"VALUES (%d, 'gate#%d', 'addr', 7, '20-123', 100.00, 'machinery', 'txn gate')", key, key)
				if _, err := tx.Exec(sql); err != nil {
					tx.Rollback()
					errs <- err
					return
				}
				if _, err := tx.Commit(); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	return float64(n*per) / time.Since(start).Seconds()
}

// TestTxnThroughputScales is the tentpole's enforced headline: on a
// modeled-fsync device, 16 concurrent writers must commit at ≥ 3x the
// single-writer rate, because disjoint transactions no longer serialize
// on each other's fsync waits — they batch into shared group commits.
// Skipped under the race detector and on small CI runners, where the
// instrumentation and core count distort throughput ratios.
func TestTxnThroughputScales(t *testing.T) {
	if raceEnabled {
		t.Skip("throughput gate is not meaningful under the race detector")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("throughput gate needs ≥ 4 CPUs, have %d", runtime.NumCPU())
	}
	single := txnCommitRate(t, 1, 160)
	multi := txnCommitRate(t, 16, 320)
	ratio := multi / single
	t.Logf("commit throughput: 1 writer %.0f/s, 16 writers %.0f/s → %.1fx", single, multi, ratio)
	if ratio < 3 {
		t.Errorf("16-writer commit throughput only %.1fx single-writer (%.0f vs %.0f commits/s), want ≥ 3x",
			ratio, multi, single)
	}
}
