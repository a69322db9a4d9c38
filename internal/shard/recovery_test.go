package shard

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"htapxplain/internal/htap"
	"htapxplain/internal/workload"
)

// copyTree freezes a disk image of src while the source systems keep
// running — the shard-level kill -9.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatalf("copying %s: %v", src, err)
	}
}

// liveCustomerRows unions the live customer rows across every shard,
// rendered and sorted for byte-level comparison.
func liveCustomerRows(t *testing.T, c *Coordinator) []string {
	t.Helper()
	var out []string
	for i := 0; i < c.NumShards(); i++ {
		tbl, ok := c.Shard(i).Row.Table("customer")
		if !ok {
			t.Fatalf("shard %d: no customer table", i)
		}
		for _, r := range tbl.Scan() {
			out = append(out, r.String())
		}
	}
	sort.Strings(out)
	return out
}

func liveReferenceRows(t *testing.T, s *htap.System) []string {
	t.Helper()
	tbl, ok := s.Row.Table("customer")
	if !ok {
		t.Fatal("no customer table")
	}
	rows := tbl.Scan()
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

// TestShardCrashRecoveryDifferential hard-kills arbitrary subsets of a
// durable 4-shard fleet — crash images frozen mid-flight for the killed
// subset, clean shutdown directories for the survivors — reopens the
// mixed image, and requires the recovered fleet to be byte-identical to
// a volatile single-shard reference that executed the same committed
// history, with every shard's column store caught back up to its
// recovered watermark.
func TestShardCrashRecoveryDifferential(t *testing.T) {
	const n = 4
	dir := t.TempDir()
	cfg := htap.DefaultConfig()
	cfg.Durability.CheckpointInterval = time.Hour // the WAL tail holds every commit

	c, err := New(n, cfg, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewDMLGenerator(321)
	var committed []string
	for _, q := range gen.Batch(40) {
		if _, err := c.ExecDML(q.SQL); err != nil {
			t.Fatalf("ExecDML(%q): %v", q.SQL, err)
		}
		committed = append(committed, q.SQL)
	}
	// one cross-shard transaction in the history: its two-phase publish
	// must also survive the kill on every participant
	tx := c.Begin()
	for k := int64(3_000_000_000); k < 3_000_000_004; k++ {
		sql := fmt.Sprintf("INSERT INTO customer (c_custkey, c_name, c_address, c_nationkey, c_phone, c_acctbal, c_mktsegment, c_comment) VALUES (%d, 'xs#%d', 'a', 2, '12-000', 5.0, 'building', 'xs')", k, k)
		if _, err := tx.Exec(sql); err != nil {
			t.Fatal(err)
		}
		committed = append(committed, sql)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// freeze the kill -9 image of every shard mid-flight, then shut the
	// fleet down cleanly so `dir` holds the clean-shutdown layout
	image := t.TempDir()
	copyTree(t, dir, image)
	c.Close()

	// the volatile reference replays the exact committed history on one
	// unsharded system
	ref, err := htap.New(htap.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for _, sql := range committed {
		if _, err := ref.Exec(sql); err != nil {
			t.Fatalf("reference Exec(%q): %v", sql, err)
		}
	}
	if err := ref.WaitFresh(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	wantRows := liveReferenceRows(t, ref)

	for _, killed := range [][]int{{2}, {0, 3}, {0, 1, 2, 3}} {
		name := fmt.Sprintf("kill=%v", killed)
		t.Run(name, func(t *testing.T) {
			isKilled := map[int]bool{}
			for _, i := range killed {
				isKilled[i] = true
			}
			trial := t.TempDir()
			for i := 0; i < n; i++ {
				src := dir // clean shutdown
				if isKilled[i] {
					src = image // kill -9
				}
				copyTree(t, filepath.Join(src, ShardDirName(i)), filepath.Join(trial, ShardDirName(i)))
			}
			rec, err := New(n, cfg, Options{Dir: trial})
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			for i := 0; i < n; i++ {
				info := rec.Shard(i).Recovery()
				if !info.Recovered {
					t.Fatalf("shard %d did not recover: %+v", i, info)
				}
				if info.CleanShutdown == isKilled[i] {
					t.Fatalf("shard %d CleanShutdown=%v, killed=%v", i, info.CleanShutdown, isKilled[i])
				}
			}
			if got := liveCustomerRows(t, rec); !equalStrings(got, wantRows) {
				t.Fatalf("recovered fleet diverges from reference: %d vs %d rows", len(got), len(wantRows))
			}
			if err := rec.WaitFresh(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			if s := rec.Staleness(); s != 0 {
				t.Fatalf("staleness %d after recovery", s)
			}
			// scatter results at the watermark must match the reference too
			for _, sql := range []string{
				"SELECT COUNT(*) FROM customer",
				"SELECT c_mktsegment, COUNT(*), SUM(c_acctbal) FROM customer GROUP BY c_mktsegment",
			} {
				got, _, err := query(rec, sql)
				if err != nil {
					t.Fatal(err)
				}
				if !sameMultiset(got, referenceRows(t, ref, sql)) {
					t.Fatalf("recovered scatter diverges on %q", sql)
				}
			}
			// the recovered fleet keeps accepting writes
			if _, err := rec.ExecDML("DELETE FROM customer WHERE c_custkey = 3000000001"); err != nil {
				t.Fatalf("post-recovery write: %v", err)
			}
		})
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
