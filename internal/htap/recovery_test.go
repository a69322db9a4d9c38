package htap

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"htapxplain/internal/colstore"
	"htapxplain/internal/workload"
)

// The crash-recovery suite drives the durability subsystem end to end:
// a durable system under mixed DML, hard-killed at arbitrary WAL byte
// offsets, must reopen to *exactly* the committed prefix the surviving log
// encodes — byte-identical row store, column store caught up to the
// recovered commit LSN (staleness 0), and the write path immediately
// usable again. CI runs TestCrashRecoveryDifferential under -race (see
// .github/workflows/ci.yml).

// durableCfg returns a config writing into dir whose background
// checkpointer waits an hour, so tests control exactly what the WAL tail
// holds.
func durableCfg(dir string) Config {
	cfg := DefaultConfig()
	cfg.Durability = DurabilityConfig{Dir: dir, CheckpointInterval: time.Hour}
	return cfg
}

func openDurableSystem(t *testing.T, dir string) *System {
	t.Helper()
	s, err := Open(dir, durableCfg(dir))
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

// copyTree copies the data directory — the crash test's way of freezing a
// "disk image" while the source system keeps running. A file that vanishes
// between the directory read and its copy (a checkpoint's temporary file,
// renamed as it lands) is left out, as a crash at that moment would have
// left it out of the directory too.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if os.IsNotExist(err) {
			return nil
		}
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
		if os.IsNotExist(err) {
			return nil
		}
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatalf("copying %s: %v", src, err)
	}
}

// liveTableRows renders a table's live rows (heap order) for comparison.
func liveTableRows(t *testing.T, s *System, table string) []string {
	t.Helper()
	tbl, ok := s.Row.Table(table)
	if !ok {
		t.Fatalf("no table %q", table)
	}
	rows := tbl.Scan()
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	return out
}

func TestReopenPreservesCommittedWrites(t *testing.T) {
	dir := t.TempDir()
	s := openDurableSystem(t, dir)
	gen := workload.NewDMLGenerator(11)
	for _, q := range gen.Batch(30) {
		if _, err := s.Exec(q.SQL); err != nil {
			t.Fatalf("Exec(%q): %v", q.SQL, err)
		}
	}
	wantLSN := s.CommitLSN()
	wantRows := liveTableRows(t, s, "customer")
	s.Close()

	s2 := openDurableSystem(t, dir)
	defer s2.Close()
	info := s2.Recovery()
	if !info.Recovered || !info.CleanShutdown {
		t.Fatalf("RecoveryInfo = %+v, want recovered clean restart", info)
	}
	if info.ReplayedMutations != 0 {
		t.Errorf("clean restart replayed %d mutations, want 0 (Close checkpointed)", info.ReplayedMutations)
	}
	if got := s2.CommitLSN(); got != wantLSN {
		t.Fatalf("CommitLSN = %d, want %d", got, wantLSN)
	}
	if got := liveTableRows(t, s2, "customer"); !equalStrings(got, wantRows) {
		t.Fatalf("recovered customer table diverges: %d vs %d rows", len(got), len(wantRows))
	}
	if s2.Staleness() != 0 {
		t.Fatalf("staleness after recovery = %d, want 0", s2.Staleness())
	}
	assertStoresEqual(t, s2)

	// the recovered system must keep writing where the old one stopped
	res, err := s2.Exec("INSERT INTO customer (c_custkey, c_name, c_address, c_nationkey, c_phone, c_acctbal, c_mktsegment, c_comment) VALUES (1999999999, 'post', 'recovery', 1, '21-000', 1.0, 'building', 'resumed')")
	if err != nil {
		t.Fatal(err)
	}
	if res.LSN != wantLSN+1 {
		t.Fatalf("first post-recovery LSN = %d, want %d", res.LSN, wantLSN+1)
	}
}

func TestReopenAfterHardKill(t *testing.T) {
	dir := t.TempDir()
	s := openDurableSystem(t, dir)
	gen := workload.NewDMLGenerator(23)
	for _, q := range gen.Batch(25) {
		if _, err := s.Exec(q.SQL); err != nil {
			t.Fatal(err)
		}
	}
	wantLSN := s.CommitLSN()
	wantRows := liveTableRows(t, s, "customer")

	// freeze the disk image without Close: no shutdown marker, no final
	// checkpoint — exactly what kill -9 leaves behind
	crashDir := t.TempDir()
	copyTree(t, dir, crashDir)
	s.Close()

	s2 := openDurableSystem(t, crashDir)
	defer s2.Close()
	info := s2.Recovery()
	if !info.Recovered || info.CleanShutdown {
		t.Fatalf("RecoveryInfo = %+v, want crash recovery", info)
	}
	if info.ReplayedMutations != 25 {
		t.Errorf("replayed %d mutations, want 25 (boot checkpoint at LSN 0 + full tail)", info.ReplayedMutations)
	}
	if got := s2.CommitLSN(); got != wantLSN {
		t.Fatalf("CommitLSN = %d, want %d", got, wantLSN)
	}
	if got := liveTableRows(t, s2, "customer"); !equalStrings(got, wantRows) {
		t.Fatalf("recovered table diverges")
	}
	if s2.Staleness() != 0 {
		t.Fatalf("staleness = %d, want 0", s2.Staleness())
	}
	assertStoresEqual(t, s2)
}

// TestCrashRecoveryDifferential is the subsystem's differential harness:
// commit a mixed DML history with every commit group-fsynced, then for a
// set of random byte offsets simulate kill -9 by truncating the WAL there,
// reopen, and require the recovered system to be byte-identical to a
// volatile reference system that executed exactly the first K statements —
// where K is the number of complete records the truncated log holds. The
// committed prefix property: durability never resurrects a torn suffix and
// never loses a complete one. At the full log the three boots — volatile,
// durable first boot, reopen — are compared heap slot by heap slot.
func TestCrashRecoveryDifferential(t *testing.T) {
	const statements = 60
	dir := t.TempDir()
	s := openDurableSystem(t, dir)
	gen := workload.NewDMLGenerator(4242)
	committed := make([]string, 0, statements)
	for _, q := range gen.Batch(statements) {
		res, err := s.Exec(q.SQL)
		if err != nil {
			t.Fatalf("Exec(%q): %v", q.SQL, err)
		}
		if res.LSN != uint64(len(committed)+1) {
			t.Fatalf("statement %d committed at LSN %d", len(committed), res.LSN)
		}
		committed = append(committed, q.SQL)
	}

	// freeze the crash image before Close can checkpoint or mark shutdown
	image := t.TempDir()
	copyTree(t, dir, image)
	s.Close()

	segs, err := filepath.Glob(filepath.Join(image, "wal", "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments in crash image: %v", err)
	}
	sort.Strings(segs)
	lastSeg := segs[len(segs)-1]
	full, err := os.ReadFile(lastSeg)
	if err != nil {
		t.Fatal(err)
	}

	// trial offsets: a few random cuts plus the boundaries
	rng := rand.New(rand.NewSource(99))
	offsets := []int64{0, int64(len(full))}
	for i := 0; i < 6; i++ {
		offsets = append(offsets, rng.Int63n(int64(len(full))+1))
	}
	sort.Slice(offsets, func(i, j int) bool { return offsets[i] < offsets[j] })

	// one volatile reference system, advanced forward as trials need it
	ref, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	refK := 0

	prevK := uint64(0)
	for _, off := range offsets {
		trial := t.TempDir()
		copyTree(t, image, trial)
		if err := os.Truncate(filepath.Join(trial, "wal", filepath.Base(lastSeg)), off); err != nil {
			t.Fatal(err)
		}
		rec := openDurableSystem(t, trial)
		k := rec.CommitLSN()
		if k > statements {
			t.Fatalf("offset %d: recovered LSN %d beyond history", off, k)
		}
		if k < prevK {
			t.Fatalf("offset %d: recovered LSN %d below smaller image's %d", off, k, prevK)
		}
		prevK = k
		if off == int64(len(full)) && k != statements {
			t.Fatalf("full log recovered only %d of %d commits", k, statements)
		}

		// advance the reference to exactly K committed statements
		for refK < int(k) {
			if _, err := ref.Exec(committed[refK]); err != nil {
				t.Fatal(err)
			}
			refK++
		}
		if refK != int(k) {
			t.Fatalf("offset %d: reference at %d statements, recovery at %d (non-monotonic trials?)", off, refK, k)
		}

		want := liveTableRows(t, ref, "customer")
		got := liveTableRows(t, rec, "customer")
		if !equalStrings(got, want) {
			t.Fatalf("offset %d (LSN %d): recovered table diverges from committed prefix: %d vs %d rows",
				off, k, len(got), len(want))
		}
		// staleness converges to zero: the column store's watermark caught
		// up to the recovered commit LSN during replay
		if err := rec.WaitFresh(5 * time.Second); err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		if rec.Staleness() != 0 {
			t.Fatalf("offset %d: staleness %d after recovery", off, rec.Staleness())
		}
		assertStoresEqual(t, rec)
		if k == statements {
			// boot is one sequence: the volatile boot, the durable first
			// boot (closed, still readable) and this reopen ran the same
			// history through it and must hold byte-identical storage
			if err := ref.WaitFresh(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			assertSameStorage(t, "volatile boot vs durable first boot", ref, s)
			assertSameStorage(t, "durable first boot vs reopen", s, rec)
		}

		// the recovered log must accept new commits at K+1
		res, err := rec.Exec("INSERT INTO customer (c_custkey, c_name, c_address, c_nationkey, c_phone, c_acctbal, c_mktsegment, c_comment) VALUES (1888888888, 'probe', 'p', 0, '10-0', 0.5, 'building', 'post-crash')")
		if err != nil {
			t.Fatalf("offset %d: post-recovery write: %v", off, err)
		}
		if res.LSN != k+1 {
			t.Fatalf("offset %d: post-recovery LSN %d, want %d", off, res.LSN, k+1)
		}
		rec.Close()
	}
}

// assertSameStorage requires two systems to hold byte-identical storage:
// every table's version heap slot for slot (row values and insert/delete
// LSNs) and, through assertStoresEqual on each, the same column values.
func assertSameStorage(t *testing.T, what string, a, b *System) {
	t.Helper()
	for _, meta := range a.Cat.Tables() {
		at, _ := a.Row.Table(meta.Name)
		bt, _ := b.Row.Table(meta.Name)
		ah, bh := at.SnapshotHeap(), bt.SnapshotHeap()
		if len(ah.Rows) != len(bh.Rows) {
			t.Fatalf("%s: %s heaps hold %d vs %d versions", what, meta.Name, len(ah.Rows), len(bh.Rows))
		}
		for i := range ah.Rows {
			if ah.Versions[i] != bh.Versions[i] {
				t.Fatalf("%s: %s slot %d versions %+v vs %+v", what, meta.Name, i, ah.Versions[i], bh.Versions[i])
			}
			for c := range ah.Rows[i] {
				if ah.Rows[i][c] != bh.Rows[i][c] {
					t.Fatalf("%s: %s slot %d col %d: %v vs %v", what, meta.Name, i, c, ah.Rows[i][c], bh.Rows[i][c])
				}
			}
		}
	}
	assertStoresEqual(t, a)
	assertStoresEqual(t, b)
}

// TestCrashDuringConcurrentLoad commits from many goroutines (group commit
// under contention), freezes the image mid-flight, and checks the
// recovered prefix is well-formed — every recovered commit is a complete
// statement, the two stores agree, and the WAL accepted interleaved
// appends in LSN order.
func TestCrashDuringConcurrentLoad(t *testing.T) {
	dir := t.TempDir()
	s := openDurableSystem(t, dir)
	const writers = 4
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			gen := workload.NewDMLGenerator(int64(1000 + g))
			for i := 0; i < 20; i++ {
				// generators share the synthetic key space; collisions are
				// fine (failed statements consume no LSN)
				_, _ = s.Exec(gen.Next().SQL)
			}
		}(g)
	}
	wg.Wait()
	wantLSN := s.CommitLSN()
	wantRows := liveTableRows(t, s, "customer")
	image := t.TempDir()
	copyTree(t, dir, image)
	s.Close()

	rec := openDurableSystem(t, image)
	defer rec.Close()
	if got := rec.CommitLSN(); got != wantLSN {
		t.Fatalf("recovered LSN %d, want %d", got, wantLSN)
	}
	if got := liveTableRows(t, rec, "customer"); !equalStrings(got, wantRows) {
		t.Fatalf("recovered table diverges under concurrent load")
	}
	if rec.Staleness() != 0 {
		t.Fatalf("staleness = %d", rec.Staleness())
	}
	assertStoresEqual(t, rec)
}

func TestCloseIdempotentDurableAndVolatile(t *testing.T) {
	for _, durable := range []bool{false, true} {
		name := "volatile"
		cfg := DefaultConfig()
		if durable {
			name = "durable"
			cfg = durableCfg(t.TempDir())
		}
		t.Run(name, func(t *testing.T) {
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Exec("DELETE FROM customer WHERE c_custkey = 1"); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for i := 0; i < 4; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					s.Close() // must never panic or double-close channels
				}()
			}
			wg.Wait()
			s.Close()
			if _, err := s.Exec("DELETE FROM customer WHERE c_custkey = 2"); err == nil {
				t.Fatal("Exec after Close succeeded")
			}
		})
	}
}

// TestBackgroundCheckpointerBoundsReplay runs with the periodic
// checkpointer on: after it fires, a crash image must replay only the tail
// beyond the last checkpoint, not the whole history.
func TestBackgroundCheckpointerBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir)
	cfg.Durability.CheckpointInterval = 20 * time.Millisecond
	s, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// a failed step still stops the checkpointer before TempDir's removal
	t.Cleanup(s.Close)
	gen := workload.NewDMLGenerator(7)
	for _, q := range gen.Batch(30) {
		if _, err := s.Exec(q.SQL); err != nil {
			t.Fatal(err)
		}
	}
	// wait for a checkpoint beyond LSN 0 to land
	deadline := time.Now().Add(5 * time.Second)
	for s.DurabilityStats().Ckpt.LastLSN == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	ckLSN := s.DurabilityStats().Ckpt.LastLSN
	if ckLSN == 0 {
		t.Fatal("background checkpointer never fired")
	}
	image := t.TempDir()
	copyTree(t, dir, image)
	wantRows := liveTableRows(t, s, "customer")
	wantLSN := s.CommitLSN()
	s.Close()

	rec := openDurableSystem(t, image)
	defer rec.Close()
	info := rec.Recovery()
	if info.CheckpointLSN == 0 {
		t.Fatalf("recovery ignored the background checkpoint: %+v", info)
	}
	if uint64(info.ReplayedMutations) > wantLSN-info.CheckpointLSN {
		t.Errorf("replayed %d mutations from checkpoint %d (commit %d): replay not bounded",
			info.ReplayedMutations, info.CheckpointLSN, wantLSN)
	}
	if got := rec.CommitLSN(); got != wantLSN {
		t.Fatalf("recovered LSN %d, want %d", got, wantLSN)
	}
	if got := liveTableRows(t, rec, "customer"); !equalStrings(got, wantRows) {
		t.Fatal("recovered table diverges with checkpointer on")
	}
	assertStoresEqual(t, rec)
}

// TestRecoveryReencodesColumns: chunk encodings are an in-memory choice —
// checkpoints and the WAL never record them. A hard-killed store must
// reopen with encodings re-chosen while rebuilding columns from the
// recovered heap, and the recovered system's serial AP results must be
// byte-identical to a volatile reference that executed the same committed
// statements. Every merger is stopped right after boot, so the recovered
// side is compared as recovery left it — re-encoded base chunks plus the
// replayed WAL tail in the delta — and the base/delta split, and therefore
// the accumulation order, is deterministic.
func TestRecoveryReencodesColumns(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	s.Col.StopMerger()
	gen := workload.NewDMLGenerator(77)
	var stmts []string
	for _, q := range gen.Batch(20) {
		if _, err := s.Exec(q.SQL); err != nil {
			continue // failed statements consume no LSN
		}
		stmts = append(stmts, q.SQL)
	}
	if len(stmts) == 0 {
		t.Fatal("no DML committed")
	}
	image := t.TempDir()
	copyTree(t, dir, image) // freeze a kill -9 disk image mid-flight
	s.Close()

	rec, err := Open(image, durableCfg(image))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	rec.Col.StopMerger()
	if ms := rec.Col.MergeStats(); ms.Merges != 0 {
		t.Fatalf("the merger compacted the replayed delta before it was stopped: %+v", ms)
	}
	if rec.Col.PendingDelta() == 0 {
		t.Fatal("recovery replayed no WAL tail into the delta")
	}
	if info := rec.Recovery(); !info.Recovered {
		t.Fatalf("RecoveryInfo = %+v, want recovered", info)
	}

	// the rebuilt base chunks are encoded again, not left raw
	stats := rec.Col.MemStats()
	encoded := stats.ChunksByEnc[colstore.EncDict] +
		stats.ChunksByEnc[colstore.EncFoR] + stats.ChunksByEnc[colstore.EncRLE]
	if encoded == 0 {
		t.Fatal("recovered column store chose no encodings")
	}
	if stats.ResidentBytes >= stats.RawBytes {
		t.Fatalf("recovered store not compressed: resident %d >= raw %d",
			stats.ResidentBytes, stats.RawBytes)
	}

	// volatile reference replays the committed history
	ref, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	ref.Col.StopMerger()
	for _, q := range stmts {
		if _, err := ref.Exec(q); err != nil {
			t.Fatalf("reference Exec(%q): %v", q, err)
		}
	}
	if err := ref.WaitFresh(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := rec.WaitFresh(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	for _, sql := range []string{
		"SELECT COUNT(*) FROM customer",
		"SELECT c_mktsegment, COUNT(*), SUM(c_acctbal), MIN(c_acctbal), MAX(c_acctbal) FROM customer GROUP BY c_mktsegment",
		"SELECT o_orderstatus, COUNT(*), SUM(o_totalprice) FROM orders GROUP BY o_orderstatus",
	} {
		got := runAP(t, rec, sql, 1)
		want := runAP(t, ref, sql, 1)
		if !sameMultiset(got, want, bitRowKey) {
			t.Errorf("recovered AP results diverge from volatile reference (%d vs %d rows):\n%s",
				len(got), len(want), sql)
		}
	}
}

// gapScenario commits six single-row deletes on nation, checkpoints, and
// commits two more, on 64-byte WAL segments so every retirement decision
// moves a file. It returns a kill -9 image of the data directory whose
// newest checkpoint (LSN 6) is corrupted, leaving the boot checkpoint
// (LSN 0) as LoadLatest's fallback, and the 17 nation rows that were
// committed.
func gapScenario(t *testing.T) (image string, cfg Config, want []string) {
	t.Helper()
	dir := t.TempDir()
	cfg = durableCfg(dir)
	cfg.Durability.SegmentBytes = 64
	s, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for k := 0; k < 8; k++ {
		if k == 6 {
			if lsn, err := s.Checkpoint(); err != nil || lsn != 6 {
				t.Fatalf("Checkpoint = %d, %v; want LSN 6", lsn, err)
			}
		}
		res, err := s.Exec(fmt.Sprintf("DELETE FROM nation WHERE n_nationkey = %d", k))
		if err != nil || res.RowsAffected != 1 || res.LSN != uint64(k+1) {
			t.Fatalf("delete %d: %+v, %v", k, res, err)
		}
	}
	want = liveTableRows(t, s, "nation")
	if len(want) != 17 {
		t.Fatalf("%d nation rows live after 8 deletes, want 17", len(want))
	}
	image = t.TempDir()
	copyTree(t, dir, image)
	newest := filepath.Join(image, "checkpoint", fmt.Sprintf("ckpt-%020d.snap", 6))
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return image, cfg, want
}

// TestRecoveryRefusesLogGap: a data directory whose log was retired up to
// a checkpoint that no longer loads (what every checkpoint did before the
// retirement floor was the oldest kept one) has a hole between the
// fallback image and the surviving tail. Replaying LSNs 7 and 8 onto the
// LSN-0 image would serve 23 nation rows where 17 were committed — six
// deleted rows resurrected — so the reopen must fail instead.
func TestRecoveryRefusesLogGap(t *testing.T) {
	image, cfg, want := gapScenario(t)
	// retire the log up to LSN 6, by the rule wal.TruncateBefore applies
	segs, err := filepath.Glob(filepath.Join(image, "wal", "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segs)
	first := func(seg string) uint64 {
		lsn, err := strconv.ParseUint(strings.TrimSuffix(filepath.Base(seg), ".seg"), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		return lsn
	}
	for len(segs) > 1 && first(segs[1]) <= 7 {
		if err := os.Remove(segs[0]); err != nil {
			t.Fatal(err)
		}
		segs = segs[1:]
	}

	rec, err := Open(image, cfg)
	if err == nil {
		defer rec.Close()
		t.Fatalf("reopened across a log gap at LSN %d with %d live nation rows; %d were committed (%s)",
			rec.CommitLSN(), len(liveTableRows(t, rec, "nation")), len(want), rec.Recovery())
	}
	if !strings.Contains(err.Error(), "image at LSN 0") || !strings.Contains(err.Error(), "log resumes at LSN 7") {
		t.Fatalf("Open = %v, want a refusal naming the image at LSN 0 and the log resuming at LSN 7", err)
	}
}

// TestRecoveryFallsBackToOlderCheckpoint is the gap test's positive twin:
// the same damaged newest checkpoint, but the log as the checkpointer left
// it — retired only up to the oldest checkpoint it kept — so the fallback
// image has its whole tail and the reopen is exactly the committed state.
func TestRecoveryFallsBackToOlderCheckpoint(t *testing.T) {
	image, cfg, want := gapScenario(t)
	rec, err := Open(image, cfg)
	if err != nil {
		t.Fatalf("Open with the newest checkpoint damaged: %v", err)
	}
	defer rec.Close()
	info := rec.Recovery()
	if !info.Recovered || info.CheckpointLSN != 0 || info.ReplayedMutations != 8 || info.RecoveredLSN != 8 {
		t.Fatalf("RecoveryInfo = %+v, want checkpoint 0 + 8 replayed -> LSN 8", info)
	}
	if got := liveTableRows(t, rec, "nation"); !equalStrings(got, want) {
		t.Fatalf("recovered nation has %d rows, want the %d committed", len(got), len(want))
	}
	if rec.Staleness() != 0 {
		t.Fatalf("staleness = %d, want 0", rec.Staleness())
	}
	assertStoresEqual(t, rec)
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
