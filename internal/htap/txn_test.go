package htap

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// The transaction suite proves the multi-writer MVCC contract: statements
// read at their Begin snapshot (plus their own writes), commits publish
// atomically across tables, first-writer-wins conflicts abort the later
// committer (no lost updates), and the replication + recovery pipelines
// treat transactional commits exactly like the single-statement ones they
// generalize. The suite runs under -race in CI's one `go test -race ./...`
// leg; the multi-writer gauntlet sets its own two scheduler widths.

// txnCommitRetry runs the statements in a fresh transaction, retrying a
// bounded number of times when the commit loses a first-writer-wins race.
// Any non-conflict error is sent to errs. Returns how many commits
// succeeded (0 or 1).
func txnCommitRetry(s *System, stmts []string, attempts int, errs chan<- error) int {
	for a := 0; a < attempts; a++ {
		tx := s.Begin()
		for _, q := range stmts {
			if _, err := tx.Exec(q); err != nil {
				tx.Rollback()
				errs <- fmt.Errorf("txn Exec(%q): %w", q, err)
				return 0
			}
		}
		if _, err := tx.Commit(); err == nil {
			return 1
		} else if !errors.Is(err, ErrConflict) {
			errs <- fmt.Errorf("txn Commit: %w", err)
			return 0
		}
	}
	errs <- fmt.Errorf("txn still conflicted after %d attempts", attempts)
	return 0
}

func nationInsert(key int64, name string) string {
	return fmt.Sprintf(
		"INSERT INTO nation (n_nationkey, n_name, n_regionkey, n_comment) VALUES (%d, '%s', 0, 'txn')",
		key, name)
}

func customerInsert(key int64) string {
	return fmt.Sprintf(
		"INSERT INTO customer (c_custkey, c_name, c_address, c_nationkey, c_phone, c_acctbal, c_mktsegment, c_comment) "+
			"VALUES (%d, 'txn#%d', 'addr', 1, '21-000', 0.00, 'machinery', 'txn row')", key, key)
}

func countWhere(t *testing.T, s *System, where string) int64 {
	t.Helper()
	if err := s.WaitFresh(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run("SELECT COUNT(*) FROM " + where)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ResultsAgree {
		t.Fatalf("engines disagree on %q: TP=%v AP=%v", where, res.TPRows, res.APRows)
	}
	return res.TPRows[0][0].I
}

func TestTxnSnapshotIsolationAndReadYourWrites(t *testing.T) {
	s := newUnmergedSystem(t)
	if _, err := s.Exec(nationInsert(100, "before")); err != nil {
		t.Fatal(err)
	}

	tx := s.Begin()
	if tx.Snapshot() != s.CommitLSN() {
		t.Fatalf("snapshot %d != commit LSN %d", tx.Snapshot(), s.CommitLSN())
	}
	// a commit after Begin is invisible to the transaction
	if _, err := s.Exec(nationInsert(101, "after")); err != nil {
		t.Fatal(err)
	}
	res, err := tx.Exec("UPDATE nation SET n_comment = 'seen' WHERE n_nationkey >= 100")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 1 {
		t.Fatalf("snapshot update affected %d rows, want 1 (key 101 is post-snapshot)", res.RowsAffected)
	}
	// read-your-writes: a pending insert is visible to later statements...
	if _, err := tx.Exec(nationInsert(102, "pending")); err != nil {
		t.Fatal(err)
	}
	res, err = tx.Exec("UPDATE nation SET n_comment = 'seen' WHERE n_nationkey >= 100")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 2 {
		t.Fatalf("read-your-writes update affected %d rows, want 2 (base 100 + pending 102)", res.RowsAffected)
	}
	// ...and a pending insert can be deleted before it ever commits
	res, err = tx.Exec("DELETE FROM nation WHERE n_nationkey = 102")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 1 {
		t.Fatalf("delete of pending insert affected %d rows, want 1", res.RowsAffected)
	}
	txr, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if txr.LSN != s.CommitLSN() {
		t.Fatalf("commit LSN %d != system commit LSN %d", txr.LSN, s.CommitLSN())
	}
	if got := countWhere(t, s, "nation WHERE n_nationkey = 102"); got != 0 {
		t.Fatalf("deleted pending insert committed anyway (%d rows)", got)
	}
	if got := countWhere(t, s, "nation WHERE n_comment = 'seen'"); got != 1 {
		t.Fatalf("%d rows carry the txn's update, want exactly 1 (key 100)", got)
	}
	if got := countWhere(t, s, "nation WHERE n_nationkey = 101"); got != 1 {
		t.Fatalf("concurrent commit lost: key 101 has %d rows", got)
	}
	assertStoresEqual(t, s)
}

func TestTxnAtomicMultiTableCommit(t *testing.T) {
	s := newUnmergedSystem(t)
	before := s.TxnStats()
	base := s.CommitLSN()

	tx := s.Begin()
	if _, err := tx.Exec(nationInsert(110, "atomic")); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(customerInsert(3_000_001)); err != nil {
		t.Fatal(err)
	}
	// buffered writes are invisible to every reader before Commit
	if s.CommitLSN() != base {
		t.Fatalf("buffered statements advanced the commit LSN to %d", s.CommitLSN())
	}
	if got := countWhere(t, s, "nation WHERE n_nationkey = 110"); got != 0 {
		t.Fatal("uncommitted insert visible")
	}
	txr, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	// two tables, two consecutive LSNs, published once
	if txr.LSN != base+2 {
		t.Fatalf("commit LSN = %d, want %d", txr.LSN, base+2)
	}
	if len(txr.Tables) != 2 || txr.Tables[0] != "customer" || txr.Tables[1] != "nation" {
		t.Fatalf("Tables = %v, want [customer nation]", txr.Tables)
	}
	if txr.RowsAffected != 2 {
		t.Fatalf("RowsAffected = %d, want 2", txr.RowsAffected)
	}
	if got := countWhere(t, s, "nation WHERE n_nationkey = 110"); got != 1 {
		t.Fatal("committed nation insert missing")
	}
	if got := countWhere(t, s, "customer WHERE c_custkey = 3000001"); got != 1 {
		t.Fatal("committed customer insert missing")
	}
	after := s.TxnStats()
	if after.Begun != before.Begun+1 || after.Committed != before.Committed+1 {
		t.Fatalf("stats %+v -> %+v, want one begun + one committed", before, after)
	}
	assertStoresEqual(t, s)
}

func TestTxnRollbackDiscardsWrites(t *testing.T) {
	s := newUnmergedSystem(t)
	if _, err := s.Exec(nationInsert(120, "keep")); err != nil {
		t.Fatal(err)
	}
	base := s.CommitLSN()
	before := s.TxnStats()

	tx := s.Begin()
	if _, err := tx.Exec(nationInsert(121, "discard")); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("UPDATE nation SET n_comment = 'discard' WHERE n_nationkey = 120"); err != nil {
		t.Fatal(err)
	}
	tx.Rollback()
	if s.CommitLSN() != base {
		t.Fatalf("rollback advanced the commit LSN to %d", s.CommitLSN())
	}
	if got := countWhere(t, s, "nation WHERE n_nationkey = 121"); got != 0 {
		t.Fatal("rolled-back insert visible")
	}
	if got := countWhere(t, s, "nation WHERE n_comment = 'discard'"); got != 0 {
		t.Fatal("rolled-back update visible")
	}
	// a finished transaction rejects further use
	if _, err := tx.Exec(nationInsert(122, "late")); err == nil {
		t.Fatal("statement accepted after Rollback")
	}
	if _, err := tx.Commit(); err == nil {
		t.Fatal("Commit accepted after Rollback")
	}
	after := s.TxnStats()
	if after.Aborted != before.Aborted+1 {
		t.Fatalf("Aborted %d -> %d, want +1", before.Aborted, after.Aborted)
	}
	if after.Active() != 0 {
		t.Fatalf("Active = %d after quiesce", after.Active())
	}
	assertStoresEqual(t, s)
}

func TestConflictFirstWriterWins(t *testing.T) {
	s := newUnmergedSystem(t)
	if _, err := s.Exec(nationInsert(130, "contested")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(nationInsert(131, "bystander")); err != nil {
		t.Fatal(err)
	}
	before := s.TxnStats()

	tx1, tx2, tx3 := s.Begin(), s.Begin(), s.Begin()
	if _, err := tx1.Exec("UPDATE nation SET n_comment = 'first' WHERE n_nationkey = 130"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Exec("UPDATE nation SET n_comment = 'second' WHERE n_nationkey = 130"); err != nil {
		t.Fatal(err)
	}
	// tx3 writes a disjoint row and must be unaffected by the race
	if _, err := tx3.Exec("DELETE FROM nation WHERE n_nationkey = 131"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx1.Commit(); err != nil {
		t.Fatalf("first committer: %v", err)
	}
	_, err := tx2.Commit()
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("second committer: %v, want ErrConflict", err)
	}
	if _, err := tx3.Commit(); err != nil {
		t.Fatalf("disjoint committer: %v", err)
	}
	// the winner's update survives; the loser left no trace
	if got := countWhere(t, s, "nation WHERE n_comment = 'first'"); got != 1 {
		t.Fatalf("winner's update: %d rows, want 1", got)
	}
	if got := countWhere(t, s, "nation WHERE n_comment = 'second'"); got != 0 {
		t.Fatalf("loser's update visible on %d rows", got)
	}
	if got := countWhere(t, s, "nation WHERE n_nationkey = 131"); got != 0 {
		t.Fatal("disjoint delete lost")
	}
	after := s.TxnStats()
	if after.Committed != before.Committed+2 || after.Conflicted != before.Conflicted+1 {
		t.Fatalf("stats %+v -> %+v, want +2 committed +1 conflicted", before, after)
	}
	assertStoresEqual(t, s)
}

// TestTxnConcurrentWriters is the multi-writer gauntlet: writers race
// private inserts and hot-row increments, retrying conflicts. First-
// writer-wins must prevent every lost update — at quiesce the hot rows'
// balance sum equals exactly the number of increments that committed —
// and the differential harness must still hold, with merges driven back to
// back beside the committers. It runs at two scheduler
// widths: a starved 2-proc schedule surfaces lock-ordering stalls, a wide
// 8-proc schedule surfaces real data races between committers.
func TestTxnConcurrentWriters(t *testing.T) {
	for _, procs := range []int{2, 8} {
		procs := procs
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			concurrentWriters(t)
		})
	}
}

func concurrentWriters(t *testing.T) {
	s := newWriteSystem(t, DefaultConfig())
	const (
		writers = 8
		txns    = 20
		hotKeys = 4
	)
	for h := 0; h < hotKeys; h++ {
		if _, err := s.Exec(customerInsert(int64(4_000_000 + h))); err != nil {
			t.Fatal(err)
		}
	}
	errs := make(chan error, writers*txns)
	commits := make([]int, writers)
	writersDone := make(chan struct{})
	merged := mergeLoop(s, writersDone)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < txns; i++ {
				if i == txns/2 {
					if err := awaitMerge(s); err != nil {
						errs <- err
						return
					}
				}
				hot := 4_000_000 + (w+i)%hotKeys
				private := int64(4_100_000 + w*txns + i)
				commits[w] += txnCommitRetry(s, []string{
					customerInsert(private),
					fmt.Sprintf("UPDATE customer SET c_acctbal = c_acctbal + 1 WHERE c_custkey = %d", hot),
				}, 200, errs)
			}
		}(w)
	}
	wg.Wait()
	close(writersDone)
	<-merged
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}
	total := 0
	for _, c := range commits {
		total += c
	}
	if total != writers*txns {
		t.Fatalf("%d of %d transactions committed", total, writers*txns)
	}
	if err := s.WaitFresh(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	s.Col.MergeAll()
	// no lost updates: every committed increment is in the sum
	res, err := s.Run("SELECT SUM(c_acctbal) FROM customer WHERE c_custkey >= 4000000 AND c_custkey < 4000100")
	if err != nil {
		t.Fatal(err)
	}
	if !res.ResultsAgree {
		t.Fatalf("engines disagree: TP=%v AP=%v", res.TPRows, res.APRows)
	}
	if got := res.TPRows[0][0].Float(); got != float64(total) {
		t.Fatalf("hot balance sum = %v, want %d (a lost update)", got, total)
	}
	if got := countWhere(t, s, "customer WHERE c_custkey >= 4100000 AND c_custkey < 4200000"); got != int64(total) {
		t.Fatalf("%d private inserts visible, want %d", got, total)
	}
	st := s.TxnStats()
	if st.Active() != 0 {
		t.Fatalf("Active = %d after quiesce (stats %+v)", st.Active(), st)
	}
	if st.Committed < int64(total) {
		t.Fatalf("Committed = %d < %d commits observed", st.Committed, total)
	}
	assertStoresEqual(t, s)
}

// TestTxnDifferentialInterleavedCommitAbort interleaves the statements of
// committing and rolling-back transactions over disjoint key ranges and
// checks, round after round at varying merge points, that the two stores
// stay byte-identical at the watermark and aborted writes never surface
// in either engine.
func TestTxnDifferentialInterleavedCommitAbort(t *testing.T) {
	s := newUnmergedSystem(t)
	for round := 0; round < 6; round++ {
		keep := int64(5_100_000 + round*10)
		drop := int64(5_200_000 + round*10)
		a, b, c := s.Begin(), s.Begin(), s.Begin()
		// interleave: a and c will commit, b rolls back
		steps := []struct {
			tx  *Txn
			sql string
		}{
			{a, customerInsert(keep)},
			{b, customerInsert(drop)},
			{c, customerInsert(keep + 1)},
			{b, fmt.Sprintf("UPDATE customer SET c_comment = 'doomed' WHERE c_custkey = %d", drop)},
			{a, fmt.Sprintf("UPDATE customer SET c_acctbal = c_acctbal + 7 WHERE c_custkey = %d", keep)},
			{b, nationInsert(int64(140+round), "doomed")},
			{c, fmt.Sprintf("DELETE FROM customer WHERE c_custkey = %d", keep+1)},
		}
		for _, st := range steps {
			if _, err := st.tx.Exec(st.sql); err != nil {
				t.Fatalf("round %d: Exec(%q): %v", round, st.sql, err)
			}
		}
		if _, err := a.Commit(); err != nil {
			t.Fatalf("round %d: commit a: %v", round, err)
		}
		b.Rollback()
		if _, err := c.Commit(); err != nil {
			t.Fatalf("round %d: commit c: %v", round, err)
		}
		if err := s.WaitFresh(5 * time.Second); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if round%2 == 1 {
			s.Col.MergeAll()
		}
		assertStoresEqual(t, s)
		if got := countWhere(t, s, fmt.Sprintf("customer WHERE c_custkey = %d", keep)); got != 1 {
			t.Fatalf("round %d: committed insert missing", round)
		}
		if got := countWhere(t, s, fmt.Sprintf("customer WHERE c_custkey = %d", drop)); got != 0 {
			t.Fatalf("round %d: aborted insert visible", round)
		}
		if got := countWhere(t, s, "nation WHERE n_name = 'doomed'"); got != 0 {
			t.Fatalf("round %d: aborted nation insert visible", round)
		}
	}
}

// TestTxnSurvivesReopen proves recovery replays committed transactions —
// including multi-table commits logged as a single KindTxn record — and
// nothing else: a crash image taken after commits and aborts reopens to
// exactly the committed state.
func TestTxnSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s := openDurableSystem(t, dir)
	if _, err := s.Exec(nationInsert(150, "durable")); err != nil {
		t.Fatal(err)
	}
	// multi-table transaction: logged as one KindTxn record
	tx := s.Begin()
	if _, err := tx.Exec(nationInsert(151, "txn-durable")); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(customerInsert(5_300_000)); err != nil {
		t.Fatal(err)
	}
	txr, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if txr.LSN != 3 {
		t.Fatalf("txn commit LSN = %d, want 3", txr.LSN)
	}
	// an aborted transaction must leave no trace in the log
	rb := s.Begin()
	if _, err := rb.Exec(nationInsert(152, "aborted")); err != nil {
		t.Fatal(err)
	}
	rb.Rollback()
	wantCustomer := liveTableRows(t, s, "customer")
	wantNation := liveTableRows(t, s, "nation")

	// freeze a crash image while the source still runs (no clean shutdown)
	crashDir := t.TempDir()
	copyTree(t, dir, crashDir)
	s.Close()

	s2 := openDurableSystem(t, crashDir)
	defer s2.Close()
	info := s2.Recovery()
	if !info.Recovered || info.CleanShutdown {
		t.Fatalf("RecoveryInfo = %+v, want crash recovery", info)
	}
	// 1 autocommit mutation + 2 mutations inside the KindTxn record
	if info.ReplayedMutations != 3 {
		t.Fatalf("replayed %d mutations, want 3", info.ReplayedMutations)
	}
	if got := s2.CommitLSN(); got != 3 {
		t.Fatalf("recovered commit LSN = %d, want 3", got)
	}
	if got := liveTableRows(t, s2, "customer"); !equalStrings(got, wantCustomer) {
		t.Fatalf("recovered customer table diverges: %d vs %d rows", len(got), len(wantCustomer))
	}
	if got := liveTableRows(t, s2, "nation"); !equalStrings(got, wantNation) {
		t.Fatalf("recovered nation table diverges: %d vs %d rows", len(got), len(wantNation))
	}
	if got := countWhere(t, s2, "nation WHERE n_nationkey = 152"); got != 0 {
		t.Fatal("aborted insert survived the crash")
	}
	assertStoresEqual(t, s2)
	// the recovered system accepts transactions immediately
	tx2 := s2.Begin()
	if _, err := tx2.Exec(nationInsert(153, "post-recovery")); err != nil {
		t.Fatal(err)
	}
	if txr, err := tx2.Commit(); err != nil || txr.LSN != 4 {
		t.Fatalf("post-recovery commit: lsn=%v err=%v", txr, err)
	}
}
