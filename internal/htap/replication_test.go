package htap

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"htapxplain/internal/exec"
	"htapxplain/internal/sqlparser"
	"htapxplain/internal/task"
	"htapxplain/internal/value"
)

// The replication suite is the write path's differential harness: after
// any interleaving of DML, replication and merges, a full scan of the
// column store at the replication watermark must be byte-identical to the
// row store's live rows — same rows, same values, same order (both stores
// preserve commit order: the heap appends, the delta replays in LSN order,
// and merges keep survivors in sequence). CI runs these tests under -race
// (see .github/workflows/ci.yml, "Write path differential (race)").

func newWriteSystem(t *testing.T, cfg Config) *System {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

// newUnmergedSystem builds a write system whose background merger is
// stopped right after New. Deltas are empty at boot, so a pass that ran
// first did nothing: merges happen only where the test calls MergeAll.
func newUnmergedSystem(t *testing.T) *System {
	t.Helper()
	s := newWriteSystem(t, DefaultConfig())
	s.Col.StopMerger()
	return s
}

// mergeLoop stands in for an aggressive background merger: it stops the
// system's own and compacts every pending delta from a test goroutine,
// pass after pass, until stop is closed, so merges race whatever runs
// beside them. The returned channel is closed once the loop has exited.
func mergeLoop(s *System, stop <-chan struct{}) <-chan struct{} {
	s.Col.StopMerger()
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		for {
			select {
			case <-stop:
				return
			default:
				s.Col.MergeAll()
			}
		}
	}()
	return exited
}

// awaitMerge holds a writer halfway through its run until the merge loop
// has compacted a delta, so every racing-merge test shows that merges ran
// while its writers (and readers) still did, whatever the scheduler made
// of the first half.
func awaitMerge(s *System) error {
	deadline := time.Now().Add(10 * time.Second)
	for s.Col.MergeStats().Merges == 0 {
		if time.Now().After(deadline) {
			return errors.New("no merge ran while the writers did")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// assertStoresEqual compares both engines' logical contents table by
// table, value by value, in commit order.
func assertStoresEqual(t *testing.T, s *System) {
	t.Helper()
	for _, meta := range s.Cat.Tables() {
		rt, ok := s.Row.Table(meta.Name)
		if !ok {
			t.Fatalf("row store missing %q", meta.Name)
		}
		ct, ok := s.Col.Table(meta.Name)
		if !ok {
			t.Fatalf("column store missing %q", meta.Name)
		}
		rows := rt.Scan()
		v := ct.View()
		if v.NumLive() != len(rows) {
			t.Fatalf("%s: row store has %d live rows, column store %d",
				meta.Name, len(rows), v.NumLive())
		}
		i := 0
		check := func(read func(col int) value.Value, where string) {
			for c := range meta.Columns {
				if got, want := read(c), rows[i][c]; got != want {
					t.Fatalf("%s: %s row %d col %d: colstore %v != rowstore %v",
						meta.Name, where, i, c, got, want)
				}
			}
			i++
		}
		for pos := 0; pos < v.NumRows; pos++ {
			if v.BaseDead.Has(pos) {
				continue
			}
			pos := pos
			check(func(c int) value.Value { return v.Cols[c].Value(pos) }, "base")
		}
		for _, dr := range v.Delta {
			dr := dr
			check(func(c int) value.Value { return dr[c] }, "delta")
		}
	}
}

// dmlMixer issues a deterministic stream of INSERT/UPDATE/DELETE over
// customer and orders, tracking the synthetic customer keys it inserted.
type dmlMixer struct {
	rng      *rand.Rand
	nextKey  int64
	inserted []int64
}

func newMixer(seed int64) *dmlMixer {
	return newMixerAt(seed, 5_000_000)
}

// newMixerAt gives each concurrent writer its own key range, so writers
// conflict only on the shared orders rows (a real first-writer-wins race)
// rather than on every synthetic customer key.
func newMixerAt(seed, keyBase int64) *dmlMixer {
	return &dmlMixer{rng: rand.New(rand.NewSource(seed)), nextKey: keyBase}
}

// execRetry is the concurrent writers' autocommit loop: an UPDATE or
// DELETE that loses a first-writer-wins race reruns on a fresh snapshot.
func execRetry(s *System, sql string, attempts int) error {
	var err error
	for a := 0; a < attempts; a++ {
		if _, err = s.Exec(sql); err == nil || !errors.Is(err, ErrConflict) {
			return err
		}
	}
	return err
}

func (m *dmlMixer) next() string {
	switch op := m.rng.Intn(10); {
	case op < 4 || len(m.inserted) < 3: // insert-heavy
		k := m.nextKey
		m.nextKey++
		m.inserted = append(m.inserted, k)
		return fmt.Sprintf(
			"INSERT INTO customer (c_custkey, c_name, c_address, c_nationkey, c_phone, c_acctbal, c_mktsegment, c_comment) "+
				"VALUES (%d, 'w#%d', 'addr', %d, '%02d-%03d', %d.%02d, 'machinery', 'written')",
			k, k, m.rng.Intn(25), 10+m.rng.Intn(25), m.rng.Intn(1000),
			m.rng.Intn(5000), m.rng.Intn(100))
	case op < 6:
		k := m.inserted[m.rng.Intn(len(m.inserted))]
		return fmt.Sprintf("UPDATE customer SET c_acctbal = c_acctbal + %d WHERE c_custkey = %d",
			1+m.rng.Intn(50), k)
	case op < 7:
		return fmt.Sprintf("UPDATE orders SET o_orderstatus = 'f' WHERE o_orderkey = %d",
			1+m.rng.Intn(500))
	case op < 9:
		i := m.rng.Intn(len(m.inserted))
		k := m.inserted[i]
		m.inserted = append(m.inserted[:i], m.inserted[i+1:]...)
		return fmt.Sprintf("DELETE FROM customer WHERE c_custkey = %d", k)
	default:
		return fmt.Sprintf("DELETE FROM orders WHERE o_orderkey = %d", 1+m.rng.Intn(2000))
	}
}

// TestReplicationDifferentialMixedWorkload is the acceptance harness:
// random DML batches with merges forced at varying points, and after every
// batch (once the watermark catches the commit LSN) the two engines must
// hold byte-identical tables, and dual-engine query execution must still
// agree.
func TestReplicationDifferentialMixedWorkload(t *testing.T) {
	// merger stopped: merge points are forced explicitly so every
	// interleaving class (delta-only, merged, half-merged) is exercised
	// deterministically
	s := newUnmergedSystem(t)
	mix := newMixer(20260725)
	queries := []string{
		`SELECT COUNT(*) FROM customer`,
		`SELECT COUNT(*), SUM(c_acctbal) FROM customer WHERE c_mktsegment = 'machinery'`,
		`SELECT COUNT(*) FROM customer, nation WHERE n_nationkey = c_nationkey AND n_name = 'egypt'`,
		`SELECT COUNT(*) FROM orders WHERE o_orderstatus = 'f'`,
	}
	for round := 0; round < 8; round++ {
		for i := 0; i < 12; i++ {
			sql := mix.next()
			if _, err := s.Exec(sql); err != nil {
				t.Fatalf("round %d: Exec(%q): %v", round, sql, err)
			}
		}
		if err := s.WaitFresh(5 * time.Second); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		// vary the merge point: some rounds compare against pure delta,
		// some against freshly merged base chunks
		if round%3 == 1 {
			s.Col.MergeAll()
		}
		assertStoresEqual(t, s)
		for _, q := range queries {
			res, err := s.Run(q)
			if err != nil {
				t.Fatalf("round %d: Run(%q): %v", round, q, err)
			}
			if !res.ResultsAgree {
				t.Fatalf("round %d: engines disagree on %q: TP=%v AP=%v",
					round, q, res.TPRows, res.APRows)
			}
		}
	}
	if s.CommitLSN() == 0 || s.Watermark() != s.CommitLSN() {
		t.Errorf("watermark %d vs commit LSN %d after quiesce", s.Watermark(), s.CommitLSN())
	}
}

// TestReplicationConcurrentWritesReadsAndMerges exercises the full
// concurrent pipeline — multiple autocommit writers racing each other,
// closed-loop dual-engine readers, the replication applier and merges
// driven back to back from a test goroutine — and then quiesces and
// asserts the engines converged. Under -race this is the test that proves
// the locking protocol (MVCC snapshots, the commit critical section,
// copy-on-write delete sets, immutable merged chunks) is sound.
func TestReplicationConcurrentWritesReadsAndMerges(t *testing.T) {
	s := newWriteSystem(t, DefaultConfig())
	const (
		writers       = 3
		writesPerGoro = 50
	)
	var wg, writerWg sync.WaitGroup
	stopReaders := make(chan struct{})
	errs := make(chan error, 8)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		writerWg.Add(1)
		go func(w int) { // concurrent writers: shared orders rows can conflict
			defer wg.Done()
			defer writerWg.Done()
			mix := newMixerAt(int64(7+w), int64(5_000_000+w*100_000))
			for i := 0; i < writesPerGoro; i++ {
				if i == writesPerGoro/2 {
					if err := awaitMerge(s); err != nil {
						errs <- err
						return
					}
				}
				if err := execRetry(s, mix.next(), 100); err != nil {
					errs <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) { // dual-engine readers racing the writer and merger
			defer wg.Done()
			queries := []string{
				`SELECT COUNT(*), SUM(c_acctbal) FROM customer`,
				`SELECT COUNT(*) FROM customer, nation WHERE n_nationkey = c_nationkey`,
				`SELECT c_name, c_acctbal FROM customer ORDER BY c_acctbal DESC LIMIT 5`,
			}
			for i := 0; ; i++ {
				select {
				case <-stopReaders:
					return
				default:
				}
				if _, err := s.Run(queries[(i+r)%len(queries)]); err != nil {
					errs <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
			}
		}(r)
	}

	done := make(chan struct{})
	go func() { defer close(done); wg.Wait() }()
	writersDone := make(chan struct{})
	go func() { defer close(writersDone); writerWg.Wait() }()
	merged := mergeLoop(s, writersDone)
	// writers (and the merges racing them) finish first; then stop the readers
waitWriters:
	for {
		select {
		case err := <-errs:
			close(stopReaders)
			t.Fatal(err)
		case <-writersDone:
			break waitWriters
		}
	}
	<-merged
	close(stopReaders)
	<-done
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	if err := s.WaitFresh(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	s.Col.MergeAll()
	assertStoresEqual(t, s)
}

// TestWatermarkAndStaleness: the freshness gauge must be exact at
// quiescence and the watermark must never pass the commit LSN.
func TestWatermarkAndStaleness(t *testing.T) {
	s := newUnmergedSystem(t)
	if s.Staleness() != 0 || s.CommitLSN() != 0 {
		t.Fatalf("fresh system: staleness=%d lsn=%d", s.Staleness(), s.CommitLSN())
	}
	res, err := s.Exec(`INSERT INTO nation (n_nationkey, n_name, n_regionkey, n_comment) VALUES (90, 'atlantis', 0, 'sunk')`)
	if err != nil {
		t.Fatal(err)
	}
	if res.LSN != 1 || res.RowsAffected != 1 {
		t.Fatalf("result = %+v, want LSN 1, 1 row", res)
	}
	if err := s.WaitFresh(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if w := s.Watermark(); w != 1 {
		t.Errorf("watermark = %d, want 1", w)
	}
	if s.Staleness() != 0 {
		t.Errorf("staleness = %d after WaitFresh", s.Staleness())
	}
	// the write is visible to a dual-engine query and both engines agree
	r, err := s.Run(`SELECT COUNT(*) FROM nation WHERE n_name = 'atlantis'`)
	if err != nil {
		t.Fatal(err)
	}
	if !r.ResultsAgree || len(r.TPRows) != 1 || r.TPRows[0][0].I != 1 {
		t.Fatalf("fresh write not visible: agree=%v TP=%v AP=%v", r.ResultsAgree, r.TPRows, r.APRows)
	}
}

// TestRowKeyFloatNormalization is the regression test for the multiset
// cross-check: -0.0 and +0.0 (and values inside the rounding tolerance
// that straddle zero) must land on the same key, while values that differ
// at the 4th decimal must not.
func TestRowKeyFloatNormalization(t *testing.T) {
	key := func(f float64) string { return rowKey(value.Row{value.NewFloat(f)}) }
	if key(-0.0) != key(0.0) {
		t.Errorf("rowKey splits -0.0 and 0.0: %q vs %q", key(-0.0), key(0.0))
	}
	if key(-1e-9) != key(1e-9) {
		t.Errorf("rowKey splits ±1e-9 (both round to zero): %q vs %q", key(-1e-9), key(1e-9))
	}
	if key(1.00004) == key(1.00016) {
		t.Errorf("rowKey collides values that differ at the 4th decimal: %q", key(1.00004))
	}
	// non-floats still use the exact Key encoding
	if rowKey(value.Row{value.NewInt(3)}) == rowKey(value.Row{value.NewFloat(3)}) {
		t.Error("rowKey conflates INT 3 with FLOAT 3.0")
	}
}

// runAPAt plans sql on the column engine and executes it at an explicit
// degree of parallelism — the harness hook for differential testing of
// morsel-driven execution (the planner's own DOP choice is bypassed so
// DOP 1 and DOP 4 run the identical plan).
func runAPAt(t *testing.T, s *System, sql string, dop int) []value.Row {
	t.Helper()
	sel, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	phys, err := s.Planner.PlanAP(sel)
	if err != nil {
		t.Fatalf("plan %q: %v", sql, err)
	}
	ctx := exec.NewContext()
	ctx.DOP = dop
	rows, err := phys.Execute(ctx)
	if err != nil {
		t.Fatalf("execute %q at DOP %d: %v", sql, dop, err)
	}
	return rows
}

// assertParallelizes guards the differential against silently-serial
// execution: aggregate/scan shapes over multi-chunk tables must actually
// fork workers at DOP > 1 (worker count is clamped to morsel supply, so
// only tables spanning >= 2 chunks can fork at all).
func assertParallelizes(t *testing.T, s *System, sql string) {
	t.Helper()
	sel, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	phys, err := s.Planner.PlanAP(sel)
	if err != nil {
		t.Fatal(err)
	}
	ctx := exec.NewContext()
	ctx.DOP = 4
	if _, err := phys.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if ctx.Stats.ParallelWorkers < 2 {
		t.Fatalf("%q at DOP 4 forked %d workers, want >= 2", sql, ctx.Stats.ParallelWorkers)
	}
}

// parallelDifferentialQueries are deterministic read shapes (aggregates,
// group-bys, full filter scans, ordered Top-N — no bare LIMIT, whose row
// choice is legitimately nondeterministic) used by the DOP differential.
var parallelDifferentialQueries = []string{
	`SELECT COUNT(*), SUM(l_extendedprice), MIN(l_quantity), MAX(l_quantity) FROM lineitem WHERE l_quantity > 10`,
	`SELECT COUNT(*), SUM(c_acctbal) FROM customer`,
	`SELECT COUNT(*), SUM(c_acctbal), MIN(c_acctbal), MAX(c_acctbal), AVG(c_acctbal) FROM customer WHERE c_mktsegment = 'machinery'`,
	`SELECT c_mktsegment, COUNT(*), SUM(c_acctbal) FROM customer GROUP BY c_mktsegment`,
	`SELECT c_custkey, c_name, c_acctbal FROM customer WHERE c_acctbal > 3000`,
	`SELECT COUNT(*) FROM orders WHERE o_orderkey <= 500`,
	`SELECT COUNT(*) FROM customer, nation WHERE n_nationkey = c_nationkey AND n_name = 'egypt'`,
	`SELECT c_name, c_acctbal FROM customer ORDER BY c_acctbal DESC, c_custkey LIMIT 7`,
}

// TestReplicationParallelReadDifferential extends the differential
// harness to morsel-driven execution: after every quiesced DML batch (at
// varying merge points, so delta-only, merged and half-merged states are
// all covered), each deterministic query must return the same multiset at
// DOP 1 and DOP 4, and parallel results must agree with the row engine.
func TestReplicationParallelReadDifferential(t *testing.T) {
	s := newUnmergedSystem(t)
	// the multi-chunk aggregate and filter-scan shapes must really fork
	// (Top-N pipelines legitimately stay serial — the operator consumes
	// its child's stream itself — and single-chunk tables clamp to serial)
	assertParallelizes(t, s, parallelDifferentialQueries[0])
	assertParallelizes(t, s, `SELECT o_orderkey, o_totalprice FROM orders WHERE o_totalprice > 50000`)
	mix := newMixer(20260726)
	for round := 0; round < 6; round++ {
		for i := 0; i < 12; i++ {
			sql := mix.next()
			if _, err := s.Exec(sql); err != nil {
				t.Fatalf("round %d: Exec(%q): %v", round, sql, err)
			}
		}
		if err := s.WaitFresh(5 * time.Second); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if round%2 == 1 {
			s.Col.MergeAll()
		}
		for _, q := range parallelDifferentialQueries {
			serial := runAPAt(t, s, q, 1)
			parallel := runAPAt(t, s, q, 4)
			if !sameCardinality(serial, parallel) {
				t.Fatalf("round %d: DOP 1 and DOP 4 disagree on %q:\n  serial:   %v\n  parallel: %v",
					round, q, serial, parallel)
			}
			res, err := s.Run(q)
			if err != nil {
				t.Fatalf("round %d: Run(%q): %v", round, q, err)
			}
			if !sameCardinality(res.TPRows, parallel) {
				t.Fatalf("round %d: parallel AP disagrees with the row engine on %q:\n  TP: %v\n  AP(4): %v",
					round, q, res.TPRows, parallel)
			}
		}
	}
}

// TestReplicationConcurrentDMLAndParallelScans races the full pipeline —
// writers, replication applier, back-to-back merges — against
// closed-loop parallel readers at DOP 4. Under -race this is the proof
// that morsel workers (sharing a pinned view across goroutines) obey the
// storage locking protocol; at quiescence the stores must have converged
// and DOP 1 / DOP 4 must still agree.
func TestReplicationConcurrentDMLAndParallelScans(t *testing.T) {
	s := newWriteSystem(t, DefaultConfig())
	const (
		writers       = 3
		writesPerGoro = 40
	)
	var wg, writerWg sync.WaitGroup
	stopReaders := make(chan struct{})
	errs := make(chan error, 8)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		writerWg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer writerWg.Done()
			mix := newMixerAt(int64(13+w), int64(5_000_000+w*100_000))
			for i := 0; i < writesPerGoro; i++ {
				if i == writesPerGoro/2 {
					if err := awaitMerge(s); err != nil {
						errs <- err
						return
					}
				}
				if err := execRetry(s, mix.next(), 100); err != nil {
					errs <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stopReaders:
					return
				default:
				}
				q := parallelDifferentialQueries[(i+r)%len(parallelDifferentialQueries)]
				sel, err := sqlparser.Parse(q)
				if err != nil {
					errs <- err
					return
				}
				phys, err := s.Planner.PlanAP(sel)
				if err != nil {
					errs <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				ctx := exec.NewContext()
				ctx.DOP = 4
				if _, err := phys.Execute(ctx); err != nil {
					errs <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
			}
		}(r)
	}

	done := make(chan struct{})
	go func() { defer close(done); wg.Wait() }()
	writersDone := make(chan struct{})
	go func() { defer close(writersDone); writerWg.Wait() }()
	merged := mergeLoop(s, writersDone)
	// writers (and the merges racing them) finish first; then stop the readers
waitWriters:
	for {
		select {
		case err := <-errs:
			close(stopReaders)
			t.Fatal(err)
		case <-writersDone:
			break waitWriters
		}
	}
	<-merged
	close(stopReaders)
	<-done
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	if err := s.WaitFresh(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	s.Col.MergeAll()
	assertStoresEqual(t, s)
	for _, q := range parallelDifferentialQueries {
		if !sameCardinality(runAPAt(t, s, q, 1), runAPAt(t, s, q, 4)) {
			t.Fatalf("DOP 1 and DOP 4 disagree on %q after quiesce", q)
		}
	}
}

// TestApplierPanicHaltsReplicationNotCommitters: a mutation the column
// store panics on (nil stands in for one malformed past Apply's checks)
// halts replication the way an Apply error does — ReplicationErr is set,
// the watermark stops, staleness grows — and costs nothing else: the
// applier goes on draining, so many more commits than the queue holds all
// finish (each sends while holding the commit lock; one blocked send
// would stop every writer), reads answer, and Close returns.
func TestApplierPanicHaltsReplicationNotCommitters(t *testing.T) {
	s := newUnmergedSystem(t)
	before := task.Panics()
	s.replCh <- nil
	deadline := time.Now().Add(5 * time.Second)
	for s.ReplicationErr() == nil {
		if time.Now().After(deadline) {
			t.Fatal("the applier's panic never reached ReplicationErr")
		}
		time.Sleep(time.Millisecond)
	}
	var pe *task.PanicError
	if err := s.ReplicationErr(); !errors.As(err, &pe) || !strings.Contains(string(pe.Stack), "applyQueued") {
		t.Fatalf("ReplicationErr() = %v, want the *task.PanicError raised under applyQueued", err)
	}
	if got := task.Panics() - before; got != 1 {
		t.Errorf("panics counted: %d, want 1", got)
	}

	const commits = 2 * replQueueDepth
	var writers task.Group
	writers.Go(func() error {
		for i := int64(0); i < commits; i++ {
			if _, err := s.Exec(nationInsert(1000+i, "halted")); err != nil {
				return err
			}
		}
		return nil
	})
	done := make(chan error, 1)
	var watch task.Group
	watch.Go(func() error {
		done <- writers.Wait()
		return nil
	})
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("commit after replication halted: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("a committer is blocked on the replication queue of a halted applier")
	}
	if s.Watermark() != 0 || s.Staleness() != commits {
		t.Errorf("watermark %d, staleness %d after %d commits on halted replication, want 0 and %d",
			s.Watermark(), s.Staleness(), commits, commits)
	}
	res, err := s.Run("SELECT COUNT(*) FROM nation WHERE n_name = 'halted'")
	if err != nil {
		t.Fatal(err)
	}
	if res.TPRows[0][0].I != commits || res.APRows[0][0].I != 0 {
		t.Errorf("TP sees %v, AP sees %v, want every commit on the primary and none replicated", res.TPRows, res.APRows)
	}
}
