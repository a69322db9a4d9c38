package gateway

import (
	"runtime"
	"testing"
	"time"

	"htapxplain/internal/plan"
)

// forceAP routes every query to the column engine — the pruning and
// parallelism tests must not depend on the cost model's choice.
type forceAP struct{}

func (forceAP) Name() string                 { return "force-ap" }
func (forceAP) Route(RouteInput) plan.Engine { return plan.AP }

// TestZoneMapPruningVisibleInMetrics: a selective range scan on a sorted
// column (o_orderkey and l_orderkey are generated ascending) must prune
// chunks at morsel dispatch, and the effectiveness must be visible on the
// gateway's /metrics surface — pruned and scanned chunk counts plus the
// morsel dispatch count. Zone maps are rebuilt on merge; this is the test
// that keeps their effectiveness from being invisible.
func TestZoneMapPruningVisibleInMetrics(t *testing.T) {
	sys := testSystem(t)
	g := New(sys, Config{Workers: 1, CacheCapacity: 16, Policy: forceAP{}})
	defer g.Stop()

	resp := g.Serve(`SELECT COUNT(*) FROM lineitem WHERE l_orderkey <= 40`)
	if resp.Err != nil {
		t.Fatalf("serve: %v", resp.Err)
	}
	if resp.Engine != plan.AP {
		t.Fatalf("query routed to %v, want AP", resp.Engine)
	}
	snap := g.Metrics()
	if snap.ZonemapPruned <= 0 {
		t.Errorf("zonemap_chunks_pruned = %d, want > 0 (selective scan on sorted column)", snap.ZonemapPruned)
	}
	if snap.ZonemapScanned <= 0 {
		t.Errorf("zonemap_chunks_scanned = %d, want > 0", snap.ZonemapScanned)
	}
	if snap.MorselsDispatched <= 0 {
		t.Errorf("exec_morsels_dispatched = %d, want > 0", snap.MorselsDispatched)
	}
	// pruned chunks were counted, not scanned: rows visited must be well
	// below the full table
	full := int64(0)
	if ct, ok := sys.Col.Table("lineitem"); ok {
		full = int64(ct.NumRows())
	}
	if snap.ExecAP.RowsScanned >= full {
		t.Errorf("scan visited %d rows of %d — pruning did not skip work", snap.ExecAP.RowsScanned, full)
	}
}

// TestDOPAdmissionGrantsAndDegrades: with a multi-worker pool, a plan that
// asks for parallelism is granted extra workers against the pool ledger
// (visible as exec_parallel_queries); with a single-slot pool the same
// query degrades to serial instead of oversubscribing.
func TestDOPAdmissionGrantsAndDegrades(t *testing.T) {
	prev := runtime.GOMAXPROCS(4) // let the planner ask for DOP > 1
	defer runtime.GOMAXPROCS(prev)
	sys := testSystem(t)
	sql := `SELECT COUNT(*), SUM(l_extendedprice) FROM lineitem WHERE l_quantity > 5`

	g4 := New(sys, Config{Workers: 4, CacheCapacity: 16, Policy: forceAP{}})
	defer g4.Stop()
	if resp := g4.Serve(sql); resp.Err != nil {
		t.Fatalf("serve: %v", resp.Err)
	}
	snap := g4.Metrics()
	if snap.ParallelQueries != 1 {
		t.Errorf("exec_parallel_queries = %d, want 1 (pool had spare workers)", snap.ParallelQueries)
	}
	if snap.ExecAP.ParallelWorkers < 2 {
		t.Errorf("parallel workers = %d, want >= 2", snap.ExecAP.ParallelWorkers)
	}

	g1 := New(sys, Config{Workers: 1, CacheCapacity: 16, Policy: forceAP{}})
	defer g1.Stop()
	// the Serve below runs outside the pool goroutines, so take the single
	// slot first: with no spare capacity the query must degrade to serial
	if got := g1.slots.tryAcquire(1); got != 1 {
		t.Fatalf("tryAcquire(1) = %d on a fresh single-slot pool", got)
	}
	if resp := g1.Serve(sql); resp.Err != nil {
		t.Fatalf("serve: %v", resp.Err)
	}
	g1.slots.release(1)
	if snap := g1.Metrics(); snap.ParallelQueries != 0 {
		t.Errorf("exec_parallel_queries = %d on an exhausted pool, want 0 (degraded to serial)", snap.ParallelQueries)
	}
}

// TestWorkerSem exercises the admission ledger directly: blocking
// acquisition, the waiter bound, non-blocking degradation, one wake-up per
// released slot, and shutdown.
func TestWorkerSem(t *testing.T) {
	s := newWorkerSem(3, 2)
	if err := s.acquire(); err != nil {
		t.Fatalf("acquire on fresh sem: %v", err)
	}
	if got := s.tryAcquire(5); got != 2 {
		t.Fatalf("tryAcquire(5) = %d, want 2 (degraded grant)", got)
	}
	if got := s.tryAcquire(1); got != 0 {
		t.Fatalf("tryAcquire(1) on empty sem = %d, want 0", got)
	}

	// two callers may wait; the third is shed without waiting
	acquired := make(chan error, 2)
	for i := 1; i <= 2; i++ {
		go func() { acquired <- s.acquire() }()
		for s.waiting() < i {
			runtime.Gosched()
		}
	}
	if err := s.acquire(); err != ErrOverloaded {
		t.Fatalf("acquire with the waiter bound reached = %v, want ErrOverloaded", err)
	}
	select {
	case <-acquired:
		t.Fatal("acquire returned with no free slot")
	case <-time.After(10 * time.Millisecond):
	}

	// one released slot admits exactly one waiter
	s.release(1)
	select {
	case err := <-acquired:
		if err != nil {
			t.Fatalf("woken acquire: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("release did not wake a blocked acquire")
	}
	select {
	case <-acquired:
		t.Fatal("one released slot admitted two waiters")
	case <-time.After(10 * time.Millisecond):
	}

	// close fails the waiter left and every later caller, and returns
	// only when all three slots are back
	closed := make(chan struct{})
	go func() {
		s.close()
		close(closed)
	}()
	if err := <-acquired; err != ErrStopped {
		t.Errorf("acquire across close = %v, want ErrStopped", err)
	}
	if err := s.acquire(); err != ErrStopped {
		t.Errorf("acquire after close = %v, want ErrStopped", err)
	}
	s.release(2)
	select {
	case <-closed:
		t.Fatal("close returned with a slot still out")
	case <-time.After(10 * time.Millisecond):
	}
	s.release(1)
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("close did not return once every slot was back")
	}
}
