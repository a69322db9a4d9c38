package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"htapxplain/internal/htap"
	"htapxplain/internal/obs"
	"htapxplain/internal/plan"
	"htapxplain/internal/shard"
	"htapxplain/internal/value"
	"htapxplain/internal/workload"
)

var (
	sysOnce sync.Once
	sysVal  *htap.System
	sysErr  error
)

// testSystem builds the HTAP system once for the whole package; it is
// read-only after construction, so gateways can share it.
func testSystem(t testing.TB) *htap.System {
	t.Helper()
	sysOnce.Do(func() { sysVal, sysErr = htap.New(htap.DefaultConfig()) })
	if sysErr != nil {
		t.Fatalf("htap.New: %v", sysErr)
	}
	return sysVal
}

// sameRow reports whether two rows are equal, floats to a relative 1e-9:
// a scatter's partial aggregates, and a parallel fold's workers, add in
// another order than a serial aggregation.
func sameRow(a, b value.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		w := b[i]
		if v.K == value.KindFloat && w.K == value.KindFloat {
			if math.Abs(v.Float()-w.Float()) > 1e-9*math.Max(math.Abs(v.Float()), math.Abs(w.Float())) {
				return false
			}
		} else if v.Key() != w.Key() {
			return false
		}
	}
	return true
}

// sameRows reports whether a and b hold the same rows in any order.
func sameRows(a, b []value.Row) bool {
	if len(a) != len(b) {
		return false
	}
	byValue := func(x, y value.Row) int {
		for i := 0; i < min(len(x), len(y)); i++ {
			if c := x[i].Compare(y[i]); c != 0 {
				return c
			}
		}
		return len(x) - len(y)
	}
	a, b = slices.Clone(a), slices.Clone(b)
	slices.SortFunc(a, byValue)
	slices.SortFunc(b, byValue)
	for i := range a {
		if !sameRow(a[i], b[i]) {
			return false
		}
	}
	return true
}

// refRows executes sql directly on both engines and returns the rows the
// given engine produced — the reference the gateway must match.
func refRows(t testing.TB, sys *htap.System, sql string, eng plan.Engine) []value.Row {
	t.Helper()
	res, err := sys.Run(sql)
	if err != nil {
		t.Fatalf("reference Run(%q): %v", sql, err)
	}
	if eng == plan.TP {
		return res.TPRows
	}
	return res.APRows
}

// TestGatewayCacheTiers drives one query template through a miss and two
// hits — the same statement, then a sibling literal bound into the same
// plan — and checks each returns engine-correct rows. (A template hit
// needs another target: see TestPlanRunsOnItsTarget.)
func TestGatewayCacheTiers(t *testing.T) {
	sys := testSystem(t)
	g := New(sys, Config{Workers: 2, CacheCapacity: 64})
	defer g.Stop()

	q1 := `SELECT COUNT(*), SUM(o_totalprice) FROM customer, orders WHERE o_custkey = c_custkey AND c_mktsegment = 'machinery'`
	q2 := `SELECT COUNT(*), SUM(o_totalprice) FROM customer, orders WHERE o_custkey = c_custkey AND c_mktsegment = 'building'`

	cold, err := g.Submit(q1)
	if err != nil || cold.Err != nil {
		t.Fatalf("cold submit: %v / %v", err, cold.Err)
	}
	if cold.Cache != CacheMiss {
		t.Errorf("first submit outcome = %v, want miss", cold.Cache)
	}
	if !sameRows(cold.Rows, refRows(t, sys, q1, cold.Engine)) {
		t.Errorf("cold rows diverge from direct %v execution", cold.Engine)
	}

	warm, err := g.Submit(q1)
	if err != nil || warm.Err != nil {
		t.Fatalf("warm submit: %v / %v", err, warm.Err)
	}
	if warm.Cache != CacheHit {
		t.Errorf("repeat submit outcome = %v, want hit", warm.Cache)
	}
	if warm.Engine != cold.Engine {
		t.Errorf("warm route %v != cold route %v", warm.Engine, cold.Engine)
	}
	if !sameRows(warm.Rows, cold.Rows) {
		t.Error("warm rows diverge from cold rows for the identical query")
	}

	// Same template, different literal: the cached plan executes with the
	// new literal bound — answering q1 would be a wrong answer.
	sibling, err := g.Submit(q2)
	if err != nil || sibling.Err != nil {
		t.Fatalf("sibling submit: %v / %v", err, sibling.Err)
	}
	if sibling.Cache != CacheHit {
		t.Errorf("sibling-literal outcome = %v, want hit", sibling.Cache)
	}
	if !sameRows(sibling.Rows, refRows(t, sys, q2, sibling.Engine)) || sameRows(sibling.Rows, cold.Rows) {
		t.Errorf("sibling rows diverge from direct %v execution of the new literals", sibling.Engine)
	}

	snap := g.Metrics()
	if snap.CacheHits != 2 || snap.CacheTemplateHits != 0 || snap.CacheMisses != 1 {
		t.Errorf("cache counters = %d/%d/%d hit/tmpl/miss, want 2/0/1",
			snap.CacheHits, snap.CacheTemplateHits, snap.CacheMisses)
	}
	if g.CacheLen() != 1 {
		t.Errorf("CacheLen = %d, want 1 (one template)", g.CacheLen())
	}
}

// TestGatewayConcurrentServing keeps ≥ 64 callers in flight over 8
// ledger slots, on a single system and on a 4-shard fleet, and checks
// every one is served the reference's rows. The pool repeats each template
// with other literals, so callers bind one plan concurrently and race to
// plan a template on a new shard. Run with -race.
func TestGatewayConcurrentServing(t *testing.T) {
	// three literal vectors of each template, plus pinned point reads
	pool := workload.NewGenerator(7).Batch(30)
	for k := 1; k <= 16; k++ {
		pool = append(pool, workload.Query{Template: "pinned",
			SQL: fmt.Sprintf(`SELECT c_custkey, c_name FROM customer WHERE c_custkey = %d`, k)})
	}
	want := make([][]value.Row, len(pool))
	for i, q := range pool {
		want[i] = refRows(t, testSystem(t), q.SQL, plan.AP)
	}
	for _, tc := range []struct {
		name  string
		coord *shard.Coordinator
	}{{"single system", shard.Wrap(testSystem(t))}, {"4-shard fleet", testCoordinator(t, 4)}} {
		t.Run(tc.name, func(t *testing.T) {
			g := NewSharded(tc.coord, Config{Workers: 8, QueueDepth: 256, CacheCapacity: 128})
			defer g.Stop()

			const clients, perClient = 64, 4
			var wg sync.WaitGroup
			errs := make(chan error, clients*perClient)
			wg.Add(clients)
			for c := 0; c < clients; c++ {
				c := c
				go func() {
					defer wg.Done()
					for i := 0; i < perClient; i++ {
						k := (c*perClient + i*7) % len(pool)
						q := pool[k]
						resp, err := g.Submit(q.SQL)
						switch {
						case err != nil:
							errs <- fmt.Errorf("submit [%s]: %w", q.Template, err)
						case resp.Err != nil:
							errs <- fmt.Errorf("serve [%s]: %w", q.Template, resp.Err)
						case resp.Engine != plan.TP && resp.Engine != plan.AP:
							errs <- fmt.Errorf("[%s] bogus engine %v", q.Template, resp.Engine)
						case !sameRows(resp.Rows, want[k]):
							errs <- fmt.Errorf("[%s] %v: rows diverge from the reference\n%s", q.Template, resp.Cache, q.SQL)
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}

			snap := g.Metrics()
			if want := int64(clients * perClient); snap.Total != want {
				t.Errorf("total = %d, want %d", snap.Total, want)
			}
			if snap.Errors != 0 || snap.Shed != 0 {
				t.Errorf("errors=%d shed=%d, want 0/0 (queue sized above load)", snap.Errors, snap.Shed)
			}
			if got := snap.CacheHits + snap.CacheTemplateHits + snap.CacheMisses; got != snap.Total {
				t.Errorf("cache outcomes %d != total %d", got, snap.Total)
			}
			// 11 templates served 256 times: the cache must absorb most
			if snap.CacheHitRate < 0.5 {
				t.Errorf("cache hit rate %.2f, want ≥ 0.5 on an 11-template pool", snap.CacheHitRate)
			}
		})
	}
}

// TestGatewayLoadShedding saturates a deliberately tiny gateway and
// checks admission control sheds instead of queueing without bound. To be
// scheduler-independent (this must pass on a single-CPU runner), the lone
// slot is parked inside a serve via the test hook; the flood then races
// only for the one place among the waiters, so the outcome is exact: one
// query waits, every other one sheds.
func TestGatewayLoadShedding(t *testing.T) {
	sys := testSystem(t)
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	g := New(sys, Config{
		Workers: 1, QueueDepth: 1, CacheCapacity: 16,
		testServeStart: func() {
			select {
			case started <- struct{}{}:
			default:
			}
			<-release
		},
	})
	defer g.Stop()

	sql := `SELECT COUNT(*) FROM orders WHERE o_orderstatus = 'p'`
	plugDone := make(chan error, 1)
	go func() {
		_, err := g.Submit(sql)
		plugDone <- err
	}()
	<-started // the slot's holder is now parked inside Serve; nobody waits

	const clients = 63
	var wg sync.WaitGroup
	var served, shed int
	var mu sync.Mutex
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func() {
			defer wg.Done()
			resp, err := g.Submit(sql)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == ErrOverloaded:
				shed++
			case err != nil:
				t.Errorf("unexpected submit error: %v", err)
			case resp.Err != nil:
				t.Errorf("unexpected serve error: %v", resp.Err)
			default:
				served++
			}
		}()
	}
	// Wait until every flood submit has been decided: shed goroutines
	// have counted themselves, and the one winner waits for the slot.
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		decided := shed
		mu.Unlock()
		if decided+g.slots.waiting() >= clients {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("flood submits never resolved")
		}
		runtime.Gosched()
	}
	close(release) // unpark the plug; its release admits the winner
	wg.Wait()
	if err := <-plugDone; err != nil {
		t.Fatalf("plug query: %v", err)
	}

	if served != 1 || shed != clients-1 {
		t.Errorf("served %d / shed %d, want exactly 1 / %d", served, shed, clients-1)
	}
	if got := g.Metrics().Shed; got != int64(shed) {
		t.Errorf("metrics shed = %d, want %d", got, shed)
	}
}

// TestGatewaySortDoesNotCorruptHeap is a regression test: a bare ORDER BY
// served on the TP engine used to sort the row store's storage-aliased
// scan slice in place, permanently reordering the heap under every
// positional index — so a later point lookup fetched the wrong rows.
func TestGatewaySortDoesNotCorruptHeap(t *testing.T) {
	sys := testSystem(t)
	// Rule routing sends a single-table non-aggregate query to TP, where
	// the plan is a SortOp directly over the full table scan.
	g := New(sys, Config{Workers: 2, CacheCapacity: 16, Policy: RulePolicy{}})
	defer g.Stop()

	point := `SELECT c_custkey, c_name FROM customer WHERE c_custkey = 7`
	before, err := g.Submit(point)
	if err != nil || before.Err != nil {
		t.Fatalf("point query: %v / %v", err, before.Err)
	}
	sortQ := `SELECT c_custkey, c_name FROM customer ORDER BY c_acctbal`
	if resp, err := g.Submit(sortQ); err != nil || resp.Err != nil {
		t.Fatalf("sort query: %v / %v", err, resp.Err)
	}
	after, err := g.Submit(point)
	if err != nil || after.Err != nil {
		t.Fatalf("point query after sort: %v / %v", err, after.Err)
	}
	for _, r := range after.Rows {
		if r[0].I != 7 {
			t.Fatalf("index lookup returned c_custkey=%d after a TP sort reordered the heap", r[0].I)
		}
	}
	if !sameRows(before.Rows, after.Rows) {
		t.Error("point-query result changed after serving an ORDER BY on TP")
	}
}

// TestGatewayStopUnblocksSubmitters: Stop with one serve parked on the
// only slot and one caller waiting for it. The waiter gets ErrStopped
// promptly instead of hanging, Stop returns only once the parked serve has
// given its slot back, and a later Submit gets ErrStopped.
func TestGatewayStopUnblocksSubmitters(t *testing.T) {
	sys := testSystem(t)
	started := make(chan struct{})
	release := make(chan struct{})
	g := New(sys, Config{Workers: 1, QueueDepth: 4, testServeStart: func() {
		close(started)
		<-release
	}})
	sql := `SELECT COUNT(*) FROM orders`
	parked := make(chan error, 1)
	go func() {
		resp, err := g.Submit(sql)
		if err == nil {
			err = resp.Err
		}
		parked <- err
	}()
	<-started
	waiter := make(chan error, 1)
	go func() {
		_, err := g.Submit(sql)
		waiter <- err
	}()
	for g.slots.waiting() < 1 {
		runtime.Gosched()
	}
	stopped := make(chan struct{})
	go func() {
		g.Stop()
		close(stopped)
	}()
	select {
	case err := <-waiter:
		if err != ErrStopped {
			t.Errorf("waiting Submit = %v, want ErrStopped", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Stop did not unblock the waiting Submit")
	}
	select {
	case <-stopped:
		t.Fatal("Stop returned while a serve still held its slot")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-parked; err != nil {
		t.Errorf("the admitted serve did not finish across Stop: %v", err)
	}
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop did not return after the last slot came back")
	}
	if _, err := g.Submit(sql); err != ErrStopped {
		t.Errorf("Submit after Stop = %v, want ErrStopped", err)
	}
	g.Stop() // idempotent
}

// TestWaitersAdmittedInArrivalOrder: with the single slot parked, callers
// that arrive one after another are admitted in that order once it frees,
// and each reports the time it waited — in Response.QueueWait and, when
// traced, as a queue_wait span.
func TestWaitersAdmittedInArrivalOrder(t *testing.T) {
	sys := testSystem(t)
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	tracer := obs.NewTracer(obs.TracerConfig{SampleRate: 1, RingSize: 16})
	g := New(sys, Config{Workers: 1, QueueDepth: 8, Tracer: tracer, testServeStart: func() {
		select {
		case started <- struct{}{}:
			<-release // the plug parks; the waiters run straight through
		default:
		}
	}})
	defer g.Stop()

	const park = 30 * time.Millisecond
	const waiters = 6
	var wg sync.WaitGroup
	sqlFor := func(key int) string {
		return fmt.Sprintf(`SELECT c_name FROM customer WHERE c_custkey = %d`, key)
	}
	submit := func(key int) {
		defer wg.Done()
		resp, err := g.Submit(sqlFor(key))
		if err != nil || resp.Err != nil {
			t.Errorf("submit %d: %v / %v", key, err, resp.Err)
			return
		}
		if key > 0 && resp.QueueWait < park {
			t.Errorf("waiter %d reports QueueWait %v, parked %v", key, resp.QueueWait, park)
		}
	}
	wg.Add(1 + waiters)
	go submit(0)
	<-started
	for i := 1; i <= waiters; i++ {
		go submit(i)
		for g.slots.waiting() < i { // i is in line before i+1 arrives
			runtime.Gosched()
		}
	}
	time.Sleep(park)
	close(release)
	wg.Wait()
	// a trace opens and closes while its serve holds the one slot, so the
	// ring (newest first) is the admission order
	traces := tracer.Traces()
	if len(traces) != 1+waiters {
		t.Fatalf("%d traces, want %d", len(traces), 1+waiters)
	}
	var spans int
	for i, tr := range traces {
		if key := waiters - i; tr.SQL != sqlFor(key) {
			t.Errorf("admission %d served %q, want arrival order (key %d)", key, tr.SQL, key)
		}
		for _, sp := range tr.Spans {
			if sp.Name == "queue_wait" && sp.DurUS >= park.Microseconds() {
				spans++
			}
		}
	}
	if spans != waiters {
		t.Errorf("%d traces carry a queue_wait span of at least %v, want %d", spans, park, waiters)
	}
}

// TestPanicCostsOneRequest: a panic outside the part of a serve that
// task.Do recovers (TestServePanicIsAnErrorReply) still costs only that
// request — net/http recovers it, the slot and the in_flight count come
// back through their defers, and the next request on a one-slot gateway
// is served.
func TestPanicCostsOneRequest(t *testing.T) {
	sys := testSystem(t)
	var once sync.Once
	g := New(sys, Config{Workers: 1, QueueDepth: 1, testServeStart: func() {
		once.Do(func() { panic(http.ErrAbortHandler) }) // the panic net/http does not log
	}})
	defer g.Stop()
	srv := httptest.NewServer(NewServeMux(g))
	defer srv.Close()

	post := func() (*http.Response, error) {
		return http.Post(srv.URL+"/query", "application/json", strings.NewReader(`{"sql": "SELECT COUNT(*) FROM region"}`))
	}
	if resp, err := post(); err == nil {
		resp.Body.Close()
		t.Fatalf("the panicking request got status %d, want a dropped connection", resp.StatusCode)
	}
	resp, err := post()
	if err != nil {
		t.Fatalf("request after the panic: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("request after the panic: status %d, want 200", resp.StatusCode)
	}
	if m := g.Metrics(); m.InFlight != 0 || m.Total != 1 {
		t.Errorf("in_flight %d, queries_total %d after one panic and one serve, want 0 and 1", m.InFlight, m.Total)
	}
	if got := g.slots.tryAcquire(1); got != 1 {
		t.Errorf("the slot did not come back: tryAcquire(1) = %d", got)
	}
	g.slots.release(1)
}

// TestIdleGatewayStartsNoGoroutines: there is no pool — New and Stop on a
// gateway nobody calls start nothing.
func TestIdleGatewayStartsNoGoroutines(t *testing.T) {
	sys := testSystem(t)
	before := runtime.NumGoroutine()
	g := New(sys, Config{Workers: 8, QueueDepth: 64})
	if during := runtime.NumGoroutine(); during != before {
		t.Errorf("New started %d goroutines", during-before)
	}
	g.Stop()
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("%d goroutines before New, %d after Stop", before, after)
	}
}

// TestGatewayBadSQL checks parse failures surface as per-query errors,
// not worker crashes.
func TestGatewayBadSQL(t *testing.T) {
	sys := testSystem(t)
	g := New(sys, Config{Workers: 1})
	defer g.Stop()

	resp, err := g.Submit(`SELECT FROM WHERE`)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if resp.Err == nil {
		t.Fatal("want a serve error for malformed SQL")
	}
	if got := g.Metrics().Errors; got != 1 {
		t.Errorf("error counter = %d, want 1", got)
	}
}

// TestServeMux exercises the HTTP surface end to end.
func TestServeMux(t *testing.T) {
	sys := testSystem(t)
	g := New(sys, Config{Workers: 2, CacheCapacity: 32})
	defer g.Stop()
	srv := httptest.NewServer(NewServeMux(g))
	defer srv.Close()

	body, _ := json.Marshal(QueryRequest{SQL: `SELECT c_custkey, c_name FROM customer ORDER BY c_custkey LIMIT 3`})
	resp, err := http.Post(srv.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /query status = %d", resp.StatusCode)
	}
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if qr.Error != "" || qr.RowCount != 3 || len(qr.Rows) != 3 {
		t.Errorf("query response = %+v, want 3 rows and no error", qr)
	}
	if qr.Engine != "TP" && qr.Engine != "AP" {
		t.Errorf("engine = %q, want TP or AP", qr.Engine)
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(mresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Total != 1 {
		t.Errorf("metrics total = %d, want 1", snap.Total)
	}

	bad, err := http.Post(srv.URL+"/query", "application/json", bytes.NewReader([]byte(`{}`)))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("empty body status = %d, want 400", bad.StatusCode)
	}

	// the profiler is on the served mux, next to /debug/traces
	prof, err := http.Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	prof.Body.Close()
	if prof.StatusCode != http.StatusOK {
		t.Errorf("GET /debug/pprof/cmdline status = %d, want 200", prof.StatusCode)
	}
}

// waiting reads the ledger's count of callers blocked in acquire.
func (s *workerSem) waiting() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.waiters
}

// TestAggregateDistinctIsAnError: the served path refuses DISTINCT inside
// an aggregate instead of folding every row — this statement once
// answered 3000 (the order count) where the right answer is 3.
func TestAggregateDistinctIsAnError(t *testing.T) {
	g := New(testSystem(t), Config{Workers: 1, CacheCapacity: 16})
	defer g.Stop()
	for i := 0; i < 2; i++ { // a refused statement leaves no template behind
		resp := g.Serve(`SELECT COUNT(DISTINCT o_orderstatus) FROM orders`)
		if resp.Err == nil || !strings.Contains(resp.Err.Error(), "DISTINCT") || resp.Rows != nil {
			t.Fatalf("serve %d: rows %v, err %v; want a DISTINCT error and no rows", i, resp.Rows, resp.Err)
		}
	}
}
