package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"htapxplain/internal/colstore"
	"htapxplain/internal/htap"
	"htapxplain/internal/obs"
	"htapxplain/internal/shard"
	"htapxplain/internal/task"
)

// tearChunk is the fault: it overwrites one published base chunk of
// table.column with a frame-of-reference chunk that claims its rows and
// holds none of them, so whichever goroutine decodes or folds that chunk
// indexes past the packed words and panics — a memory-corruption stand-in
// for "a bug in an operator".
func tearChunk(t *testing.T, sys *htap.System, table, column string) {
	t.Helper()
	ct, ok := sys.Col.Table(table)
	if !ok {
		t.Fatalf("no column table %q", table)
	}
	ch := ct.ColumnByName(column).Chunk(ct.NumChunks() / 2)
	*ch = colstore.EncodedChunk{Enc: colstore.EncFoR, N: ch.N, Width: 8}
}

// TestWorkerPanicCostsOneRequest: a panic on a goroutine the query itself
// spawned — a forked morsel worker, a worker folding an aggregate over its
// scan's encoded chunks, a scatter fragment — is an error reply for that one request. Nothing but
// task.Group's recover stands between such a panic and the end
// of the process (and of this test binary); the request's serve slot, its
// DOP extras and its in_flight count come back through the same defers a
// failed query uses, and the next query is served.
func TestWorkerPanicCostsOneRequest(t *testing.T) {
	// the planner never asks for more workers than there are Ps
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cases := []struct {
		name    string
		shards  int
		workers int
		sql     string
		site    string // the worker function the recovered stack must name
	}{
		// root drain of a forkable scan pipeline at DOP 4
		{"forked morsel worker", 1, 4,
			"SELECT l_orderkey, l_extendedprice FROM lineitem WHERE l_quantity < 3", "runForked.func"},
		// an aggregate folding its scan's encoded chunks as stored on 4
		// workers: the torn chunk panics in the fold's kernel
		{"parallel encoded-aggregate worker", 1, 4,
			"SELECT SUM(l_quantity) FROM lineitem", "aggChunk"},
		// one serve slot: each fragment runs serially on its own goroutine
		{"scatter fragment", 2, 1,
			"SELECT SUM(l_quantity) FROM lineitem", "(*Gather).Open"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			coord, err := shard.New(tc.shards, htap.DefaultConfig(), shard.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			g := NewSharded(coord, Config{Workers: tc.workers, QueueDepth: 4, CacheCapacity: 16})
			defer g.Stop()

			healthy, err := g.Submit(tc.sql)
			if err != nil || healthy.Err != nil {
				t.Fatalf("healthy run: %v / %v", err, healthy.Err)
			}
			if tc.shards == 1 && healthy.Stats.ParallelWorkers != int64(tc.workers) {
				t.Fatalf("healthy run used %d parallel workers, want %d (the panic must land on a forked one)",
					healthy.Stats.ParallelWorkers, tc.workers)
			}

			tearChunk(t, coord.Shard(tc.shards-1), "lineitem", "l_quantity")
			resp, err := g.Submit(tc.sql)
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			var pe *task.PanicError
			if !errors.As(resp.Err, &pe) {
				t.Fatalf("reply error = %v, want a *task.PanicError", resp.Err)
			}
			// it panicked in that site's worker, on a goroutine the Group started
			if !strings.Contains(string(pe.Stack), tc.site) || !strings.Contains(string(pe.Stack), "task.(*Group).Go") {
				t.Errorf("panic was not recovered on a Group goroutine running %s:\n%s", tc.site, pe.Stack)
			}

			m := g.Metrics()
			if m.InFlight != 0 || m.Errors != 1 {
				t.Errorf("in_flight %d, errors %d after the panic, want 0 and 1", m.InFlight, m.Errors)
			}
			g.slots.mu.Lock()
			free := g.slots.free
			g.slots.mu.Unlock()
			if free != tc.workers {
				t.Errorf("worker ledger holds %d free slots, want %d", free, tc.workers)
			}
			// the process, the gateway and the untouched tables still serve
			if next, err := g.Submit("SELECT COUNT(*) FROM orders"); err != nil || next.Err != nil || len(next.Rows) != 1 {
				t.Fatalf("query after the panic: %v / %+v", err, next)
			}
		})
	}
}

// TestServePanicIsAnErrorReply: a panic on the un-forked serving path —
// one shard, one ledger slot, so the aggregate folds the torn chunk on the
// connection's own goroutine — is that request's 500 with the error in the
// body, not a dropped connection: Response.Err is the *task.PanicError,
// the sampled trace carries its stack, panics_total counts it, reply and
// trace name the kind a normal reply would (explain_analyze for an
// EXPLAIN ANALYZE), and the slot and in_flight come back for the next
// request.
func TestServePanicIsAnErrorReply(t *testing.T) {
	sys, err := htap.New(htap.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	tracer := obs.NewTracer(obs.TracerConfig{SampleRate: 1})
	g := New(sys, Config{Workers: 1, QueueDepth: 1, CacheCapacity: 16, Tracer: tracer})
	defer g.Stop()
	srv := httptest.NewServer(NewServeMux(g))
	defer srv.Close()
	post := func(sql string) (int, QueryResponse) {
		t.Helper()
		hr, err := http.Post(srv.URL+"/query", "application/json", strings.NewReader(fmt.Sprintf(`{"sql": %q}`, sql)))
		if err != nil {
			t.Fatalf("POST /query %q: %v (a panic must be a reply, not a dropped connection)", sql, err)
		}
		defer hr.Body.Close()
		var qr QueryResponse
		if err := json.NewDecoder(hr.Body).Decode(&qr); err != nil {
			t.Fatalf("decode reply to %q: %v", sql, err)
		}
		return hr.StatusCode, qr
	}

	const sql = "SELECT SUM(l_quantity) FROM lineitem"
	if code, qr := post(sql); code != http.StatusOK || qr.Error != "" {
		t.Fatalf("healthy run: status %d, error %q", code, qr.Error)
	}
	before := g.Metrics().Panics
	tearChunk(t, sys, "lineitem", "l_quantity")
	code, qr := post(sql)
	if code != http.StatusInternalServerError || !strings.Contains(qr.Error, "panic: ") {
		t.Fatalf("panicking serve answered %d with error %q, want 500 naming the panic", code, qr.Error)
	}
	resp, err := g.Submit(sql)
	var pe *task.PanicError
	if err != nil || !errors.As(resp.Err, &pe) {
		t.Fatalf("Submit = %v / %v, want a reply whose Err is a *task.PanicError", err, resp.Err)
	}
	if strings.Contains(string(pe.Stack), "task.(*Group).Go") {
		t.Errorf("the panic was meant for the serving goroutine, and landed on a forked one:\n%s", pe.Stack)
	}
	m := g.Metrics()
	if m.Panics != before+2 || m.InFlight != 0 || m.Errors != 2 {
		t.Errorf("panics_total +%d, in_flight %d, errors %d after two panicking serves, want +2, 0 and 2",
			m.Panics-before, m.InFlight, m.Errors)
	}
	if tr := tracer.Traces()[0]; !strings.Contains(tr.Error, "panic: ") || !strings.Contains(tr.Stack, "(*Gateway).execute") {
		t.Errorf("newest trace: error %q, stack %q, want the panic and the stack it unwound", tr.Error, tr.Stack)
	}
	// the panic reply names the kind the request's normal reply would
	if code, qr := post("EXPLAIN ANALYZE " + sql); code != http.StatusInternalServerError ||
		!strings.Contains(qr.Error, "panic: ") || qr.Kind != "explain_analyze" {
		t.Errorf("panicking EXPLAIN ANALYZE answered %d, kind %q, error %q, want 500 of kind explain_analyze naming the panic",
			code, qr.Kind, qr.Error)
	}
	if tr := tracer.Traces()[0]; tr.Kind != "explain_analyze" {
		t.Errorf("the panicking EXPLAIN ANALYZE's trace has kind %q, want explain_analyze", tr.Kind)
	}
	if code, qr := post("SELECT COUNT(*) FROM orders"); code != http.StatusOK || qr.Error != "" || qr.RowCount != 1 {
		t.Errorf("request after the panics: status %d, %+v", code, qr)
	}
	if got := g.slots.tryAcquire(1); got != 1 {
		t.Errorf("the slot did not come back: tryAcquire(1) = %d", got)
	}
	g.slots.release(1)
}

// TestBackgroundPanicCostsOnePass: a panic on a goroutine no query owns —
// here the delta merger, which meets the torn chunk when it goes to
// compact a write to that table — costs that merge pass and is counted in
// panics_total; the durable server around it keeps committing writes and
// serving reads, and closes cleanly. (The checkpointer, the group
// committer, the applier and the drift monitor are proven the same way
// next to their owners: recovery, wal, htap and explainsvc.)
func TestBackgroundPanicCostsOnePass(t *testing.T) {
	cfg := htap.DefaultConfig()
	cfg.Durability = htap.DurabilityConfig{Dir: t.TempDir()}
	sys, err := htap.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := New(sys, Config{Workers: 2, CacheCapacity: 16})
	defer g.Stop()
	before := g.Metrics().Panics

	tearChunk(t, sys, "nation", "n_regionkey")
	insert := `INSERT INTO nation (n_nationkey, n_name, n_regionkey, n_comment) VALUES (%d, 'merged', 0, 'row')`
	if resp, err := g.Submit(fmt.Sprintf(insert, 93)); err != nil || resp.Err != nil {
		t.Fatalf("insert: %v / %+v", err, resp)
	}
	deadline := time.Now().Add(10 * time.Second)
	for g.Metrics().Panics < before+2 { // the merger came back for a second pass
		if time.Now().After(deadline) {
			t.Fatal("the background merger never reached the torn chunk twice")
		}
		time.Sleep(time.Millisecond)
	}
	if !strings.Contains(g.PromText(), "\nhtap_panics_total ") {
		t.Error("the Prometheus exposition has no htap_panics_total sample")
	}
	if resp, err := g.Submit(fmt.Sprintf(insert, 94)); err != nil || resp.Err != nil {
		t.Errorf("write after the panics: %v / %+v", err, resp)
	}
	if resp, err := g.Submit("SELECT COUNT(*) FROM orders"); err != nil || resp.Err != nil || len(resp.Rows) != 1 {
		t.Errorf("read after the panics: %v / %+v", err, resp)
	}
	if m := g.Metrics(); m.InFlight != 0 || m.Errors != 0 {
		t.Errorf("in_flight %d, errors %d, want 0 and 0: no request paid for the merger's panics", m.InFlight, m.Errors)
	}
	sys.Close() // stops the panicking merger, writes the final checkpoint
	if err := sys.ReplicationErr(); err != nil {
		t.Errorf("replication halted: %v", err)
	}
}
