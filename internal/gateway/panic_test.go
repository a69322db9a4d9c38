package gateway

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"htapxplain/internal/colstore"
	"htapxplain/internal/exec"
	"htapxplain/internal/htap"
	"htapxplain/internal/shard"
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
// spawned — a forked morsel worker, a parallel encoded-aggregate worker, a
// scatter fragment — is an error reply for that one request. Nothing but
// the recover at the spawn site stands between such a panic and the end
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
		site    string // the spawn site whose recover must have caught it
	}{
		// root drain of a forkable scan pipeline at DOP 4
		{"forked morsel worker", 1, 4,
			"SELECT l_orderkey, l_extendedprice FROM lineitem WHERE l_quantity < 3", "exec.runForked"},
		// aggregate folded over encoded chunks by 4 workers
		{"parallel encoded-aggregate worker", 1, 4,
			"SELECT SUM(l_quantity) FROM lineitem", "openPushdown"},
		// one serve slot: each fragment runs serially on its own goroutine
		{"scatter fragment", 2, 1,
			"SELECT SUM(l_quantity) FROM lineitem", "(*Scatter).run"},
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
			var pe *exec.PanicError
			if !errors.As(resp.Err, &pe) {
				t.Fatalf("reply error = %v, want an *exec.PanicError", resp.Err)
			}
			if !strings.Contains(string(pe.Stack), tc.site) {
				t.Errorf("panic was not recovered at %s:\n%s", tc.site, pe.Stack)
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
