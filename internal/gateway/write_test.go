package gateway

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"htapxplain/internal/htap"
	"htapxplain/internal/sqlparser"
	"htapxplain/internal/workload"
)

// writeSystem builds a private system: gateways that serve DML must not
// share the package-wide read-only testSystem.
func writeSystem(t *testing.T) *htap.System {
	t.Helper()
	sys, err := htap.New(htap.DefaultConfig())
	if err != nil {
		t.Fatalf("htap.New: %v", err)
	}
	t.Cleanup(sys.Close)
	return sys
}

func TestGatewayServesDML(t *testing.T) {
	sys := writeSystem(t)
	g := New(sys, Config{Workers: 2, CacheCapacity: 64})
	defer g.Stop()

	ins := g.Serve(`INSERT INTO nation (n_nationkey, n_name, n_regionkey, n_comment) VALUES (91, 'oz', 0, 'emerald')`)
	if ins.Err != nil {
		t.Fatalf("insert: %v", ins.Err)
	}
	if ins.Kind != "insert" || ins.RowsAffected != 1 || ins.LSN != 1 {
		t.Fatalf("insert response = kind %q, %d rows, LSN %d; want insert/1/1",
			ins.Kind, ins.RowsAffected, ins.LSN)
	}
	upd := g.Serve(`UPDATE nation SET n_comment = 'ruby' WHERE n_name = 'oz'`)
	if upd.Err != nil || upd.Kind != "update" || upd.RowsAffected != 1 {
		t.Fatalf("update response = %+v (err %v)", upd, upd.Err)
	}
	if err := sys.WaitFresh(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// the write is queryable through the same gateway (dual-engine read)
	sel := g.Serve(`SELECT COUNT(*) FROM nation WHERE n_comment = 'ruby'`)
	if sel.Err != nil {
		t.Fatalf("select: %v", sel.Err)
	}
	if sel.Kind != "select" || len(sel.Rows) != 1 || sel.Rows[0][0].I != 1 {
		t.Fatalf("select after write = kind %q rows %v", sel.Kind, sel.Rows)
	}
	del := g.Serve(`DELETE FROM nation WHERE n_name = 'oz'`)
	if del.Err != nil || del.Kind != "delete" || del.RowsAffected != 1 {
		t.Fatalf("delete response = %+v (err %v)", del, del.Err)
	}

	m := g.Metrics()
	if m.WritesInsert != 1 || m.WritesUpdate != 1 || m.WritesDelete != 1 {
		t.Errorf("write counters = %d/%d/%d, want 1/1/1",
			m.WritesInsert, m.WritesUpdate, m.WritesDelete)
	}
	if m.RowsWritten != 3 {
		t.Errorf("rows written = %d, want 3", m.RowsWritten)
	}
	if m.CommitLSN != 3 {
		t.Errorf("commit LSN gauge = %d, want 3", m.CommitLSN)
	}
	if err := sys.WaitFresh(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	m = g.Metrics()
	if m.StalenessLSNs != 0 || m.Watermark != m.CommitLSN {
		t.Errorf("freshness gauge: watermark %d, commit %d, staleness %d",
			m.Watermark, m.CommitLSN, m.StalenessLSNs)
	}
}

func TestGatewayWriteErrors(t *testing.T) {
	sys := writeSystem(t)
	g := New(sys, Config{Workers: 1})
	defer g.Stop()
	resp := g.Serve(`INSERT INTO nosuch VALUES (1)`)
	if resp.Err == nil || !strings.Contains(resp.Err.Error(), "no such table") {
		t.Errorf("err = %v, want no-such-table", resp.Err)
	}
	if g.Metrics().Errors != 1 {
		t.Errorf("errors = %d, want 1", g.Metrics().Errors)
	}
	if resp := g.Serve(`UPDATE nation SET n_name = 5 WHERE n_nationkey = 0`); resp.Err == nil {
		t.Error("type-mismatched SET succeeded")
	}
}

func TestWriteSurfaceOverHTTP(t *testing.T) {
	sys := writeSystem(t)
	g := New(sys, Config{Workers: 2})
	defer g.Stop()
	srv := httptest.NewServer(NewServeMux(g))
	defer srv.Close()

	body := bytes.NewBufferString(`{"sql": "INSERT INTO nation (n_nationkey, n_name, n_regionkey, n_comment) VALUES (92, 'narnia', 1, 'wardrobe')"}`)
	resp, err := http.Post(srv.URL+"/query", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if qr.Kind != "insert" || qr.RowsAffected != 1 || qr.LSN == 0 || qr.Error != "" {
		t.Fatalf("POST /query DML reply = %+v", qr)
	}
	if err := sys.WaitFresh(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	mResp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mResp.Body.Close()
	var snap map[string]any
	if err := json.NewDecoder(mResp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"writes_insert", "rows_written", "commit_lsn",
		"replication_watermark", "staleness_lsns", "delta_merges"} {
		if _, ok := snap[field]; !ok {
			t.Errorf("/metrics missing freshness/write field %q", field)
		}
	}
	if snap["writes_insert"].(float64) != 1 {
		t.Errorf("writes_insert = %v, want 1", snap["writes_insert"])
	}
	if snap["staleness_lsns"].(float64) != 0 {
		t.Errorf("staleness_lsns = %v, want 0 after WaitFresh", snap["staleness_lsns"])
	}
}

// mixedLoad submits n statements from 4 goroutines, each taking the next
// unclaimed one. Statement i is a write when the running share i*dml
// crosses an integer (so any fraction is met exactly), and a write is a
// BEGIN block when its index crosses txn the same way; the rest cycle
// over 12 generated reads. A statement that loses a first-writer-wins race
// is resubmitted, as a transactional client would. It returns the
// statements served without error, how many of them were writes, and the
// DML statements those writes acknowledged (a committed block
// acknowledges each of its statements, a rolled-back one none).
func mixedLoad(t *testing.T, g *Gateway, n int, dml, txn float64) (served, writes, acked int64) {
	t.Helper()
	reads := workload.NewGenerator(11).Batch(12)
	single, blocks := workload.NewDMLGenerator(11), workload.NewTxnGenerator(11)
	stmts := make([]string, n)
	w := 0
	for i := range stmts {
		if int(float64(i+1)*dml) == int(float64(i)*dml) {
			stmts[i] = reads[i%len(reads)].SQL
			continue
		}
		if int(float64(w+1)*txn) > int(float64(w)*txn) {
			stmts[i] = blocks.Next().SQL
		} else {
			stmts[i] = single.Next().SQL
		}
		w++
	}
	var next, nServed, nWrites, nAcked atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(n); i = next.Add(1) - 1 {
				resp, err := g.Submit(stmts[i])
				for try := 0; err == nil && errors.Is(resp.Err, htap.ErrConflict) && try < 50; try++ {
					resp, err = g.Submit(stmts[i])
				}
				if err == nil {
					err = resp.Err
				}
				if err != nil {
					t.Errorf("statement %d (%s): %v", i, stmts[i], err)
					continue
				}
				nServed.Add(1)
				if resp.Kind != "select" {
					nWrites.Add(1)
				}
				switch resp.Kind {
				case "insert", "update", "delete":
					nAcked.Add(1)
				case "commit":
					if script, err := sqlparser.ParseScript(stmts[i]); err == nil {
						nAcked.Add(int64(len(script.Stmts)))
					}
				}
			}
		}()
	}
	wg.Wait()
	return nServed.Load(), nWrites.Load(), nAcked.Load()
}

// TestMixedLoadLedger: under concurrent mixed traffic every statement is
// served, and each of the gateway's ledgers — writes, transaction
// outcomes, freshness, plan cache, per-route latency — adds up to what the
// clients saw.
func TestMixedLoadLedger(t *testing.T) {
	for _, tc := range []struct {
		name     string
		n        int
		dml, txn float64
	}{
		{"read-only", 96, 0, 0},
		{"25% DML", 80, 0.25, 0},
		{"40% DML, half in blocks", 120, 0.4, 0.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := testSystem(t)
			if tc.dml > 0 {
				sys = writeSystem(t)
			}
			g := New(sys, Config{Workers: 4, QueueDepth: 64, CacheCapacity: 128})
			defer g.Stop()
			served, writes, acked := mixedLoad(t, g, tc.n, tc.dml, tc.txn)
			if served != int64(tc.n) {
				t.Fatalf("served %d of %d statements", served, tc.n)
			}
			if (acked > 0) != (tc.dml > 0) {
				t.Errorf("%d DML statements acknowledged at write fraction %.2f", acked, tc.dml)
			}
			m := g.Metrics()
			if got := m.WritesInsert + m.WritesUpdate + m.WritesDelete; got != acked {
				t.Errorf("writes_insert+update+delete = %d, clients had %d DML statements acknowledged", got, acked)
			}
			if m.TxnBegun != m.TxnCommits+m.TxnAborts+m.TxnConflicts {
				t.Errorf("txn_begun %d != commits %d + aborts %d + conflicts %d after quiesce",
					m.TxnBegun, m.TxnCommits, m.TxnAborts, m.TxnConflicts)
			}
			if tc.txn > 0 && m.TxnCommits == 0 {
				t.Error("no transaction committed")
			}
			if tc.dml == 0 && m.CacheHitRate < 0.5 {
				t.Errorf("cache_hit_rate %.2f over 12 templates, want >= 0.5", m.CacheHitRate)
			}
			// every successful serve lands in exactly one route histogram
			// (a conflicted attempt in none), and the seeded reads use both
			// engines
			tp := g.metrics.latTP.Snapshot().Count
			ap := g.metrics.latAP.Snapshot().Count
			dmlServes := g.metrics.latDML.Snapshot().Count
			if tp+ap+dmlServes != served || m.Total-m.Errors != served {
				t.Errorf("route histograms tp %d + ap %d + dml %d, queries_total-errors %d; clients saw %d serves",
					tp, ap, dmlServes, m.Total-m.Errors, served)
			}
			if dmlServes != writes {
				t.Errorf("dml route has %d samples, clients had %d writes served", dmlServes, writes)
			}
			if tp == 0 || ap == 0 {
				t.Errorf("route histograms tp %d, ap %d: the seeded reads route to both engines", tp, ap)
			}
			if err := sys.WaitFresh(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			if got := g.Metrics().StalenessLSNs; got != 0 {
				t.Errorf("staleness_lsns = %d after WaitFresh", got)
			}
		})
	}
}
