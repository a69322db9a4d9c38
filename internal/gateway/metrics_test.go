package gateway

import (
	"encoding/json"
	"net/http/httptest"
	"testing"

	"htapxplain/internal/plan"
)

// forcePolicy routes every query to a fixed engine — deterministic routing
// for metric assertions.
type forcePolicy struct{ eng plan.Engine }

func (p forcePolicy) Name() string                    { return "force-" + p.eng.String() }
func (p forcePolicy) Route(in RouteInput) plan.Engine { return p.eng }

// TestExecWorkCountersPerRoute: the /metrics exec counters must attribute
// the batch pipeline's physical work (rows scanned, chunks skipped,
// batches produced) to the route that executed it.
func TestExecWorkCountersPerRoute(t *testing.T) {
	sys := testSystem(t)

	apGw := New(sys, Config{Workers: 1, CacheCapacity: 16, Policy: forcePolicy{plan.AP}})
	defer apGw.Stop()
	// a pruned range scan: the AP plan reads column chunks and skips some
	// via zone maps on the primary-key predicate
	if resp := apGw.Serve(`SELECT COUNT(*) FROM lineitem WHERE l_orderkey < 50`); resp.Err != nil {
		t.Fatalf("AP query: %v", resp.Err)
	}
	ap := apGw.Metrics()
	if ap.ExecAP.RowsScanned == 0 {
		t.Error("AP route scanned no rows")
	}
	if ap.ExecAP.BatchesProduced == 0 {
		t.Error("AP route produced no batches")
	}
	if ap.ExecAP.ChunksSkipped == 0 {
		t.Error("AP route skipped no chunks (zone-map pruning not reflected)")
	}
	if ap.ExecTP.RowsScanned != 0 || ap.ExecTP.BatchesProduced != 0 {
		t.Errorf("TP counters moved on an AP-routed gateway: %+v", ap.ExecTP)
	}

	tpGw := New(sys, Config{Workers: 1, CacheCapacity: 16, Policy: forcePolicy{plan.TP}})
	defer tpGw.Stop()
	if resp := tpGw.Serve(`SELECT c_name FROM customer WHERE c_custkey = 7`); resp.Err != nil {
		t.Fatalf("TP query: %v", resp.Err)
	}
	tp := tpGw.Metrics()
	if tp.ExecTP.RowsScanned == 0 || tp.ExecTP.BatchesProduced == 0 {
		t.Errorf("TP exec counters empty: %+v", tp.ExecTP)
	}
	if tp.ExecAP.BatchesProduced != 0 {
		t.Errorf("AP counters moved on a TP-routed gateway: %+v", tp.ExecAP)
	}
}

// TestExecCountersExportedOverHTTP: the counters must ride the existing
// /metrics JSON endpoint.
func TestExecCountersExportedOverHTTP(t *testing.T) {
	sys := testSystem(t)
	g := New(sys, Config{Workers: 1, CacheCapacity: 16})
	defer g.Stop()
	if resp := g.Serve(`SELECT COUNT(*) FROM orders`); resp.Err != nil {
		t.Fatalf("serve: %v", resp.Err)
	}
	srv := httptest.NewServer(NewServeMux(g))
	defer srv.Close()
	res, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(res.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.ExecTP.BatchesProduced+snap.ExecAP.BatchesProduced == 0 {
		t.Errorf("no batches_produced in exported metrics: %+v", snap)
	}
	if snap.ExecTP.RowsScanned+snap.ExecAP.RowsScanned == 0 {
		t.Errorf("no rows_scanned in exported metrics: %+v", snap)
	}
}
