package gateway

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"htapxplain/internal/htap"
)

// durableSystem builds a private durable system over a test directory.
func durableSystem(t *testing.T) *htap.System {
	t.Helper()
	cfg := htap.DefaultConfig()
	cfg.Durability = htap.DurabilityConfig{Dir: t.TempDir(), CheckpointInterval: time.Hour}
	sys, err := htap.New(cfg)
	if err != nil {
		t.Fatalf("htap.New (durable): %v", err)
	}
	t.Cleanup(sys.Close)
	return sys
}

// TestDurabilityGaugesExported: with a data directory configured, the
// wal_*/checkpoint_* gauges must reflect served DML on /metrics; without
// one they stay zero with durability_enabled=false.
func TestDurabilityGaugesExported(t *testing.T) {
	sys := durableSystem(t)
	g := New(sys, Config{Workers: 2, CacheCapacity: 64})
	defer g.Stop()

	for i := 0; i < 5; i++ {
		resp := g.Serve(`INSERT INTO nation (n_nationkey, n_name, n_regionkey, n_comment) VALUES (90, 'walland', 0, 'durable')`)
		if resp.Err != nil {
			t.Fatalf("insert %d: %v", i, resp.Err)
		}
	}
	snap := g.Metrics()
	if !snap.DurabilityOn {
		t.Fatal("durability_enabled = false on a durable system")
	}
	if snap.WALAppends < 5 {
		t.Fatalf("wal_appends = %d, want >= 5", snap.WALAppends)
	}
	if snap.WALSyncs == 0 || snap.WALBytes == 0 {
		t.Fatalf("wal counters empty: %+v", snap)
	}
	if snap.WALDurableLSN != snap.CommitLSN {
		t.Fatalf("wal_durable_lsn %d lags commit_lsn %d after acknowledged commits",
			snap.WALDurableLSN, snap.CommitLSN)
	}
	if snap.Checkpoints == 0 {
		t.Fatal("checkpoint_count = 0, want the boot checkpoint")
	}

	// the JSON surface on /metrics carries the gauges by name
	srv := httptest.NewServer(NewServeMux(g))
	defer srv.Close()
	res, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(res.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"durability_enabled", "wal_appends", "wal_syncs",
		"wal_durable_lsn", "wal_max_group_commit", "checkpoint_count", "checkpoint_last_lsn"} {
		if _, ok := m[key]; !ok {
			t.Errorf("/metrics missing %q", key)
		}
	}
	if on, _ := m["durability_enabled"].(bool); !on {
		t.Error("/metrics durability_enabled != true")
	}
}

func TestDurabilityGaugesZeroWhenVolatile(t *testing.T) {
	sys := writeSystem(t)
	g := New(sys, Config{Workers: 1, CacheCapacity: 16})
	defer g.Stop()
	snap := g.Metrics()
	if snap.DurabilityOn || snap.WALAppends != 0 || snap.Checkpoints != 0 {
		t.Fatalf("volatile system reports durability gauges: %+v", snap)
	}
}
