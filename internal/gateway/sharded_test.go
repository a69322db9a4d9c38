package gateway

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"htapxplain/internal/htap"
	"htapxplain/internal/shard"
)

func testCoordinator(t testing.TB, n int) *shard.Coordinator {
	t.Helper()
	c, err := shard.New(n, htap.DefaultConfig(), shard.Options{})
	if err != nil {
		t.Fatalf("shard.New: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

// durableCoordinator builds a private fleet whose shards each keep a WAL
// under a test directory.
func durableCoordinator(t testing.TB, n int) *shard.Coordinator {
	t.Helper()
	cfg := htap.DefaultConfig()
	cfg.Durability.DisableCheckpointer = true
	c, err := shard.New(n, cfg, shard.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("shard.New (durable): %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestShardedMetricsExported extends the exposition tests to the per-shard
// gauges: the JSON snapshot carries the shards array and the Prometheus
// text carries the shard-labeled series. The storage and durability
// gauges are fleet-wide: wal_appends on a durable fleet is the sum over
// its shards, not shard 0's.
func TestShardedMetricsExported(t *testing.T) {
	coord := durableCoordinator(t, 2)
	g := NewSharded(coord, Config{Workers: 2, CacheCapacity: 16})
	defer g.Stop()
	for k := int64(4000000001); k <= 4000000008; k++ {
		if resp := g.Serve(insertCustomers(k)); resp.Err != nil {
			t.Fatalf("insert %d: %v", k, resp.Err)
		}
	}
	var appends, bytes, resident int64
	for i := 0; i < coord.NumShards(); i++ {
		ds := coord.Shard(i).DurabilityStats()
		if ds.WAL.Appends == 0 {
			t.Fatalf("shard %d logged nothing: the inserts did not spread", i)
		}
		appends += ds.WAL.Appends
		bytes += ds.WAL.AppendedBytes
		resident += coord.Shard(i).Col.MemStats().ResidentBytes
	}
	if m := g.Metrics(); !m.DurabilityOn || m.WALAppends != appends || m.WALBytes != bytes ||
		m.ColstoreResidentBytes != resident || m.WALDurableLSN != m.CommitLSN {
		t.Errorf("fleet gauges: wal_appends %d (shards sum %d), wal_appended_bytes %d (%d), colstore_resident_bytes %d (%d), durable LSN %d vs commit LSN %d",
			m.WALAppends, appends, m.WALBytes, bytes, m.ColstoreResidentBytes, resident, m.WALDurableLSN, m.CommitLSN)
	}
	if resp := g.Serve(`SELECT COUNT(*) FROM orders`); resp.Err != nil {
		t.Fatalf("serve: %v", resp.Err)
	}
	if resp := g.Serve(`SELECT o_totalprice FROM orders WHERE o_orderkey = 1`); resp.Err != nil {
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
	if len(snap.Shards) != 2 {
		t.Fatalf("JSON metrics carry %d shards, want 2", len(snap.Shards))
	}
	if snap.ShardScatter == 0 || snap.ShardScatterFan == 0 {
		t.Errorf("scatter gauges empty over HTTP: %+v", snap)
	}

	res, err = srv.Client().Get(srv.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, series := range []string{
		`htap_shard_queries_total{shard="0"}`,
		`htap_shard_queries_total{shard="1"}`,
		`htap_shard_commit_lsn{shard="0"}`,
		`htap_shard_staleness_lsns{shard="1"}`,
		"htap_shard_scatter_queries_total",
		"htap_shard_scatter_fanout_total",
		"htap_exchange_batches_total",
		"htap_exchange_rows_total",
		"htap_cross_shard_txns_total",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("exposition missing %s", series)
		}
	}
}
