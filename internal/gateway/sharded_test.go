package gateway

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"htapxplain/internal/exec"
	"htapxplain/internal/htap"
	"htapxplain/internal/plan"
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
	cfg.Durability.CheckpointInterval = time.Hour
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

// TestExplainAnalyzeScatter: a scatter is instrumented like any plan — the
// one Instrument walk, not a profile spliced together after the run. The
// profile's root emits the bare statement's rows, its Gather node has one
// "shard i: ..." child per shard, and with workers to spare the fragments'
// own morsel forks show up under those children.
func TestExplainAnalyzeScatter(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // let each fragment ask for DOP > 1
	const shards = 2
	coord := testCoordinator(t, shards)
	g := NewSharded(coord, Config{Workers: 8, CacheCapacity: 16})
	defer g.Stop()

	const sql = `SELECT l_returnflag, COUNT(*), SUM(l_extendedprice) FROM lineitem WHERE l_quantity < 30 GROUP BY l_returnflag`
	bare := g.Serve(sql)
	resp := g.Serve(`EXPLAIN ANALYZE ` + sql)
	if bare.Err != nil || resp.Err != nil {
		t.Fatalf("serve: %v / %v", bare.Err, resp.Err)
	}
	if resp.Kind != "explain_analyze" || resp.Engine != plan.AP || resp.Cache != CacheMiss {
		t.Errorf("kind %q engine %v cache %v, want explain_analyze on AP, a miss", resp.Kind, resp.Engine, resp.Cache)
	}
	if !sameRows(resp.Rows, bare.Rows) || resp.Profile.Rows != int64(len(bare.Rows)) {
		t.Errorf("EXPLAIN ANALYZE returned %d rows (profile root %d), the bare statement %d",
			len(resp.Rows), resp.Profile.Rows, len(bare.Rows))
	}
	gather := resp.Profile
	for gather.Name != "Gather" {
		if len(gather.Children) != 1 {
			t.Fatalf("no Gather under the final stage:\n%s", resp.Profile)
		}
		gather = gather.Children[0]
	}
	if len(gather.Children) != shards {
		t.Fatalf("Gather has %d children, want one per shard:\n%s", len(gather.Children), resp.Profile)
	}
	var forked int64
	var walk func(n *exec.OpStats)
	walk = func(n *exec.OpStats) {
		forked = max(forked, n.Workers)
		for _, c := range n.Children {
			walk(c)
		}
	}
	for i, frag := range gather.Children {
		if want := fmt.Sprintf("shard %d: Aggregate", i); frag.Name != want {
			t.Errorf("fragment %d is named %q, want %q", i, frag.Name, want)
		}
		walk(frag)
	}
	if forked < 2 || resp.Stats.ParallelWorkers < 2 {
		t.Errorf("no fragment forked morsel workers (max workers %d, ParallelWorkers %d) with 8 slots free:\n%s",
			forked, resp.Stats.ParallelWorkers, resp.Profile)
	}
	if !strings.Contains(resp.Explain, "shard 1: Aggregate") {
		t.Errorf("rendered tree does not show the fragments:\n%s", resp.Explain)
	}
}
