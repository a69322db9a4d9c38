package gateway

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"htapxplain/internal/exec"
	"htapxplain/internal/obs"
	"htapxplain/internal/plan"
)

// TestExplainSelect: bare EXPLAIN renders the routed engine's plan tree
// without executing it.
func TestExplainSelect(t *testing.T) {
	sys := testSystem(t)
	g := New(sys, Config{Workers: 1, CacheCapacity: 16, Policy: forceAP{}})
	defer g.Stop()

	resp := g.Serve(`EXPLAIN SELECT COUNT(*) FROM lineitem WHERE l_quantity > 5`)
	if resp.Err != nil {
		t.Fatalf("serve: %v", resp.Err)
	}
	if resp.Kind != "explain" {
		t.Errorf("kind = %q, want explain", resp.Kind)
	}
	if resp.Engine != plan.AP {
		t.Errorf("engine = %v, want AP", resp.Engine)
	}
	if resp.Explain == "" || !strings.Contains(resp.Explain, "Aggregate") {
		t.Errorf("explain output missing plan tree: %q", resp.Explain)
	}
	if len(resp.Rows) != 0 || resp.Profile != nil {
		t.Errorf("bare EXPLAIN must not execute (rows=%d, profile=%v)", len(resp.Rows), resp.Profile)
	}

	if resp := g.Serve(`EXPLAIN INSERT INTO region (r_regionkey) VALUES (99)`); resp.Err == nil {
		t.Error("EXPLAIN over DML served without error, want rejection")
	}
}

// TestExplainAnalyzeParallelAggregate is the acceptance test for the
// instrumented executor: EXPLAIN ANALYZE on a DOP-4 aggregate over the
// zone-mapped fact table must return a plan tree whose scan leaf reports
// forked workers, dispatched morsels and pruned chunks, and still produce
// the query's rows.
func TestExplainAnalyzeParallelAggregate(t *testing.T) {
	prev := runtime.GOMAXPROCS(4) // let the planner ask for DOP > 1
	defer runtime.GOMAXPROCS(prev)
	sys := testSystem(t)
	g := New(sys, Config{Workers: 4, CacheCapacity: 16, Policy: forceAP{}})
	defer g.Stop()

	// selective range on the ascending l_orderkey: zone maps prune the
	// chunks past the bound while the full chunk count keeps DOP at 4
	sql := `SELECT COUNT(*), SUM(l_extendedprice) FROM lineitem WHERE l_orderkey <= 40`
	resp := g.Serve(`EXPLAIN ANALYZE ` + sql)
	if resp.Err != nil {
		t.Fatalf("serve: %v", resp.Err)
	}
	if resp.Kind != "explain_analyze" {
		t.Errorf("kind = %q, want explain_analyze", resp.Kind)
	}
	if resp.Profile == nil {
		t.Fatal("no per-operator profile on EXPLAIN ANALYZE response")
	}
	if !sameRows(resp.Rows, refRows(t, sys, sql, plan.AP)) {
		t.Error("EXPLAIN ANALYZE rows diverge from direct execution")
	}

	// find the instrumented scan leaf
	var findLeaf func(n *exec.OpStats) *exec.OpStats
	findLeaf = func(n *exec.OpStats) *exec.OpStats {
		if n.Morsels > 0 {
			return n
		}
		for _, c := range n.Children {
			if l := findLeaf(c); l != nil {
				return l
			}
		}
		return nil
	}
	scan := findLeaf(resp.Profile)
	if scan == nil {
		t.Fatalf("no operator reported morsels:\n%s", resp.Profile)
	}
	if !strings.Contains(scan.Name, "Column Scan on lineitem") {
		t.Errorf("morsel-reporting operator is %q, want the lineitem column scan", scan.Name)
	}
	if scan.Workers < 2 {
		t.Errorf("scan workers = %d, want >= 2 (DOP-4 plan with a 4-slot pool)", scan.Workers)
	}
	if scan.ChunksPruned <= 0 {
		t.Errorf("chunks_pruned = %d, want > 0 (selective scan on sorted column)", scan.ChunksPruned)
	}
	if scan.ChunksScanned <= 0 {
		t.Errorf("chunks_scanned = %d, want > 0", scan.ChunksScanned)
	}
	if resp.Profile.Rows != int64(len(resp.Rows)) {
		t.Errorf("root rows = %d, want %d", resp.Profile.Rows, len(resp.Rows))
	}

	for _, want := range []string{"Aggregate", "Column Scan on lineitem", "morsels=", "pruned="} {
		if !strings.Contains(resp.Explain, want) {
			t.Errorf("rendered tree missing %q:\n%s", want, resp.Explain)
		}
	}
}

// TestTracesRoundTrip drives traced queries through the HTTP surface and
// checks /debug/traces returns well-formed span trees: valid nesting and
// non-queue span windows inside the measured serve time.
func TestTracesRoundTrip(t *testing.T) {
	sys := testSystem(t)
	tracer := obs.NewTracer(obs.TracerConfig{SampleRate: 1, RingSize: 16})
	g := New(sys, Config{Workers: 2, CacheCapacity: 16, Tracer: tracer})
	defer g.Stop()
	srv := httptest.NewServer(NewServeMux(g))
	defer srv.Close()

	queries := []string{
		`SELECT COUNT(*) FROM region`,
		`SELECT COUNT(*) FROM region`, // cache hit — no plan span
		`INSERT INTO region (r_regionkey, r_name, r_comment) VALUES (77, 'obs', 'trace')`,
	}
	for _, q := range queries {
		body := strings.NewReader(fmt.Sprintf(`{"sql": %q}`, q))
		hr, err := http.Post(srv.URL+"/query", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		hr.Body.Close()
		if hr.StatusCode != http.StatusOK {
			t.Fatalf("POST /query %q: status %d", q, hr.StatusCode)
		}
	}

	hr, err := http.Get(srv.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var traces []obs.QueryTrace
	if err := json.NewDecoder(hr.Body).Decode(&traces); err != nil {
		t.Fatalf("decode /debug/traces: %v", err)
	}
	if len(traces) != len(queries) {
		t.Fatalf("got %d traces, want %d", len(traces), len(queries))
	}
	// ring serves newest first
	if traces[0].Kind != "insert" {
		t.Errorf("newest trace kind = %q, want insert", traces[0].Kind)
	}

	kinds := map[string]bool{}
	for _, tr := range traces {
		kinds[tr.Kind] = true
		if tr.TotalUS < 0 || len(tr.Spans) == 0 {
			t.Fatalf("trace #%d: total=%d spans=%d", tr.ID, tr.TotalUS, len(tr.Spans))
		}
		var topSum int64
		for i, sp := range tr.Spans {
			if sp.Parent >= i {
				t.Errorf("trace #%d span %d (%s): parent %d not an earlier span", tr.ID, i, sp.Name, sp.Parent)
			}
			if sp.Name == "queue_wait" {
				continue // measured before the trace window opened
			}
			if sp.DurUS < 0 || sp.StartUS < 0 {
				t.Errorf("trace #%d span %s: start=%d dur=%d", tr.ID, sp.Name, sp.StartUS, sp.DurUS)
			}
			if sp.StartUS+sp.DurUS > tr.TotalUS {
				t.Errorf("trace #%d span %s ends at %dus, after the trace total %dus",
					tr.ID, sp.Name, sp.StartUS+sp.DurUS, tr.TotalUS)
			}
			if sp.Parent == -1 {
				topSum += sp.DurUS
			} else if p := tr.Spans[sp.Parent]; sp.StartUS < p.StartUS || sp.StartUS+sp.DurUS > p.StartUS+p.DurUS {
				t.Errorf("trace #%d span %s [%d,%d] outside parent %s [%d,%d]", tr.ID, sp.Name,
					sp.StartUS, sp.StartUS+sp.DurUS, p.Name, p.StartUS, p.StartUS+p.DurUS)
			}
		}
		// top-level spans are sequential serving stages: their durations
		// must sum to at most the measured serve total
		if topSum > tr.TotalUS {
			t.Errorf("trace #%d: top-level spans sum to %dus > total %dus", tr.ID, topSum, tr.TotalUS)
		}
	}
	if !kinds["select"] || !kinds["insert"] {
		t.Errorf("trace kinds = %v, want select and insert", kinds)
	}

	sel := traces[1] // second-newest: the cache-hit select
	names := map[string]bool{}
	for _, sp := range sel.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"queue_wait", "fingerprint", "cache_lookup", "execute"} {
		if !names[want] {
			t.Errorf("select trace missing span %q (has %v)", want, names)
		}
	}
	if sel.Engine == "" || sel.Cache == "" {
		t.Errorf("select trace not annotated: engine=%q cache=%q", sel.Engine, sel.Cache)
	}
}

var (
	promMetricRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelRE  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
	promLineRE   = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)$`)
)

// checkPromExposition validates exposition-format invariants over a
// /metrics?format=prometheus body: parseable sample lines, legal metric
// and label names, and cumulative-bucket monotonicity per histogram
// series.
func checkPromExposition(t *testing.T, body string) {
	t.Helper()
	type bucketSeries struct {
		last   float64
		series string
	}
	lastBucket := map[string]float64{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := promLineRE.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("unparseable exposition line: %q", line)
			continue
		}
		name, labels, val := m[1], m[2], m[3]
		if !promMetricRE.MatchString(name) {
			t.Errorf("bad metric name %q", name)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Errorf("bad sample value %q in %q", val, line)
		}
		le := ""
		var seriesKey strings.Builder
		seriesKey.WriteString(name)
		if labels != "" {
			for _, pair := range strings.Split(labels, ",") {
				k, quoted, ok := strings.Cut(pair, "=")
				if !ok || !promLabelRE.MatchString(k) {
					t.Errorf("bad label %q in %q", pair, line)
					continue
				}
				uq, err := strconv.Unquote(quoted)
				if err != nil {
					t.Errorf("label value not quoted in %q", line)
				}
				if k == "le" {
					le = uq
					continue
				}
				seriesKey.WriteString("|" + pair)
			}
		}
		if strings.HasSuffix(name, "_bucket") && le != "" {
			key := seriesKey.String()
			if prev, seen := lastBucket[key]; seen && v < prev {
				t.Errorf("bucket series %s not monotonic: %g after %g (le=%s)", key, v, prev, le)
			}
			lastBucket[key] = v
		}
	}
	if len(lastBucket) == 0 {
		t.Error("exposition contains no histogram buckets")
	}
}

// TestPrometheusEndpoint serves a mixed workload, then checks
// /metrics?format=prometheus returns a valid exposition body with the
// per-route latency histograms and the observed-accuracy gauge.
func TestPrometheusEndpoint(t *testing.T) {
	sys := testSystem(t)
	tracer := obs.NewTracer(obs.TracerConfig{SampleRate: 1})
	g := New(sys, Config{Workers: 2, CacheCapacity: 16, Tracer: tracer, ObservedEvery: 1})
	defer g.Stop()
	srv := httptest.NewServer(NewServeMux(g))
	defer srv.Close()

	for _, q := range []string{
		`SELECT COUNT(*) FROM region`,
		`SELECT c_name FROM customer WHERE c_custkey = 5`,
		`INSERT INTO region (r_regionkey, r_name, r_comment) VALUES (78, 'obs', 'prom')`,
	} {
		if resp := g.Serve(q); resp.Err != nil {
			t.Fatalf("serve %q: %v", q, resp.Err)
		}
	}

	hr, err := http.Get(srv.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if ct := hr.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Errorf("Content-Type = %q, want %q", ct, obs.PromContentType)
	}
	var sb strings.Builder
	if _, err := fmt.Fprint(&sb, readAll(t, hr)); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	checkPromExposition(t, body)
	for _, want := range []string{
		"htap_queries_total", "htap_query_latency_seconds_bucket",
		`route="tp"`, `route="ap"`, `route="dml"`,
		"router_observed_accuracy", "htap_stage_latency_seconds_bucket",
		"htap_query_latency_quantile_seconds",
		"htap_colstore_resident_bytes", "htap_colstore_raw_bytes",
		"htap_colstore_compression_ratio",
		`htap_colstore_chunks{encoding="raw"}`, `htap_colstore_chunks{encoding="dict"}`,
		`htap_colstore_chunks{encoding="for"}`, `htap_colstore_chunks{encoding="rle"}`,
		"htap_exec_encoded_chunks_total", "htap_exec_decoded_chunks_total",
		"htap_explain_served_total", "htap_explain_kb_hits_total",
		"router_accuracy", "htap_router_retrains_total",
		"htap_kb_entries", "htap_kb_expired_total", `route="explain"`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// the JSON endpoint must keep serving the snapshot
	jr, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(jr.Body).Decode(&snap); err != nil {
		t.Fatalf("JSON /metrics: %v", err)
	}
	if snap.Total < 3 {
		t.Errorf("JSON snapshot total = %d, want >= 3", snap.Total)
	}
	if snap.ColstoreRawBytes <= 0 || snap.ColstoreResidentBytes <= 0 {
		t.Errorf("colstore footprint gauges empty: resident=%d raw=%d",
			snap.ColstoreResidentBytes, snap.ColstoreRawBytes)
	}
	if snap.ColstoreCompression < 1 {
		t.Errorf("colstore_compression_ratio = %g, want >= 1", snap.ColstoreCompression)
	}
	var chunks int64
	for _, n := range snap.ColstoreChunks {
		chunks += n
	}
	if chunks == 0 {
		t.Error("colstore_chunks_by_encoding sums to zero")
	}
}

func readAll(t *testing.T, r *http.Response) string {
	t.Helper()
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := r.Body.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			return b.String()
		}
	}
}

// TestObservedSamplesWarmHits: the observed loop samples served SELECTs of
// every cache tier, so a warm gateway — every statement a hit — keeps
// feeding router_observed_accuracy, one sample per serve at
// ObservedEvery 1.
func TestObservedSamplesWarmHits(t *testing.T) {
	sys := testSystem(t)
	g := New(sys, Config{Workers: 1, CacheCapacity: 16, ObservedEvery: 1})
	defer g.Stop()
	const tmpl = `SELECT c_name, o_totalprice FROM customer, orders WHERE o_custkey = c_custkey AND c_custkey = %d`
	if resp := g.Serve(fmt.Sprintf(tmpl, 5)); resp.Err != nil || resp.Cache != CacheMiss {
		t.Fatalf("warm-up: cache %v, err %v", resp.Cache, resp.Err)
	}
	warm := g.Metrics().RouterObservedSamples
	const hits = 5
	for i := 0; i < hits; i++ {
		resp := g.Serve(fmt.Sprintf(tmpl, 10+i))
		if resp.Err != nil || resp.Cache != CacheHit {
			t.Fatalf("serve %d: cache %v, err %v", i, resp.Cache, resp.Err)
		}
	}
	if got := g.Metrics().RouterObservedSamples - warm; got != hits {
		t.Errorf("%d hits added %d observed samples, want %d (ObservedEvery=1)", hits, got, hits)
	}
}

// TestRouterObservedAccuracy: with dual-execution sampling on every miss,
// a deliberately mis-set policy (everything to AP, on point lookups where
// the TP index probe measurably wins) must drag router_observed_accuracy
// down, while the cost policy on the same workload scores higher — the
// metric moves with routing quality, not just with load.
func TestRouterObservedAccuracy(t *testing.T) {
	sys := testSystem(t)
	pool := joinPool(12)

	run := func(p RoutingPolicy) Snapshot {
		// CacheCapacity 0: every query is a miss, so both plans exist and
		// every serve is a dual-execution sample
		g := New(sys, Config{Workers: 1, CacheCapacity: 0, Policy: p, ObservedEvery: 1})
		defer g.Stop()
		for _, q := range pool {
			if resp := g.Serve(q.SQL); resp.Err != nil {
				t.Fatalf("serve %q: %v", q.SQL, resp.Err)
			}
		}
		return g.Metrics()
	}

	mis := run(forceAP{})
	if mis.RouterObservedSamples != int64(len(pool)) {
		t.Fatalf("observed samples = %d, want %d (ObservedEvery=1, all misses)",
			mis.RouterObservedSamples, len(pool))
	}
	if mis.LatencyScaleTP <= 0 || mis.LatencyScaleAP <= 0 {
		t.Errorf("calibrator scales = %g/%g, want both > 0 after dual execution",
			mis.LatencyScaleTP, mis.LatencyScaleAP)
	}

	cost := run(CostPolicy{})
	t.Logf("observed accuracy: forceAP %.2f vs cost %.2f (%d samples each)",
		mis.RouterObservedAccuracy, cost.RouterObservedAccuracy, cost.RouterObservedSamples)
	if mis.RouterObservedAccuracy >= cost.RouterObservedAccuracy {
		t.Errorf("mis-set policy accuracy %.2f not below cost policy %.2f",
			mis.RouterObservedAccuracy, cost.RouterObservedAccuracy)
	}
	if mis.RouterObservedAccuracy > 0.5 {
		t.Errorf("forceAP on point lookups scored %.2f, want <= 0.5", mis.RouterObservedAccuracy)
	}
}

// TestTraceOverheadSampledOut is the count gate on the tracing hot path:
// with a tracer at sample rate 0, warm hits trace nothing, and a
// sampled-out serve allocates exactly what an untraced one does — the
// sampled-out path is one atomic add. How much time that costs is the
// benchmark's obs.trace_overhead_frac to say. The allocation half skips
// under -race, as TestWarmCacheSpeedup's does.
func TestTraceOverheadSampledOut(t *testing.T) {
	pool := joinPool(12)
	// one gateway serves both sides, so they share one plan cache and one
	// set of pooled operator trees: the tracer is the only difference
	g := New(testSystem(t), Config{Workers: 1, CacheCapacity: 256})
	defer g.Stop()
	tracer := obs.NewTracer(obs.TracerConfig{SampleRate: 0})
	serve := func(tr *obs.Tracer) func() {
		return func() {
			g.cfg.Tracer = tr
			for _, q := range pool {
				if resp := g.Serve(q.SQL); resp.Err != nil || resp.Cache != CacheHit {
					t.Fatalf("warm serve of %q: cache %v err %v, want a hit", q.SQL, resp.Cache, resp.Err)
				}
			}
		}
	}
	for _, q := range pool { // plan the pool
		if resp := g.Serve(q.SQL); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	serve(tracer)()
	if tracer.Sampled() != 0 {
		t.Errorf("sample rate 0 traced %d queries, want 0", tracer.Sampled())
	}
	if raceEnabled {
		return // the race detector's sync.Pool drops pooled trees at random
	}
	untraced := testing.AllocsPerRun(10, serve(nil))
	sampledOut := testing.AllocsPerRun(10, serve(tracer))
	t.Logf("%d warm hits: %.0f allocations untraced, %.0f with a sampled-out tracer", len(pool), untraced, sampledOut)
	if sampledOut != untraced {
		t.Errorf("a sampled-out serve allocates %.2f per pass, an untraced one %.2f", sampledOut, untraced)
	}
	if tracer.Sampled() != 0 {
		t.Errorf("sample rate 0 traced %d queries, want 0", tracer.Sampled())
	}
}

// BenchmarkServeTraceOverhead reports warm-cache serving cost without a
// tracer, with a sampled-out tracer, and with full tracing.
func BenchmarkServeTraceOverhead(b *testing.B) {
	sys := testSystem(b)
	pool := joinPool(12)
	for _, bc := range []struct {
		name   string
		tracer *obs.Tracer
	}{
		{"no-tracer", nil},
		{"rate0", obs.NewTracer(obs.TracerConfig{SampleRate: 0})},
		{"rate1", obs.NewTracer(obs.TracerConfig{SampleRate: 1})},
	} {
		b.Run(bc.name, func(b *testing.B) {
			g := New(sys, Config{Workers: 1, CacheCapacity: 256, Tracer: bc.tracer})
			defer g.Stop()
			for _, q := range pool {
				if resp := g.Serve(q.SQL); resp.Err != nil {
					b.Fatal(resp.Err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if resp := g.Serve(pool[i%len(pool)].SQL); resp.Err != nil {
					b.Fatal(resp.Err)
				}
			}
		})
	}
}

// TestReadmeListsEveryMetricFamily: every family the Prometheus exposition
// carries — on a durable, traced gateway that has served a read and a
// write, so the conditional families are present — has a row in README's
// Observability table.
func TestReadmeListsEveryMetricFamily(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(readme), "| metric | type | labels | meaning |")
	if !ok {
		t.Fatal("README has no exported-metrics table")
	}
	table, _, _ = strings.Cut(table, "\n\n")

	g := New(durableSystem(t), Config{Workers: 1, CacheCapacity: 16,
		Tracer: obs.NewTracer(obs.TracerConfig{SampleRate: 1})})
	defer g.Stop()
	for _, sql := range []string{
		`SELECT COUNT(*) FROM orders`,
		`INSERT INTO nation (n_nationkey, n_name, n_regionkey, n_comment) VALUES (92, 'listed', 0, 'row')`,
	} {
		if resp := g.Serve(sql); resp.Err != nil {
			t.Fatalf("serve %q: %v", sql, resp.Err)
		}
	}
	text := g.PromText()
	for _, conditional := range []string{"htap_wal_appends_total", "htap_stage_latency_seconds", "htap_query_latency_quantile_seconds"} {
		if !strings.Contains(text, "# HELP "+conditional+" ") {
			t.Errorf("the exposition under test lacks the conditional family %s", conditional)
		}
	}
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, "# HELP ")
		if !ok {
			continue
		}
		if name, _, _ := strings.Cut(rest, " "); !strings.Contains(table, "`"+name+"`") {
			t.Errorf("README's Observability table has no row for %s", name)
		}
	}
}
