package explainsvc

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"htapxplain/internal/gateway"
	"htapxplain/internal/htap"
	"htapxplain/internal/knowledge"
	"htapxplain/internal/treecnn"
	"htapxplain/internal/workload"
)

var (
	envOnce   sync.Once
	envSys    *htap.System
	envRouter *treecnn.Router
	envKB     []byte // gob snapshot for cheap per-test KB clones
	envErr    error
)

// testEnv builds the expensive shared fixtures once: the HTAP system, a
// trained router, and a gob snapshot of a curated KB each test restores
// its own mutable copy from.
func testEnv(t testing.TB) (*htap.System, *treecnn.Router, *knowledge.Base) {
	t.Helper()
	envOnce.Do(func() {
		envSys, envErr = htap.New(htap.DefaultConfig())
		if envErr != nil {
			return
		}
		var kb *knowledge.Base
		envRouter, kb, _, envErr = Bootstrap(envSys, BootstrapConfig{
			TrainQueries: 48, Epochs: 25, KBSize: 16, Seed: 7,
		})
		if envErr != nil {
			return
		}
		var buf bytes.Buffer
		if envErr = kb.Save(&buf); envErr == nil {
			envKB = buf.Bytes()
		}
	})
	if envErr != nil {
		t.Fatalf("test env: %v", envErr)
	}
	kb, err := knowledge.Load(bytes.NewReader(envKB))
	if err != nil {
		t.Fatalf("restoring kb: %v", err)
	}
	return envSys, envRouter, kb
}

func newGateway(t testing.TB, sys *htap.System, workers int) *gateway.Gateway {
	t.Helper()
	g := gateway.New(sys, gateway.Config{Workers: workers, CacheCapacity: 128})
	t.Cleanup(g.Stop)
	return g
}

func newService(t testing.TB, sys *htap.System, g *gateway.Gateway, r *treecnn.Router,
	kb *knowledge.Base, cfg Config) *Service {
	t.Helper()
	svc, err := New(sys, g, r, kb, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc
}

func TestExplainServesGroundedAnswer(t *testing.T) {
	sys, r, kb := testEnv(t)
	g := newGateway(t, sys, 2)
	svc := newService(t, sys, g, r, kb, Config{Seed: 1})

	sql := workload.NewGenerator(3).Batch(1)[0].SQL
	ex, err := svc.Explain(sql)
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if ex.Text() == "" {
		t.Error("explanation text is empty")
	}
	if len(ex.Retrieved) == 0 {
		t.Error("explanation cites no KB entries")
	}
	if ex.PlanCached {
		t.Error("first explain of a query should plan cold")
	}
	ex2, err := svc.Explain(sql)
	if err != nil {
		t.Fatalf("second Explain: %v", err)
	}
	if !ex2.PlanCached {
		t.Error("second explain should hit the plan cache")
	}

	if _, err := svc.Explain("INSERT INTO region (r_regionkey, r_name, r_comment) VALUES (9, 'x', 'y')"); err == nil {
		t.Error("explaining DML should fail")
	}

	m := g.Metrics()
	if m.ExplainServed != 2 {
		t.Errorf("ExplainServed = %d, want 2", m.ExplainServed)
	}
	if m.ExplainKBHits != 2 {
		t.Errorf("ExplainKBHits = %d, want 2", m.ExplainKBHits)
	}
	if m.KBEntries == 0 {
		t.Error("KBEntries = 0, want live entries")
	}
	if m.RouterWindowSamples != 2 {
		t.Errorf("RouterWindowSamples = %d, want 2", m.RouterWindowSamples)
	}
	prom := g.PromText()
	for _, want := range []string{"htap_explain_served_total 2", "htap_kb_entries", "router_accuracy"} {
		if !strings.Contains(prom, want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
}

func TestWhySlowFromCachedPlans(t *testing.T) {
	sys, r, kb := testEnv(t)
	g := newGateway(t, sys, 2)
	svc := newService(t, sys, g, r, kb, Config{Seed: 1})

	rep, err := svc.WhySlow(`SELECT o_orderpriority, COUNT(*) FROM orders GROUP BY o_orderpriority`)
	if err != nil {
		t.Fatalf("WhySlow: %v", err)
	}
	if rep.Text == "" || len(rep.Bottlenecks) == 0 {
		t.Errorf("empty diagnosis: %+v", rep)
	}
	if rep.Engine == rep.Faster {
		t.Errorf("diagnosed engine %v equals the faster engine", rep.Engine)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	sys, r, kb := testEnv(t)
	g := newGateway(t, sys, 2)
	svc := newService(t, sys, g, r, kb, Config{Seed: 1})

	mux := gateway.NewServeMux(g)
	Register(mux, svc)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	post := func(path, sql string) *http.Response {
		t.Helper()
		body, _ := json.Marshal(map[string]string{"sql": sql})
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		return resp
	}

	resp := post("/explain", `SELECT COUNT(*) FROM region`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/explain status = %d", resp.StatusCode)
	}
	var er ExplainResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("decoding /explain: %v", err)
	}
	if er.Explanation == "" && !er.None {
		t.Error("no explanation and not None")
	}
	if len(er.Retrieved) == 0 {
		t.Error("/explain cites no entries")
	}

	wresp := post("/whyslow", `SELECT o_orderpriority, COUNT(*) FROM orders GROUP BY o_orderpriority`)
	defer wresp.Body.Close()
	if wresp.StatusCode != http.StatusOK {
		t.Fatalf("/whyslow status = %d", wresp.StatusCode)
	}
	var wr WhySlowResponse
	if err := json.NewDecoder(wresp.Body).Decode(&wr); err != nil {
		t.Fatalf("decoding /whyslow: %v", err)
	}
	if wr.Text == "" {
		t.Error("/whyslow returned empty text")
	}

	// error contract
	bad := post("/explain", `INSERT INTO region (r_regionkey, r_name, r_comment) VALUES (8, 'a', 'b')`)
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("DML /explain status = %d, want 400", bad.StatusCode)
	}
	gr, err := http.Get(srv.URL + "/explain")
	if err != nil {
		t.Fatal(err)
	}
	gr.Body.Close()
	if gr.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /explain status = %d, want 405", gr.StatusCode)
	}
}

// TestOversizedBodyCostsOne4xx: a request body past the limit is refused
// with 413 — on its declared length before any of it is read, or where the
// limit is crossed when it is chunked and declares none; a well-formed
// one, so only its size can be the reason — and the next request on the
// same server is served.
func TestOversizedBodyCostsOne4xx(t *testing.T) {
	sys, r, kb := testEnv(t)
	g := newGateway(t, sys, 2)
	svc := newService(t, sys, g, r, kb, Config{Seed: 1})
	mux := gateway.NewServeMux(g)
	Register(mux, svc)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	small := `{"sql": "SELECT COUNT(*) FROM region"}`
	// twice the 1 MiB the gateway's ReadSQL accepts
	big := strings.TrimSuffix(small, "}") + strings.Repeat(" ", 2<<20) + "}"
	for _, path := range []string{"/query", "/explain", "/whyslow"} {
		for _, tc := range []struct {
			name string
			body io.Reader
			want int
		}{
			{"2 MiB, length declared", strings.NewReader(big), http.StatusRequestEntityTooLarge},
			{"small", strings.NewReader(small), http.StatusOK},
			// a reader net/http cannot size goes out chunked
			{"2 MiB, chunked", io.MultiReader(strings.NewReader(big)), http.StatusRequestEntityTooLarge},
			{"small, chunked", io.MultiReader(strings.NewReader(small)), http.StatusOK},
		} {
			resp, err := http.Post(srv.URL+path, "application/json", tc.body)
			if err != nil {
				t.Fatalf("POST %s (%s): %v", path, tc.name, err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("POST %s (%s): status %d, want %d", path, tc.name, resp.StatusCode, tc.want)
			}
		}
	}
}

// TestMalformedRequestsAre400: a body that is not exactly one
// {"sql": "<non-empty>"} object is refused on every statement endpoint —
// bytes after the object included, which a decoder that stops at the first
// value serves as if they were not there.
func TestMalformedRequestsAre400(t *testing.T) {
	sys, r, kb := testEnv(t)
	g := newGateway(t, sys, 2)
	svc := newService(t, sys, g, r, kb, Config{Seed: 1})
	mux := gateway.NewServeMux(g)
	Register(mux, svc)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	const ok = `{"sql": "SELECT COUNT(*) FROM region"}`
	for _, path := range []string{"/query", "/explain", "/whyslow"} {
		for _, tc := range []struct {
			name, body string
			want       int
		}{
			{"well-formed", ok, http.StatusOK},
			{"surrounding whitespace", " \n" + ok + "\r\n\t ", http.StatusOK},
			{"unknown field beside sql", `{"sql": "SELECT COUNT(*) FROM region", "pretty": true}`, http.StatusOK},
			{"empty body", "", http.StatusBadRequest},
			{"not JSON", "SELECT 1", http.StatusBadRequest},
			{"empty object", `{}`, http.StatusBadRequest},
			{"empty statement", `{"sql": ""}`, http.StatusBadRequest},
			{"sql of the wrong type", `{"sql": 1}`, http.StatusBadRequest},
			{"an array", `[` + ok + `]`, http.StatusBadRequest},
			{"unterminated", `{"sql": "SELECT COUNT(*) FROM region"`, http.StatusBadRequest},
			{"trailing garbage", ok + ` trailing garbage`, http.StatusBadRequest},
			{"two objects", ok + ok, http.StatusBadRequest},
		} {
			resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatalf("POST %s (%s): %v", path, tc.name, err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("POST %s (%s): status %d, want %d", path, tc.name, resp.StatusCode, tc.want)
			}
		}
	}
}

// TestExplainSharesTheLedger: /explain and /whyslow pass the admission
// control /query does. With the only slot held and room for one waiter, of
// two explanation requests one waits and one is shed; when the slot comes
// back the waiter is served, and gives the slot back in turn.
func TestExplainSharesTheLedger(t *testing.T) {
	sys, r, kb := testEnv(t)
	g := gateway.New(sys, gateway.Config{Workers: 1, QueueDepth: 1, CacheCapacity: 16})
	t.Cleanup(g.Stop)
	svc := newService(t, sys, g, r, kb, Config{Seed: 1})

	if err := g.Admit(); err != nil {
		t.Fatal(err)
	}
	sql := `SELECT COUNT(*) FROM region`
	errs := make(chan error, 2)
	go func() { _, err := svc.Explain(sql); errs <- err }()
	go func() { _, err := svc.WhySlow(sql); errs <- err }()
	if err := <-errs; !errors.Is(err, gateway.ErrOverloaded) {
		t.Fatalf("with the slot held and one waiter allowed, the first reply is %v, want ErrOverloaded", err)
	}
	if got := g.Metrics().Shed; got != 1 {
		t.Errorf("queries_shed = %d, want 1", got)
	}
	g.Release()
	if err := <-errs; err != nil {
		t.Fatalf("the waiting request: %v", err)
	}
	if _, err := svc.Explain(sql); err != nil {
		t.Fatalf("after the waiter was served the slot did not come back: %v", err)
	}
}

// TestExplainPanicIsA500: /explain and /whyslow admit on their own, so
// they recover on their own — a serve that panics (here: a service whose
// explainer is gone) answers 500 rather than dropping the
// connection or blaming the request with a 400, is counted in
// panics_total, and gives its slot back.
func TestExplainPanicIsA500(t *testing.T) {
	sys, r, kb := testEnv(t)
	g := gateway.New(sys, gateway.Config{Workers: 1, QueueDepth: 1, CacheCapacity: 16})
	t.Cleanup(g.Stop)
	svc := newService(t, sys, g, r, kb, Config{Seed: 1})
	mux := gateway.NewServeMux(g)
	Register(mux, svc)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	svc.ex.Store(nil)
	before := g.Metrics().Panics
	for _, path := range []string{"/explain", "/whyslow"} {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(`{"sql": "SELECT COUNT(*) FROM region"}`))
		if err != nil {
			t.Fatalf("POST %s: %v (a panic must be a reply, not a dropped connection)", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "panic: ") {
			t.Errorf("%s answered %d %q, want 500 naming the panic", path, resp.StatusCode, body)
		}
	}
	if got := g.Metrics().Panics - before; got != 2 {
		t.Errorf("panics_total advanced by %d, want 2", got)
	}
	if err := g.Admit(); err != nil {
		t.Fatalf("the slot did not come back: %v", err)
	}
	g.Release()
}

// TestExplainFeedsRouteHistogram: explanations served beside ordinary
// reads all succeed, and each one adds a sample to the gateway's
// route="explain" latency histogram.
func TestExplainFeedsRouteHistogram(t *testing.T) {
	sys, r, kb := testEnv(t)
	g := newGateway(t, sys, 4)
	svc := newService(t, sys, g, r, kb, Config{Seed: 1})

	pool := workload.NewGenerator(5).Batch(12)
	const clients, perClient = 4, 5
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				sql := pool[(c*perClient+i)%len(pool)].SQL
				resp, err := g.Submit(sql)
				if err == nil {
					err = resp.Err
				}
				if err != nil {
					t.Errorf("Submit: %v", err)
				}
				if _, err := svc.Explain(sql); err != nil {
					t.Errorf("Explain: %v", err)
				}
			}
		}(c)
	}
	wg.Wait()
	want := fmt.Sprintf(`htap_query_latency_seconds_count{route="explain"} %d`, clients*perClient)
	if !strings.Contains(g.PromText(), want+"\n") {
		t.Errorf("after %d explanations the exposition lacks %q", clients*perClient, want)
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	sys, r, kb := testEnv(t)
	dir := t.TempDir()
	g := newGateway(t, sys, 2)
	svc := newService(t, sys, g, r, kb, Config{Seed: 1, Dir: dir})

	for _, q := range workload.NewGenerator(9).Batch(8) {
		if _, err := svc.Explain(q.SQL); err != nil {
			t.Fatalf("Explain: %v", err)
		}
	}
	if !svc.Retrain() {
		t.Fatal("forced retrain did not run")
	}
	liveRouter := svc.Router()
	liveKBLen := kb.Len()
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r2, kb2, restored, err := Bootstrap(sys, BootstrapConfig{Dir: dir})
	if err != nil {
		t.Fatalf("Bootstrap restore: %v", err)
	}
	if !restored {
		t.Fatal("Bootstrap did not restore persisted state")
	}
	if kb2.Len() != liveKBLen {
		t.Errorf("restored KB has %d entries, want %d", kb2.Len(), liveKBLen)
	}
	// the restored router must reproduce the live router's decisions
	probes := workload.NewGenerator(11).Batch(12)
	for _, q := range probes {
		res, err := sys.Run(q.SQL)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := liveRouter.Predict(&res.Pair)
		got, _ := r2.Predict(&res.Pair)
		if got != want {
			t.Errorf("restored router picks %v, live picked %v for %q", got, want, q.SQL)
		}
	}
}

func TestRetrainSwapsRouterAndRefreshesKB(t *testing.T) {
	sys, r, kb := testEnv(t)
	g := newGateway(t, sys, 2)
	var swapped []*treecnn.Router
	var mu sync.Mutex
	svc := newService(t, sys, g, r, kb, Config{
		Seed: 1,
		OnSwap: func(nr *treecnn.Router) {
			mu.Lock()
			swapped = append(swapped, nr)
			mu.Unlock()
		},
	})

	floor := kb.CurSeq()
	for _, q := range workload.NewGenerator(13).Batch(10) {
		if _, err := svc.Explain(q.SQL); err != nil {
			t.Fatalf("Explain: %v", err)
		}
	}
	if !svc.Retrain() {
		t.Fatal("forced retrain did not run")
	}
	if svc.Router() == r {
		t.Error("retrain did not swap the router")
	}
	mu.Lock()
	nswaps := len(swapped)
	mu.Unlock()
	if nswaps < 2 { // initial publish + retrain swap
		t.Errorf("OnSwap called %d times, want >= 2", nswaps)
	}
	if kb.Len() == 0 {
		t.Fatal("KB empty after refresh")
	}
	for _, e := range kb.Entries() {
		if e.Seq <= floor {
			t.Errorf("stale entry %d (seq %d <= floor %d) survived refresh", e.ID, e.Seq, floor)
		}
	}
	if got := g.Metrics(); got.RouterRetrains != 1 || got.KBExpired == 0 {
		t.Errorf("metrics after retrain: retrains=%d kbExpired=%d", got.RouterRetrains, got.KBExpired)
	}
	// serving still works against the refreshed state
	if _, err := svc.Explain(`SELECT COUNT(*) FROM region`); err != nil {
		t.Fatalf("Explain after retrain: %v", err)
	}
}
