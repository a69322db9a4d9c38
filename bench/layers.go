package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"htapxplain/internal/exec"
	"htapxplain/internal/gateway"
	"htapxplain/internal/knowledge"
	"htapxplain/internal/latency"
	"htapxplain/internal/llm"
	"htapxplain/internal/optimizer"
	"htapxplain/internal/plan"
	"htapxplain/internal/prompt"
	"htapxplain/internal/shard"
	"htapxplain/internal/sqlparser"
	"htapxplain/internal/vectordb"
	"htapxplain/internal/wal"
)

// --- spans ---

// span is one timed region. Spans of one request share Req; Parent is the
// ID of the span that caused this one, 0 for a root.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"` // since the log was opened
	End    int64  `json:"end_ns"`
}

const (
	spanHeader = "X-Bench-Span"
	// maxSpans bounds the in-memory log; requests past it go unrecorded
	// and are counted in dropped.
	maxSpans = 400_000
)

// spanLog keeps the traced run's spans in memory until the run ends.
type spanLog struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	nextID  int64
	dropped int64
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) since(t time.Time) int64 { return t.Sub(l.t0).Nanoseconds() }

// open reserves an ID for a span that will be added once it has ended; 0
// means the log is full.
func (l *spanLog) open() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) >= maxSpans {
		l.dropped++
		return 0
	}
	l.nextID++
	return l.nextID
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// timed records fn as a root span.
func (l *spanLog) timed(name string, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	if id := l.open(); id != 0 {
		l.add(span{Name: name, ID: id, Req: -1, Start: l.since(t0), End: l.since(t0) + d.Nanoseconds()})
	}
	return d
}

// handler wraps the server's mux in an http.handler span whose parent is
// the client.request span named in the request header. It answers with its
// own ID so the client can hang the server-reported gateway.serve span
// under it.
func (l *spanLog) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		id := int64(0)
		if parent != 0 {
			id = l.open()
		}
		if id == 0 {
			next.ServeHTTP(w, r)
			return
		}
		w.Header().Set(spanHeader, strconv.FormatInt(id, 10))
		t0 := time.Now()
		next.ServeHTTP(w, r)
		l.add(span{Name: "http.handler", ID: id, Parent: parent, Start: l.since(t0), End: l.since(time.Now())})
	})
}

// finish gives every span its request ID and places each gateway.serve
// span, whose duration the server reported, at the end of its handler
// span. It returns the median self time (duration minus children) per
// span name.
func (l *spanLog) finish() map[string]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	index := make(map[int64]int, len(l.spans))
	for i := range l.spans {
		index[l.spans[i].ID] = i
	}
	// parents before children, so request IDs and end times flow down
	depth := make([]int, len(l.spans))
	order := make([]int, len(l.spans))
	for i := range l.spans {
		order[i] = i
		for p := l.spans[i].Parent; p != 0; p = l.spans[index[p]].Parent {
			depth[i]++
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return depth[order[a]] < depth[order[b]] })
	children := make([]int64, len(l.spans))
	for _, i := range order {
		s := &l.spans[i]
		if s.Parent == 0 {
			continue
		}
		p := &l.spans[index[s.Parent]]
		s.Req = p.Req
		if s.Name == "gateway.serve" {
			d := s.End - s.Start
			s.End = p.End
			s.Start = s.End - d
		}
		children[index[s.Parent]] += s.End - s.Start
	}
	self := map[string][]float64{}
	for i, s := range l.spans {
		self[s.Name] = append(self[s.Name], float64(s.End-s.Start-children[i]))
	}
	out := make(map[string]float64, len(self))
	for name, xs := range self {
		out[name] = median(xs)
	}
	return out
}

func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(l.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- layer probes ---

// prober calls each layer's public entry point over the workload's own
// statements, with a span around every call.
type prober struct {
	spans *spanLog
	slice time.Duration // time each probe may use once its first pass is done
	ns    map[string][]float64
	err   error
	// cold probes time their very first call; the others make one
	// untimed call per input first, as the closed loop's warm-up does
	cold bool
}

const (
	probeInputs     = 64   // statements a probe cycles over
	maxProbeSamples = 4000 // per probe
)

// each times the function prep(i) returns, for i over n inputs, pass after
// pass until the probe's slice is used up. prep does the untimed
// preparation; a nil function skips the input.
func (p *prober) each(name string, n int, prep func(i int) func() error) {
	end := time.Now().Add(p.slice)
	for pass := 0; (pass == 0 || time.Now().Before(end)) && len(p.ns[name]) < maxProbeSamples && p.err == nil; pass++ {
		timed := 0
		for i := 0; i < n; i++ {
			fn := prep(i)
			if fn == nil {
				continue
			}
			timed++
			var err error
			if pass == 0 && !p.cold {
				if err = fn(); err == nil {
					fn = prep(i)
				}
			}
			d := p.spans.timed("probe."+name, func() {
				if err == nil {
					err = fn()
				}
			})
			if err != nil && p.err == nil {
				p.err = fmt.Errorf("probe %s: %w", name, err)
			}
			p.ns[name] = append(p.ns[name], float64(d.Nanoseconds()))
		}
		if timed == 0 {
			return // no input of this workload takes the probe
		}
	}
}

// mid is the probe's typical time.
func (p *prober) mid(name string) float64 { return midmean(p.ns[name]) }

func (p *prober) mean(name string) float64 { return mean(p.ns[name]) }

// spread picks up to n statements evenly from the list.
func spread(list []*stmt, n int) []*stmt {
	if len(list) <= n {
		return list
	}
	out := make([]*stmt, n)
	for i := range out {
		out[i] = list[i*len(list)/n]
	}
	return out
}

// plannedRead is one read planned on both engines, as a cache miss does.
type plannedRead struct {
	s      *stmt
	fp     string
	tp, ap *optimizer.PhysPlan
	route  plan.Engine
	pair   plan.Pair
}

func planReads(s *system, reads []*stmt) ([]plannedRead, error) {
	var out []plannedRead
	for _, r := range reads {
		fp, _, err := sqlparser.Fingerprint(r.sql)
		if err != nil {
			return nil, err
		}
		selTP, err := sqlparser.Parse(r.sql)
		if err != nil {
			return nil, err
		}
		selAP, _ := sqlparser.Parse(r.sql) // parsed a line above
		tp, err := s.sys.Planner.PlanTP(selTP)
		if err != nil {
			return nil, err
		}
		ap, err := s.sys.Planner.PlanAP(selAP)
		if err != nil {
			return nil, err
		}
		route := plan.AP
		if latency.Estimate(tp.Explain) <= latency.Estimate(ap.Explain) {
			route = plan.TP
		}
		out = append(out, plannedRead{s: r, fp: fp, tp: tp, ap: ap, route: route,
			pair: plan.Pair{SQL: r.sql, TP: tp.Explain, AP: ap.Explain}})
	}
	return out, nil
}

// runProbes measures the layers the workload uses; the others stay absent
// from p.ns and are reported as not applicable.
func runProbes(p *prober, s *system, sv *serving, st *stream, seed int64, tmpRoot string) error {
	// the first reads of the stream, so that the probes see the templates
	// in the proportions the traffic has them
	var selects []*stmt
	for i := int64(0); len(selects) < probeInputs && i < 8*probeInputs; i++ {
		if r := st.at(i); r != nil && !r.write {
			selects = append(selects, r)
		}
	}
	reads, err := planReads(s, selects)
	if err != nil {
		return fmt.Errorf("planning the probe statements: %w", err)
	}
	n := len(reads)

	// http: the whole handler, into a recorder, minus what the gateway
	// reports as its own serve time. Every call is timed — the closed loop
	// has served these statements already — and /whyslow, whose reply
	// carries no serve time, is left out, so that the two means are over
	// the same calls.
	p.cold = true
	p.each("http.handler", n, func(i int) func() error {
		r := reads[i].s
		if r.path == "/whyslow" {
			return nil
		}
		req := httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body))
		return func() error {
			rec := httptest.NewRecorder()
			sv.mux.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				return fmt.Errorf("status %d for %q", rec.Code, r.sql)
			}
			var reply struct {
				ServeUS int64 `json:"serve_us"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
				return err
			}
			p.ns["http.handler.serve"] = append(p.ns["http.handler.serve"], float64(reply.ServeUS)*1e3)
			return nil
		}
	})
	p.cold = false

	p.each("sqlparser.Fingerprint", n, func(i int) func() error {
		return func() error { _, _, err := sqlparser.Fingerprint(reads[i].s.sql); return err }
	})
	p.each("sqlparser.Parse", n, func(i int) func() error {
		return func() error { _, err := sqlparser.Parse(reads[i].s.sql); return err }
	})
	writes := spread(st.writes, probeInputs)
	p.each("sqlparser.ParseScript", len(writes), func(i int) func() error {
		return func() error { _, err := sqlparser.ParseScript(writes[i].sql); return err }
	})

	cache := gateway.NewPlanCache(8, 1024)
	p.each("gateway.PlanCache.Put", n, func(i int) func() error {
		e := &gateway.CachedPlan{Fingerprint: reads[i].fp, Pair: reads[i].pair, Route: reads[i].route}
		return func() error { cache.Put(e); return nil }
	})
	p.each("gateway.PlanCache.Get", n, func(i int) func() error {
		return func() error {
			if _, ok := cache.Get(reads[i].fp); !ok {
				return fmt.Errorf("no entry for %q", reads[i].fp)
			}
			return nil
		}
	})

	p.each("optimizer.PlanTP", n, func(i int) func() error {
		sel, err := sqlparser.Parse(reads[i].s.sql)
		if err != nil {
			return nil
		}
		return func() error { _, err := s.sys.Planner.PlanTP(sel); return err }
	})
	p.each("optimizer.PlanAP", n, func(i int) func() error {
		sel, err := sqlparser.Parse(reads[i].s.sql)
		if err != nil {
			return nil
		}
		return func() error { _, err := s.sys.Planner.PlanAP(sel); return err }
	})
	p.each("latency.Estimate", n, func(i int) func() error {
		return func() error { latency.Estimate(reads[i].tp.Explain); return nil }
	})

	// exec: each statement on the engine the cost policy routes it to,
	// with the parallelism the worker pool could grant
	for _, eng := range []plan.Engine{plan.TP, plan.AP} {
		eng := eng
		p.each("exec.Execute."+eng.String(), n, func(i int) func() error {
			if reads[i].route != eng || reads[i].s.path != "/query" {
				return nil
			}
			phys := reads[i].tp
			if eng == plan.AP {
				phys = reads[i].ap
			}
			return func() error {
				ctx := exec.NewContext()
				if phys.DOP > 1 {
					ctx.DOP = connections
				}
				_, err := phys.Execute(ctx)
				return err
			}
		})
	}

	if s.coord != nil {
		probeShard(p, s, reads)
	}
	if st.mixed {
		p.cold = true // a write cannot be rehearsed
		err := probeWrites(p, s, tmpRoot)
		p.cold = false
		if err != nil {
			return err
		}
	}
	if s.def.KBSize > 0 {
		probeExplain(p, s, reads, seed)
	}
	return p.err
}

func probeShard(p *prober, s *system, reads []plannedRead) {
	scheme := shard.TPCHScheme()
	n := len(reads)
	p.each("optimizer.AnalyzeDist", n, func(i int) func() error {
		sel, err := sqlparser.Parse(reads[i].s.sql)
		if err != nil {
			return nil
		}
		return func() error { _, err := optimizer.AnalyzeDist(s.coord.Catalog(), sel, scheme); return err }
	})
	p.each("shard.Route", n, func(i int) func() error {
		return func() error { _, _, err := s.coord.Route(reads[i].s.sql); return err }
	})
	p.each("shard.Scatter", n, func(i int) func() error {
		target, dec, err := s.coord.Route(reads[i].s.sql)
		if err != nil || target >= 0 {
			return nil
		}
		return func() error {
			sc, err := s.coord.PrepareScatter(reads[i].s.sql, dec)
			if err != nil {
				return err
			}
			_, _, err = sc.Run()
			return err
		}
	})
}

// probeKeyBase is the probes' own customer key range, above both write
// generators'. Every probe deletes what it inserts.
const probeKeyBase = 3_000_000_000

func probeWrites(p *prober, s *system, tmpRoot string) error {
	execDML := func(sql string) (uint64, error) {
		if s.coord != nil {
			res, err := s.coord.ExecDML(sql)
			if err != nil {
				return 0, err
			}
			return res.LSN, nil
		}
		res, err := s.sys.Exec(sql)
		if err != nil {
			return 0, err
		}
		return res.LSN, nil
	}
	insertSQL := func(key int64) string {
		return fmt.Sprintf("INSERT INTO customer (c_custkey, c_name, c_address, c_nationkey, c_phone, c_acctbal, c_mktsegment, c_comment) "+
			"VALUES (%d, 'probe#%d', 'addr', 7, '17-123', 10.50, 'machinery', 'probe write')", key, key)
	}
	// fleet-wide progress: the commit sequence the column stores must reach
	commitLSN, watermark := s.sys.CommitLSN, s.sys.Watermark
	if s.coord != nil {
		commitLSN, watermark = s.coord.CommitLSN, s.coord.Watermark
	}

	key := int64(probeKeyBase)
	// one autocommit statement through System.Exec; after each insert,
	// how long until the column store shows it
	p.each("htap.Exec", 3, func(i int) func() error {
		var sql string
		switch i {
		case 0:
			key++
			sql = insertSQL(key)
		case 1:
			sql = fmt.Sprintf("UPDATE customer SET c_acctbal = c_acctbal + 1 WHERE c_custkey = %d", key)
		default:
			sql = fmt.Sprintf("DELETE FROM customer WHERE c_custkey = %d", key)
		}
		return func() error {
			if _, err := execDML(sql); err != nil {
				return err
			}
			if i != 0 {
				return nil
			}
			acked, target := time.Now(), commitLSN()
			for watermark() < target {
				if time.Since(acked) > 5*time.Second {
					return fmt.Errorf("the replication watermark did not reach %d in 5 s", target)
				}
				runtime.Gosched()
			}
			p.ns["repl.visible_lag"] = append(p.ns["repl.visible_lag"], float64(time.Since(acked).Nanoseconds()))
			return nil
		}
	})

	// Txn.Commit alone: the statements are buffered before the clock starts
	p.each("htap.Txn.Commit", 2, func(i int) func() error {
		sql := fmt.Sprintf("DELETE FROM customer WHERE c_custkey = %d", key)
		if i == 0 {
			key++
			sql = insertSQL(key)
		}
		if s.coord != nil {
			tx := s.coord.Begin()
			if _, err := tx.Exec(sql); err != nil {
				tx.Rollback()
				return func() error { return err }
			}
			return func() error { _, err := tx.Commit(); return err }
		}
		tx := s.sys.Begin()
		if _, err := tx.Exec(sql); err != nil {
			tx.Rollback()
			return func() error { return err }
		}
		return func() error { _, err := tx.Commit(); return err }
	})

	shards := s.shards()
	p.each("recovery.Checkpoint", len(shards), func(i int) func() error {
		return func() error { _, err := shards[i].Checkpoint(); return err }
	})

	// a scratch log with the system's flush policy: append, then wait for
	// the group committer
	dir, err := os.MkdirTemp(tmpRoot, "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	w, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "wal")})
	if err != nil {
		return err
	}
	defer w.Close()
	body := make([]byte, 160) // about one customer row
	lsn := uint64(0)
	p.each("wal.Append", 1, func(int) func() error {
		lsn++
		return func() error { return w.Append(wal.Record{LSN: lsn, Kind: wal.KindMutation, Body: body}) }
	})
	p.each("wal.WaitDurable", 1, func(int) func() error {
		lsn++
		if err := w.Append(wal.Record{LSN: lsn, Kind: wal.KindMutation, Body: body}); err != nil {
			return func() error { return err }
		}
		return func() error { return w.WaitDurable(lsn) }
	})
	return nil
}

func probeExplain(p *prober, s *system, reads []plannedRead, seed int64) {
	n := len(reads)
	encodings := make([][]float64, n)
	for i := range reads {
		encodings[i] = s.router.EmbedPair(&reads[i].pair)
	}
	p.each("treecnn.EmbedPair", n, func(i int) func() error {
		return func() error { s.router.EmbedPair(&reads[i].pair); return nil }
	})
	p.each("treecnn.Predict", n, func(i int) func() error {
		return func() error { s.router.Predict(&reads[i].pair); return nil }
	})
	hits := make([][]knowledge.Hit, n)
	p.each("knowledge.TopK", n, func(i int) func() error {
		return func() (err error) { hits[i], err = s.kb.TopK(encodings[i], explainK); return err }
	})

	// vectordb: the HNSW answer against the exact scan, over a store that
	// holds the knowledge base's vectors and is indexed with its settings
	store := vectordb.New(len(encodings[0]), vectordb.Cosine)
	for _, e := range s.kb.Entries() {
		if _, err := store.Add(e.Encoding); err != nil {
			p.err = err
			return
		}
	}
	store.BuildHNSW(8, 32, seed)
	found, wanted := 0, 0
	p.each("vectordb.SearchHNSW", n, func(i int) func() error {
		return func() error {
			approx, err := store.SearchHNSW(encodings[i], explainK)
			if err != nil {
				return err
			}
			exact, err := store.Search(encodings[i], explainK)
			if err != nil {
				return err
			}
			ids := map[int]bool{}
			for _, h := range exact {
				ids[h.ID] = true
			}
			wanted += len(exact)
			for _, h := range approx {
				if ids[h.ID] {
					found++
				}
			}
			return nil
		}
	})
	if wanted > 0 {
		p.ns["vectordb.recall"] = []float64{float64(found) / float64(wanted)}
	}

	builder := prompt.NewBuilder(s.sys.Cat.SchemaSummary())
	model := llm.Doubao()
	prompts := make([]string, n)
	question := func(i int) prompt.Question {
		return prompt.Question{
			SQL:        reads[i].s.sql,
			TPPlanJSON: reads[i].pair.TP.ExplainJSON(),
			APPlanJSON: reads[i].pair.AP.ExplainJSON(),
			Winner:     reads[i].route,
			Speedup:    2,
		}
	}
	p.each("prompt.Build", n, func(i int) func() error {
		q := question(i)
		return func() error { prompts[i] = builder.Build(hits[i], q); return nil }
	})
	p.each("llm.Generate", n, func(i int) func() error {
		return func() error { _, err := model.Generate(prompts[i]); return err }
	})
}
