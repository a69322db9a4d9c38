// Package explainsvc wires the paper's explanation pipeline into the
// serving path as an online service. Three loops run against one shared
// state:
//
//   - Serving: /explain and /whyslow hand explain.Explainer a
//     plan.Modeled built from the gateway's cached plan pair and the
//     latency model's calibrated estimates — the pipeline the offline
//     harness runs (TestServedIsEvaluated), which never executes a query —
//     with RAG retrieval going through the knowledge base's lock-free
//     copy-on-write HNSW snapshot. What the pair determines — encoding,
//     the router's pick, hits, plan JSON, the prompt up to its QUESTION
//     and the model's prefill of it (explain.Retrieval) — is kept on the
//     template's plan-cache entry and reused by every explanation of the
//     template while the live explainer and the knowledge base's version
//     are the ones it was built under, so a warm explanation renders only
//     its QUESTION and the model reads only that; an explainer swap, a
//     knowledge-base change or the plan's eviction makes the next
//     explanation retrieve and prefill afresh. A request takes a slot
//     of the gateway's worker ledger like any other route and is served
//     on its caller's goroutine.
//   - Feedback: every explanation records the live router's pick and the
//     modeled latencies into a sliding window; the gateway's calibrator
//     feeds observed serve latencies back so modeled costs track reality.
//   - Maintenance: the drift monitor (a task.Loop: a check or retrain
//     that panics is abandoned and kept in the loop's Err, and serving
//     goes on with the live router) replays the window against the
//     current calibration; when the router's agreement with the
//     calibrated winner drops below threshold it retrains the tree-CNN
//     on a snapshot of the window, atomically swaps the live router,
//     re-curates the knowledge base under the new router's encodings and
//     expires the stale entries. Router and KB persist under a state
//     directory and survive restarts.
package explainsvc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"htapxplain/internal/explain"
	"htapxplain/internal/gateway"
	"htapxplain/internal/htap"
	"htapxplain/internal/knowledge"
	"htapxplain/internal/llm"
	"htapxplain/internal/plan"
	"htapxplain/internal/sqlparser"
	"htapxplain/internal/task"
	"htapxplain/internal/treecnn"
)

// The service's fixed settings: explanations are generated by the
// simulated Doubao model (llm.Doubao), the knowledge base's HNSW index is
// built with degree 8 and construction beam 32, and a retrain re-judges at
// most 32 window queries into the knowledge base.
const (
	hnswM, hnswEf = 8, 32
	recurateMax   = 32
)

// Config tunes the service. Zero values select the documented defaults.
type Config struct {
	// K is the number of retrieved similar plan pairs per explanation
	// (paper default 2).
	K int
	// Seed drives index construction and retraining.
	Seed int64

	// Window is the sliding drift window's capacity in served
	// explanations (default 128). A drift check waits until the window
	// holds a quarter of that (at least one sample).
	Window int
	// DriftThreshold is the router-vs-calibrated-winner agreement below
	// which a retrain fires (default 0.85).
	DriftThreshold float64
	// RetrainEpochs bounds online retraining (default 40).
	RetrainEpochs int
	// CheckInterval is the maintenance-loop period; 0 disables the
	// background loop (drift checks then run only via CheckNow/Retrain).
	CheckInterval time.Duration

	// Dir, when non-empty, persists router and KB state (gob) so a
	// restarted server resumes with its learned state.
	Dir string
	// OnSwap, when non-nil, observes every router swap — the hook a
	// gateway.LearnedPolicy source is kept current through.
	OnSwap func(*treecnn.Router)
}

func (c *Config) defaults() {
	if c.K <= 0 {
		c.K = 2
	}
	if c.Window <= 0 {
		c.Window = 128
	}
	if c.DriftThreshold <= 0 {
		c.DriftThreshold = 0.85
	}
	if c.RetrainEpochs <= 0 {
		c.RetrainEpochs = 40
	}
}

// minSamples is how many samples the window must hold before a drift
// check judges it: a quarter of its capacity, so every window can fill it.
func (c *Config) minSamples() int { return max(1, c.Window/4) }

// Service is the online explanation service. All methods are safe for
// concurrent use.
type Service struct {
	sys *htap.System
	gw  *gateway.Gateway
	kb  *knowledge.Base
	cfg Config

	// ex is the live explainer: the router a retrain swaps and the pipeline
	// assembled around it (options, rendered schema summary), published as
	// one so a request never pairs a router with another router's pipeline.
	ex  atomic.Pointer[explain.Explainer]
	win *window

	served, kbHits, retrains, kbExpired atomic.Int64

	// maintMu serializes maintenance (drift check / retrain / persist) so
	// overlapping triggers cannot double-retrain on the same window.
	maintMu sync.Mutex
	// drift is the background drift monitor: a pass is one CheckNow; a
	// pass that panics (a retrain, an OnSwap observer) is in drift.Err().
	drift task.Loop
}

// New assembles the service over an already-built system, gateway,
// router and knowledge base (see Bootstrap for building the latter two).
// The KB's HNSW index is built here — bulk entries should already be
// loaded. If cfg.CheckInterval > 0 the
// maintenance loop starts immediately; Close stops it.
func New(sys *htap.System, gw *gateway.Gateway, router *treecnn.Router, kb *knowledge.Base, cfg Config) (*Service, error) {
	if sys == nil || gw == nil || router == nil || kb == nil {
		return nil, errors.New("explainsvc: sys, gateway, router and kb are all required")
	}
	cfg.defaults()
	s := &Service{
		sys: sys,
		gw:  gw,
		kb:  kb,
		cfg: cfg,
		win: newWindow(cfg.Window),
	}
	s.swapRouter(router)
	kb.EnableHNSW(hnswM, hnswEf, cfg.Seed)
	gw.SetExplainStats(s.Stats)
	if cfg.CheckInterval > 0 {
		s.drift.Start(cfg.CheckInterval, nil, func() error {
			s.CheckNow()
			return nil
		})
	}
	return s, nil
}

// Router returns the live router (atomically swapped by retrains).
func (s *Service) Router() *treecnn.Router { return s.ex.Load().Router }

// swapRouter publishes r with an explainer built around it. The schema
// summary in its prompts is rendered here, once per router, not per request.
func (s *Service) swapRouter(r *treecnn.Router) {
	s.ex.Store(explain.New(s.sys, r, s.kb, llm.Doubao(), explain.Options{
		K: s.cfg.K, UseRAG: true, IncludeGuardrail: true,
	}))
	if s.cfg.OnSwap != nil {
		s.cfg.OnSwap(r)
	}
}

// Explanation is one served /explain answer. Its EncodeTime and SearchTime
// are what this request spent: 0 when it reused its template's retrieval.
type Explanation struct {
	*explain.Explanation
	// PlanCached reports whether the plan pair came from the gateway's
	// plan cache (warm) or was planned on demand (cold).
	PlanCached bool
	// RouterPick is the live router's engine prediction for the pair,
	// recorded into the drift window.
	RouterPick plan.Engine
	// ServeTime is the wall time of the serve, once admitted.
	ServeTime time.Duration
}

// admitted runs serve on the caller's goroutine holding a slot of the
// gateway's worker ledger; under overload it sheds with
// gateway.ErrOverloaded like any other route. A panic in serve is that
// request's error, a *task.PanicError, and the slot comes back.
func admitted[T any](gw *gateway.Gateway, serve func() (T, error)) (out T, err error) {
	if err = gw.Admit(); err != nil {
		return out, err
	}
	defer gw.Release()
	err = task.Do(func() (err error) { out, err = serve(); return err })
	return out, err
}

// Explain answers "why did this query run the way it did" for a SELECT,
// grounded in retrieved knowledge-base entries. It is admitted like a
// query (see admitted).
func (s *Service) Explain(sql string) (*Explanation, error) {
	return admitted(s.gw, func() (*Explanation, error) { return s.explain(sql) })
}

func (s *Service) explain(sql string) (*Explanation, error) {
	start := time.Now()
	entry, sm, cached, err := s.pairFor(sql)
	if err != nil {
		return nil, err
	}
	m := sm.modeled(s.gw.Calibrator())
	ex := s.ex.Load()
	r, reused, err := retrieval(ex, entry)
	if err != nil {
		return nil, err
	}
	inner, err := ex.Compose(&m, r)
	if err != nil {
		return nil, err
	}
	if reused {
		inner.EncodeTime, inner.SearchTime = 0, 0 // this request spent neither
	}
	sm.pick = r.RouterPick
	s.win.add(sm)
	s.served.Add(1)
	if len(inner.Retrieved) > 0 {
		s.kbHits.Add(1)
	}
	d := time.Since(start)
	s.gw.ObserveExplainLatency(d)
	return &Explanation{Explanation: inner, PlanCached: cached, RouterPick: r.RouterPick, ServeTime: d}, nil
}

// retrieval returns ex's retrieval of the template's plan pair: the one
// kept on the cache entry while ex built it and the knowledge base is still
// at the version it searched (reused), else a new one, which it keeps.
// Two requests that race to replace a stale one both compose from a
// correct retrieval, and the last one kept wins.
func retrieval(ex *explain.Explainer, entry *gateway.CachedPlan) (r *explain.Retrieval, reused bool, err error) {
	if r = entry.Retrieval.Load(); r != nil && r.Explainer == ex && r.KBVersion == ex.KB.Version() {
		return r, true, nil
	}
	if r, err = ex.Retrieve(&entry.Pair); err != nil {
		return nil, false, err
	}
	entry.Retrieval.Store(r)
	return r, false, nil
}

// WhySlow diagnoses the slower engine's bottlenecks for a SELECT, from
// cached plans and modeled latencies — the query is not executed. It is
// admitted as Explain is.
func (s *Service) WhySlow(sql string) (*explain.SlowReport, error) {
	return admitted(s.gw, func() (*explain.SlowReport, error) { return s.whySlow(sql) })
}

func (s *Service) whySlow(sql string) (*explain.SlowReport, error) {
	start := time.Now()
	_, sm, _, err := s.pairFor(sql)
	if err != nil {
		return nil, err
	}
	m := sm.modeled(s.gw.Calibrator())
	rep, err := s.ex.Load().WhySlow(&m)
	if err != nil {
		return nil, err
	}
	s.served.Add(1)
	s.gw.ObserveExplainLatency(time.Since(start))
	return rep, nil
}

// pairFor is what an explanation of sql is grounded in: the gateway's
// cache entry for its template (planned on a miss) and, as the drift window
// records it, the entry's plan pair and modeled latencies, which
// sample.modeled calibrates. The query is not executed.
func (s *Service) pairFor(sql string) (entry *gateway.CachedPlan, sm sample, cached bool, err error) {
	if kind := sqlparser.StatementKind(sql); kind != "select" {
		return nil, sample{}, false, fmt.Errorf("explainsvc: only SELECT statements can be explained, got %s", kind)
	}
	entry, cached, err = s.gw.PlanPair(sql)
	if err != nil {
		return nil, sample{}, false, err
	}
	return entry, sample{sql: sql, fp: entry.Fingerprint, pair: &entry.Pair, tp: entry.TPTime, ap: entry.APTime}, cached, nil
}

// Stats snapshots the service gauges for the gateway's /metrics.
func (s *Service) Stats() gateway.ExplainStats {
	acc, n := windowAccuracy(s.win.snapshot(), s.gw.Calibrator())
	return gateway.ExplainStats{
		Served:         s.served.Load(),
		KBHits:         s.kbHits.Load(),
		Retrains:       s.retrains.Load(),
		KBEntries:      int64(s.kb.Len()),
		KBExpired:      s.kbExpired.Load(),
		WindowSamples:  int64(n),
		RouterAccuracy: acc,
	}
}

// Close stops the maintenance loop and, when a state directory is
// configured, persists the live router and knowledge base.
func (s *Service) Close() error {
	s.drift.Stop()
	if s.cfg.Dir == "" {
		return nil
	}
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	return saveState(s.cfg.Dir, s.Router(), s.kb)
}
