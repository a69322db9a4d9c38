// Package gateway is the concurrent query-serving front end of the HTAP
// system: the piece that turns the repo's single-query pipeline into a
// service. Incoming SQL is fingerprinted (literals stripped), looked up in
// a sharded LRU plan cache holding both engines' physical plans, routed to
// one engine by a pluggable policy (rule-based, cost-model, or the
// tree-CNN smart router), and executed on the caller's own goroutine
// while it holds a slot of the worker ledger — the one admission
// mechanism: at most Workers slots are out at a time, at most QueueDepth
// callers wait for one, and the next caller is shed immediately rather
// than queued without bound. Per-query metrics (latency
// histogram, cache hit rate, route accuracy against the modeled winner)
// are exported for the HTTP endpoint in cmd/htapserve.
//
// A plan is a template. Cache entries are keyed on the fingerprint; an
// entry carries the template's routing decision and its plans, one per
// engine per target it has served — a shard, or the scatter — each built
// on the first statement that reached that target. A plan executes any
// statement of its template: the statement's literals, paired with the
// template's slots (exec.Params), are bound at execute time, read by the
// evaluators on each call and by the kernels and access paths once at
// Open.
//
//   - hit — the fingerprint matches and the plan for the statement's target
//     exists: it executes with the literals bound, no parsing or planning
//     at all (execution clones the vectorized operator tree per run, so a
//     cached plan runs many times, concurrently);
//   - template hit — a known template's first serve on that target: the
//     cached routing decision is reused (plan shape, and hence the faster
//     engine, is a property of the template) and only the routed engine is
//     planned there, then kept — a hit for every later statement;
//   - miss — an unknown fingerprint: both engines are planned, the policy
//     routes, and the template entry is cached.
//
// A statement whose literals do not pair with the template's slots is
// planned for itself and kept nowhere — input from outside the program:
// a statement's literals always pair with its own slots (sqlparser's
// FuzzFingerprintMatchesParse), but a unary minus folds into a number and
// not into a string, so one fingerprint can number them two ways. A plan
// is kept only when it numbers them as the template does. So is a
// statement whose literals break a tie of the target's plan: where the
// planner matched a select item to a GROUP BY term, or an ORDER BY
// aggregate to a select item, by their text, the plan serves only the
// vectors that spell the matched literals alike (sqlparser.Tie).
//
// The gateway serves a shard.Coordinator, and a single system is the
// one-shard fleet. On a fleet a hit's target comes from its bound
// partition keys (Coordinator.Target), so a plan only ever runs on the
// shard it was planned on. A statement no single shard owns is a plan too
// — the coordinator's PlanScatter builds it, one gather over a fragment
// per shard — kept as the template's scatter plan, AP only, and execute,
// the package's one executor, admits and runs it like any other. Keeping
// it is cheap because an idle pooled operator tree holds no decode
// buffer: scans borrow those from exec's recycler and give them back at
// Close.
package gateway

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"htapxplain/internal/colstore"
	"htapxplain/internal/exec"
	"htapxplain/internal/htap"
	"htapxplain/internal/latency"
	"htapxplain/internal/obs"
	"htapxplain/internal/optimizer"
	"htapxplain/internal/plan"
	"htapxplain/internal/shard"
	"htapxplain/internal/sqlparser"
	"htapxplain/internal/task"
	"htapxplain/internal/value"
)

// ErrOverloaded is returned by Admit (and so Submit) when admission
// control sheds the caller: every slot is held and QueueDepth callers
// already wait.
var ErrOverloaded = errors.New("gateway: overloaded, query shed")

// ErrStopped is returned by Admit (and so Submit) once the gateway has
// been stopped.
var ErrStopped = errors.New("gateway: stopped")

// Config controls gateway construction.
type Config struct {
	// Workers is the worker ledger's size: the serves that run at once
	// plus the extra workers parallel plans are granted (default:
	// GOMAXPROCS).
	Workers int
	// QueueDepth bounds the callers waiting for a slot; one that finds
	// that many already waiting is shed with ErrOverloaded (default: 8×
	// workers).
	QueueDepth int
	// CacheCapacity is the total plan-cache entry budget across shards;
	// 0 disables caching — every query is planned from scratch.
	CacheCapacity int
	// CacheShards is the shard count, rounded up to a power of two
	// (default: 8).
	CacheShards int
	// Policy picks the engine per query (default: CostPolicy).
	Policy RoutingPolicy

	// Tracer samples served queries into span traces (nil = tracing off;
	// the sampled-out and tracer-less paths are allocation-free).
	Tracer *obs.Tracer
	// ObservedEvery enables sampled dual-execution: every Nth served
	// SELECT — miss, hit or template hit — whose template has both engines
	// planned on its shard also executes the non-routed engine's plan with
	// the same literals, and the measured winner is compared against the
	// routing decision — the router_observed_accuracy metric. 0 disables
	// the sampling.
	ObservedEvery int

	// testServeStart, when set, is invoked by every Serve call before its
	// clock starts. It exists so package tests can park a serve while it holds its
	// slot and exercise admission control deterministically on single-CPU
	// runners.
	testServeStart func()
}

// DefaultConfig returns a config sized for the local machine.
func DefaultConfig() Config {
	w := runtime.GOMAXPROCS(0)
	return Config{
		Workers:       w,
		QueueDepth:    8 * w,
		CacheCapacity: 1024,
		CacheShards:   8,
		Policy:        CostPolicy{},
	}
}

// CacheOutcome classifies how the plan cache served one query.
type CacheOutcome int

const (
	// CacheMiss means the fingerprint was unknown: both engines were
	// planned and the entry was cached.
	CacheMiss CacheOutcome = iota
	// CacheTemplateHit means the template was known but had no plan for
	// the statement's target: the routing decision was reused and only the
	// routed engine was planned there — for a scatter, its PlanScatter
	// plan — and kept. A statement whose literals do not pair with the
	// template's slots, or break a tie of the target's plan, is one too,
	// planned for itself and kept nowhere.
	CacheTemplateHit
	// CacheHit means the template's plan for the statement's target
	// executed with the statement's literals bound, without any parsing or
	// planning beyond the fingerprint itself.
	CacheHit
)

func (o CacheOutcome) String() string {
	switch o {
	case CacheHit:
		return "hit"
	case CacheTemplateHit:
		return "template-hit"
	default:
		return "miss"
	}
}

// Response is the outcome of serving one query.
type Response struct {
	SQL string
	// Kind is "select" for reads and "insert"/"update"/"delete" for DML
	// served by the write path.
	Kind   string
	Engine plan.Engine
	Rows   []value.Row
	Stats  exec.Stats
	Cache  CacheOutcome
	// RowsAffected and LSN are set for DML: the write's row count and its
	// commit LSN (AP reads see the write once the replication watermark
	// reaches the LSN).
	RowsAffected int
	LSN          uint64
	// TPTime/APTime are the template's modeled latencies at deployment
	// scale; 0 for a scatter and for DML.
	TPTime, APTime time.Duration
	// ServeTime is the wall time spent serving (fingerprint → rows),
	// excluding the wait for admission.
	ServeTime time.Duration
	// QueueWait is the time the query waited to be admitted.
	QueueWait time.Duration
	// ExecTime is the wall time of plan execution alone (inside ServeTime).
	ExecTime time.Duration
	// Explain carries the rendered plan for EXPLAIN [ANALYZE] statements
	// (kind "explain" / "explain_analyze"); Profile additionally carries
	// the measured per-operator tree for EXPLAIN ANALYZE.
	Explain string
	Profile *exec.OpStats
	Err     error
}

// Gateway serves queries against a fleet of hash-partitioned shards
// behind a shard.Coordinator. A single htap.System is the one-shard fleet
// (see New): every statement kind has one handler whatever the fleet size.
// DML and transactions go through the coordinator's key routing; a SELECT
// is planned, cached and executed on the one shard that owns it when its
// partition keys pin it there, and scatter-gathers otherwise.
type Gateway struct {
	coord   *shard.Coordinator
	cfg     Config
	cache   *PlanCache
	metrics Metrics
	cal     *latency.Calibrator
	dualN   atomic.Int64 // dual-execution sampling counter
	// explainStats, when registered, supplies the explanation service's
	// counters for the metric surfaces (see SetExplainStats).
	explainStats atomic.Pointer[func() ExplainStats]
	slots        *workerSem
}

// workerSem is the admission ledger, and the only admission mechanism: a
// counting semaphore of Workers slots. A caller holds one slot for the
// request it serves on its own goroutine; a query whose plan asks for
// intra-query parallelism tries to acquire its extra workers from the same
// ledger, so a DOP-4 query admits 4 workers, not 1 — while parallel
// queries hold slots, callers wait for theirs, and once maxWaiters of them
// do, admission control sheds honestly instead of oversubscribing the
// machine.
type workerSem struct {
	mu         sync.Mutex
	cond       *sync.Cond
	size, free int
	// waiters counts callers blocked in acquire, at most maxWaiters.
	waiters, maxWaiters int
	closed              bool
}

func newWorkerSem(size, maxWaiters int) *workerSem {
	s := &workerSem{size: size, free: size, maxWaiters: maxWaiters}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// acquire takes one slot, waiting for one when none is free. It returns
// ErrOverloaded without waiting when maxWaiters callers already wait, and
// ErrStopped once the ledger is closed. A caller that finds a slot free
// takes it at once; callers that wait are woken oldest first.
func (s *workerSem) acquire() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.free < 1 && !s.closed {
		if s.waiters >= s.maxWaiters {
			return ErrOverloaded
		}
		s.waiters++
		for s.free < 1 && !s.closed {
			s.cond.Wait()
		}
		s.waiters--
	}
	if s.closed {
		return ErrStopped
	}
	s.free--
	return nil
}

// tryAcquire takes up to n slots without blocking and returns how many it
// got — the degraded-DOP path: a parallel plan runs with whatever workers
// the ledger can spare right now, down to serial.
func (s *workerSem) tryAcquire(n int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.free < 1 || n < 1 {
		return 0
	}
	got := min(n, s.free)
	s.free -= got
	return got
}

// release returns n slots and wakes one waiter per slot, not all of them:
// up to maxWaiters callers can be waiting, and each freed slot admits
// exactly one. Once closed, the only waiters left are close calls.
func (s *workerSem) release(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.free += n
	if s.closed {
		s.cond.Broadcast()
		return
	}
	for ; n > 0; n-- {
		s.cond.Signal()
	}
}

// close fails every waiting and later acquire with ErrStopped, then blocks
// until every slot held at the time is back.
func (s *workerSem) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.cond.Broadcast()
	for s.free < s.size {
		s.cond.Wait()
	}
}

// New builds a gateway over one system — the one-shard fleet. Callers
// must Stop it.
func New(sys *htap.System, cfg Config) *Gateway {
	return NewSharded(shard.Wrap(sys), cfg)
}

// NewSharded builds a gateway fronting a shard coordinator. It starts no
// goroutine: requests are served on their callers'. Callers must Stop it.
// A scatter SELECT admits the sum of its fragments' DOPs against the same
// worker ledger a pinned parallel query uses.
func NewSharded(coord *shard.Coordinator, cfg Config) *Gateway {
	def := DefaultConfig()
	if cfg.Workers <= 0 {
		cfg.Workers = def.Workers
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 8 * cfg.Workers
	}
	if cfg.CacheShards <= 0 {
		cfg.CacheShards = def.CacheShards
	}
	if cfg.Policy == nil {
		cfg.Policy = def.Policy
	}
	return &Gateway{
		coord: coord,
		cfg:   cfg,
		cache: NewPlanCache(cfg.CacheShards, cfg.CacheCapacity),
		cal:   &latency.Calibrator{},
		slots: newWorkerSem(cfg.Workers, cfg.QueueDepth),
	}
}

// Stop closes the worker ledger and waits until every slot is back, that
// is for the admitted requests to finish. Callers still waiting for a
// slot, and every later one, get ErrStopped. Idempotent — a signal handler
// and a deferred Stop may both call it.
func (g *Gateway) Stop() { g.slots.close() }

// Admit takes the calling goroutine's slot in the worker ledger, the
// admission control every route shares: it waits while all Workers slots
// are held, returns ErrOverloaded (counted as shed) when QueueDepth
// callers already wait, and ErrStopped once the gateway is stopped. A
// caller that gets nil runs its work on its own goroutine and must
// Release, deferred, so that a panic returns the slot too. Submit admits
// queries; the explanation service admits /explain and /whyslow serves so
// explanation load competes honestly with query load for the slots.
func (g *Gateway) Admit() error {
	err := g.slots.acquire()
	if err == ErrOverloaded {
		g.metrics.shed.Add(1)
	}
	return err
}

// Release returns the slot Admit took.
func (g *Gateway) Release() { g.slots.release(1) }

// Submit admits the query and serves it on the calling goroutine. It
// returns ErrOverloaded immediately when admission control sheds the
// query, and ErrStopped if the gateway stops first. Errors from serving
// the query itself (parse, plan, execution — a panic included, as a
// *task.PanicError) are reported in Response.Err.
func (g *Gateway) Submit(sql string) (*Response, error) {
	arrived := time.Now()
	if err := g.Admit(); err != nil {
		return nil, err
	}
	defer g.Release()
	return g.serve(sql, arrived), nil
}

// PlanPair returns the plan-cache entry for a SELECT — the fingerprinted
// plan pair with both engines' modeled times — planning and caching it on
// a miss. This is the explanation service's reuse of the serving path's
// plans: explaining a query that has been served before costs no parsing
// or planning at all, and a cold explain warms the cache for the serving
// path. The returned entry is shared with concurrent serving; Pair,
// TPTime, APTime and Route are immutable after publication.
//
// The pair is planned and published as a served miss would be (see
// planMiss), scatter statements included.
func (g *Gateway) PlanPair(sql string) (entry *CachedPlan, cached bool, err error) {
	fp, _, err := sqlparser.Fingerprint(sql)
	if err != nil {
		return nil, false, fmt.Errorf("gateway: fingerprint: %w", err)
	}
	if e, ok := g.cache.Get(fp); ok {
		return e, true, nil
	}
	target, dec, err := g.coord.Route(sql)
	if err != nil {
		return nil, false, fmt.Errorf("gateway: route: %w", err)
	}
	e, err := g.planMiss(target, dec, sql, fp, nil)
	return e, false, err
}

// route asks the policy which engine serves the entry's template.
func (g *Gateway) route(e *CachedPlan) plan.Engine {
	return g.cfg.Policy.Route(RouteInput{
		Stmt:   e.stmt,
		Pair:   &e.Pair,
		TPTime: e.TPTime,
		APTime: e.APTime,
	})
}

// InvalidatePlans empties the plan cache. Callers must invalidate after
// DDL (index changes): cached pairs, modeled times and routes were
// planned against the old physical schema.
func (g *Gateway) InvalidatePlans() { g.cache.Clear() }

// ExplainStats is the explanation service's exported gauge set. The
// service registers a provider with SetExplainStats so the JSON and
// Prometheus metric surfaces carry the explain-path metrics without the
// gateway importing the service package.
type ExplainStats struct {
	// Served counts explanations generated; KBHits counts those grounded
	// in at least one retrieved knowledge-base entry.
	Served int64
	KBHits int64
	// Retrains counts drift-triggered router retrain-swaps; KBEntries and
	// KBExpired gauge the knowledge base's live size and lifetime expiry.
	Retrains  int64
	KBEntries int64
	KBExpired int64
	// RouterAccuracy is the live router's pick vs the calibrated modeled
	// winner over the sliding drift window of WindowSamples serves.
	WindowSamples  int64
	RouterAccuracy float64
}

// SetExplainStats registers the explanation service's stats provider.
func (g *Gateway) SetExplainStats(fn func() ExplainStats) {
	if fn != nil {
		g.explainStats.Store(&fn)
	}
}

// ObserveExplainLatency folds one explanation serve duration into the
// "explain" route-class latency histogram.
func (g *Gateway) ObserveExplainLatency(d time.Duration) {
	g.metrics.observeLatency("explain", d)
}

// Metrics returns a point-in-time snapshot of the serving counters plus
// the fleet's storage gauges: the TP→AP freshness gauge (commit LSN vs
// replication watermark), the background mergers' work counters,
// the column stores' footprint and the durability subsystem's
// wal_*/checkpoint_* gauges. Every storage gauge is the sum over the
// shards — so a one-shard fleet reports exactly its system's numbers —
// except wal_max_group_commit and checkpoint_last_ms, which are the
// fleet's maximum.
func (g *Gateway) Metrics() Snapshot {
	s := g.metrics.Snapshot()
	var mem colstore.MemStats
	for i := 0; i < g.coord.NumShards(); i++ {
		sys := g.coord.Shard(i)
		ms := sys.Col.MergeStats()
		s.Merges += ms.Merges
		s.RowsMerged += ms.RowsMerged
		cs := sys.Col.MemStats()
		mem.ResidentBytes += cs.ResidentBytes
		mem.RawBytes += cs.RawBytes
		for e, n := range cs.ChunksByEnc {
			mem.ChunksByEnc[e] += n
		}
		ds := sys.DurabilityStats()
		if !ds.Enabled {
			continue
		}
		s.DurabilityOn = true
		s.WALAppends += ds.WAL.Appends
		s.WALBytes += ds.WAL.AppendedBytes
		s.WALSyncs += ds.WAL.Syncs
		s.WALMaxGroup = max(s.WALMaxGroup, ds.WAL.MaxGroupCommit)
		s.WALSegments += ds.WAL.Segments
		s.WALDurableLSN += ds.WAL.DurableLSN
		s.Checkpoints += ds.Ckpt.Checkpoints
		s.CheckpointLSN += ds.Ckpt.LastLSN
		s.CheckpointMS = max(s.CheckpointMS, ds.Ckpt.LastDurationMS)
		s.CheckpointFree += ds.Ckpt.SegmentsFreed
	}
	s.ColstoreResidentBytes = mem.ResidentBytes
	s.ColstoreRawBytes = mem.RawBytes
	s.ColstoreCompression = mem.CompressionRatio()
	s.ColstoreChunks = make(map[string]int64, len(mem.ChunksByEnc))
	for e, n := range mem.ChunksByEnc {
		s.ColstoreChunks[colstore.Encoding(e).String()] = n
	}
	s.LatencyScaleTP = g.cal.Scale(plan.TP)
	s.LatencyScaleAP = g.cal.Scale(plan.AP)
	if fnp := g.explainStats.Load(); fnp != nil {
		es := (*fnp)()
		s.ExplainServed = es.Served
		s.ExplainKBHits = es.KBHits
		s.RouterRetrains = es.Retrains
		s.RouterAccuracy = es.RouterAccuracy
		s.RouterWindowSamples = es.WindowSamples
		s.KBEntries = es.KBEntries
		s.KBExpired = es.KBExpired
	}
	s.TracesSampled = g.cfg.Tracer.Sampled()
	cs := g.coord.Stats()
	s.Shards = cs.Shards
	s.ShardRouted = cs.RoutedQueries
	s.ShardScatter = cs.ScatterQueries
	s.ShardScatterFan = cs.ScatterFanout
	s.ShardExchBatches = cs.ExchangeBatches
	s.ShardExchRows = cs.ExchangeRows
	s.ShardCrossTxns = cs.CrossShardTxns
	s.ShardCoordLSN = cs.CoordLSN
	s.CommitLSN = g.coord.CommitLSN()
	s.Watermark = g.coord.Watermark()
	s.StalenessLSNs = g.coord.Staleness()
	ts := g.coord.TxnStats()
	s.TxnBegun = ts.Begun
	s.TxnCommits = ts.Committed
	s.TxnAborts = ts.Aborted
	s.TxnConflicts = ts.Conflicted
	return s
}

// CacheLen returns the number of cached plan templates.
func (g *Gateway) CacheLen() int { return g.cache.Len() }

// Tracer returns the gateway's query tracer (nil when tracing is off).
func (g *Gateway) Tracer() *obs.Tracer { return g.cfg.Tracer }

// Calibrator returns the latency calibrator fed by observed executions.
func (g *Gateway) Calibrator() *latency.Calibrator { return g.cal }

// Serve runs the full serving pipeline synchronously, bypassing admission
// control: it holds no slot of the worker ledger. It is safe to call
// concurrently and is what Submit runs once admitted; benchmarks call it
// directly to measure the pipeline without admission overhead.
func (g *Gateway) Serve(sql string) *Response {
	return g.serve(sql, time.Time{})
}

// serve wraps process with timing, metrics, and the trace lifecycle; a
// non-zero arrived is when the caller asked to be admitted. A sampled-out
// query carries a nil trace, making every span site a single branch — the
// hot path allocates nothing for observability.
func (g *Gateway) serve(sql string, arrived time.Time) *Response {
	g.metrics.inFlight.Add(1)
	defer g.metrics.inFlight.Add(-1)
	tr := g.cfg.Tracer.Start(sql, "")
	var wait time.Duration
	if !arrived.IsZero() {
		wait = time.Since(arrived)
		tr.AddSpan("queue_wait", arrived, wait)
	}
	if g.cfg.testServeStart != nil {
		g.cfg.testServeStart()
	}
	start := time.Now()
	var resp *Response
	// a panic on this goroutine is this request's error reply, like one on
	// a worker it forked; the slot and in_flight come back through the
	// callers' defers either way
	kind, body := classify(sql)
	if err := task.Do(func() error { resp = g.process(sql, kind, body, tr); return nil }); err != nil {
		resp = &Response{SQL: sql, Kind: kind, Err: err}
	}
	resp.ServeTime = time.Since(start)
	resp.QueueWait = wait
	g.metrics.total.Add(1)
	if resp.Err != nil {
		g.metrics.errs.Add(1)
	} else {
		g.metrics.observeLatency(routeOf(resp), resp.ServeTime)
	}
	if tr != nil {
		tr.SetKind(resp.Kind)
		switch resp.Kind {
		case "select":
			tr.Annotate(resp.Engine.String(), resp.Cache.String())
			tr.AttachStats(resp.Stats)
		case "explain", "explain_analyze":
			tr.Annotate(resp.Engine.String(), "")
		}
		var pe *task.PanicError
		if errors.As(resp.Err, &pe) {
			tr.Stack = string(pe.Stack)
		}
		g.cfg.Tracer.Finish(tr, resp.Err)
		g.metrics.observeStages(tr)
	}
	return resp
}

// classify reads a request's first tokens for the kind its reply starts
// with: explain or explain_analyze with the statement after the prefix, a
// write's own kind, txn for a block keyword, and select for anything else.
// DML bypasses the read-only plan cache and goes straight to the write
// path.
func classify(sql string) (kind, body string) {
	body, explain, analyze := sqlparser.StripExplain(sql)
	switch {
	case analyze:
		return "explain_analyze", body
	case explain:
		return "explain", body
	}
	switch kind := sqlparser.StatementKind(sql); kind {
	case "insert", "update", "delete":
		return kind, sql
	case "begin", "commit", "rollback":
		return "txn", sql
	}
	return "select", sql
}

// process serves a request classify has read.
func (g *Gateway) process(sql, kind, body string, tr *obs.QueryTrace) *Response {
	switch kind {
	case "explain", "explain_analyze":
		return g.processExplain(sql, body, kind == "explain_analyze", tr)
	case "insert", "update", "delete":
		return g.processDML(sql, kind, tr)
	case "txn":
		return g.processTxn(sql, tr)
	}
	resp := &Response{SQL: sql, Kind: "select"}
	sp := tr.Begin("fingerprint")
	fp, params, err := sqlparser.Fingerprint(sql)
	sp.End()
	if err != nil {
		resp.Err = fmt.Errorf("gateway: fingerprint: %w", err)
		return resp
	}
	sp = tr.Begin("cache_lookup")
	entry, found := g.cache.Get(fp)
	sp.End()
	if !found {
		g.serveMiss(resp, sql, fp, tr)
		return resp
	}
	// a known template: its plans execute the statement with its literals
	// bound, and the bound partition keys route it with no parse
	ctx := exec.NewContext()
	bound := ctx.Bind(entry.stmt.Slots, params)
	vec := ctx.Params // the statement's literals, kept for the observed loop
	var target int
	if bound {
		target = g.coord.Target(entry.dist, ctx.Params)
	} else {
		// planned for this statement alone, below
		sp = tr.Begin("route")
		target, _, err = g.coord.Route(sql)
		sp.End()
		if err != nil {
			resp.Err = fmt.Errorf("gateway: route: %w", err)
			return resp
		}
	}
	eng := entry.Route
	if target < 0 {
		eng = plan.AP // a scatter runs on AP whatever the route
	}
	phys := entry.planFor(target, eng)
	if bound && phys != nil && ctx.Params.Holds(phys.Ties) {
		resp.Cache = CacheHit
		g.metrics.hits.Add(1)
	} else {
		// the target's first statement, or one whose literals break the
		// kept plan's ties, is planned for itself and runs its own literals
		resp.Cache = CacheTemplateHit
		g.metrics.tmplHit.Add(1)
		planned, err := g.planTarget(target, sql, eng, tr)
		if err != nil {
			resp.Err = err
			return resp
		}
		// the plan is kept for the target only if it numbers its literals
		// as the template does (a unary minus folds into a number but not
		// into a string)
		if bound && phys == nil && slices.Equal(planned.Slots, entry.stmt.Slots) {
			entry.keep(target, eng, planned)
		}
		phys, ctx.Params = planned, nil
	}
	g.run(resp, entry, target, phys, eng, ctx, tr)
	if bound {
		g.maybeObserveDual(resp, entry, target, vec)
	}
	return resp
}

// serveMiss plans a statement of an unknown template: both engines on the
// shard that owns it and the policy's route (planMiss), then — for a
// statement no shard owns — the template's scatter plan.
func (g *Gateway) serveMiss(resp *Response, sql, fp string, tr *obs.QueryTrace) {
	resp.Cache = CacheMiss
	g.metrics.misses.Add(1)
	sp := tr.Begin("route")
	target, dec, err := g.coord.Route(sql)
	sp.End()
	if err != nil {
		resp.Err = fmt.Errorf("gateway: route: %w", err)
		return
	}
	entry, err := g.planMiss(target, dec, sql, fp, tr)
	if err != nil {
		resp.Err = err
		return
	}
	if target >= 0 {
		g.run(resp, entry, target, entry.planFor(target, entry.Route), entry.Route, exec.NewContext(), tr)
		g.maybeObserveDual(resp, entry, target, nil)
		return
	}
	phys, err := g.planScatter(sql, dec, tr)
	if err != nil {
		resp.Err = err
		return
	}
	entry.keep(target, plan.AP, phys)
	g.run(resp, entry, target, phys, plan.AP, exec.NewContext(), tr)
}

// run executes the template's plan phys for eng on target in ctx,
// reporting the template's modeled times — a scatter has none.
func (g *Gateway) run(resp *Response, entry *CachedPlan, target int, phys *optimizer.PhysPlan, eng plan.Engine, ctx *exec.Context, tr *obs.QueryTrace) {
	if target >= 0 {
		resp.TPTime, resp.APTime = entry.TPTime, entry.APTime
	}
	g.recordRoute(eng, resp.TPTime, resp.APTime)
	g.execute(resp, target, phys, eng, ctx, tr)
}

// processExplain serves `EXPLAIN [ANALYZE] <select>`, routed like the bare
// statement. A statement one shard owns is planned there on both engines
// and the policy routes as it would for the bare statement; a scatter
// statement is planned by PlanScatter, whose EXPLAIN tree is shard 0's
// fragment under a gather naming the shard count. The plan is either
// rendered (EXPLAIN) or executed with per-operator instrumentation and
// full DOP admission (EXPLAIN ANALYZE). The plan cache is bypassed — an
// explain is a diagnostic, not workload.
func (g *Gateway) processExplain(orig, body string, analyze bool, tr *obs.QueryTrace) *Response {
	resp := &Response{SQL: orig, Kind: "explain", Cache: CacheMiss}
	if analyze {
		resp.Kind = "explain_analyze"
	}
	if sqlparser.StatementKind(body) != "select" {
		resp.Err = fmt.Errorf("gateway: EXPLAIN supports SELECT only")
		return resp
	}
	sp := tr.Begin("route")
	target, dec, err := g.coord.Route(body)
	sp.End()
	if err != nil {
		resp.Err = fmt.Errorf("gateway: route: %w", err)
		return resp
	}
	var phys *optimizer.PhysPlan
	if target < 0 {
		if phys, err = g.planScatter(body, dec, tr); err != nil {
			resp.Err = err
			return resp
		}
		resp.Engine = plan.AP
	} else {
		entry, err := g.planMiss(target, nil, body, "", tr)
		if err != nil {
			resp.Err = err
			return resp
		}
		resp.Engine = entry.Route
		resp.TPTime, resp.APTime = entry.TPTime, entry.APTime
		phys = entry.planFor(target, entry.Route)
	}
	if !analyze {
		resp.Explain = phys.Explain.ExplainIndentJSON()
		return resp
	}
	g.execute(resp, target, phys, resp.Engine, exec.NewContext(), tr)
	if resp.Err == nil {
		resp.Explain = resp.Profile.String()
	}
	return resp
}

// maybeObserveDual closes the paper's loop on a sampled served SELECT of
// any cache tier: the template's plan for the non-routed engine on target
// is executed too, with the statement's literals bound (params; nil runs
// the plan's own, which a miss planned from this statement) — a second
// execute on this serve's slot, which also hands the calibrator that
// engine's (observed, modeled) pair — and the measured winner is compared
// against the routing decision. A scatter, and a target the other engine
// was never planned on, have nothing to compare. Deterministic every-Nth
// sampling keeps the overhead proportional and predictable.
func (g *Gateway) maybeObserveDual(resp *Response, entry *CachedPlan, target int, params *exec.Params) {
	every := g.cfg.ObservedEvery
	if every <= 0 || resp.Err != nil || target < 0 {
		return
	}
	other := plan.AP
	if entry.Route == plan.AP {
		other = plan.TP
	}
	phys := entry.planFor(target, other)
	if phys == nil || !params.Holds(phys.Ties) {
		return
	}
	if g.dualN.Add(1)%int64(every) != 0 {
		return
	}
	dual := &Response{Kind: resp.Kind, TPTime: resp.TPTime, APTime: resp.APTime}
	ctx := exec.NewContext()
	ctx.Params = params
	g.execute(dual, target, phys, other, ctx, nil)
	if dual.Err != nil {
		return
	}
	g.metrics.observedKnown.Add(1)
	if resp.ExecTime <= dual.ExecTime {
		g.metrics.observedCorrect.Add(1)
	}
}

// processDML serves one write through the coordinator's key routing:
// inserts split their tuples by hashed partition key, updates and deletes
// pin to one shard when the WHERE clause fixes the key, and a statement
// that lands on several shards commits through the two-phase publish. On
// each participant the statement commits on the row-store primary and is
// queued for delta replication; the response reports the commit LSN so
// callers can reason about AP visibility.
func (g *Gateway) processDML(sql, kind string, tr *obs.QueryTrace) *Response {
	resp := &Response{SQL: sql, Kind: kind}
	res, err := g.coord.ExecDMLTraced(sql, tr)
	if err != nil {
		resp.Err = fmt.Errorf("gateway: write: %w", err)
		return resp
	}
	resp.Kind = res.Kind
	resp.RowsAffected = res.RowsAffected
	resp.LSN = res.LSN
	g.metrics.observeWrite(res.Kind, res.RowsAffected)
	return resp
}

// processTxn serves a BEGIN ... COMMIT/ROLLBACK block (a stray COMMIT or
// ROLLBACK reaches the parser, which rejects it with a dedicated error):
// the statements buffer in one snapshot-isolated transaction and publish
// atomically through the multi-writer commit pipeline — the single-shard
// fast path when every statement lands on one shard, the coordinator's
// two-phase publish otherwise. Response.Kind reports the outcome —
// "commit" (with the commit LSN and total rows affected), "rollback"
// (explicit, or forced by a failed statement), or "conflict" when the
// transaction lost a first-writer-wins race and the client should retry
// the whole block on a fresh snapshot.
func (g *Gateway) processTxn(sql string, tr *obs.QueryTrace) *Response {
	resp := &Response{SQL: sql, Kind: "txn"}
	sp := tr.Begin("parse")
	script, err := sqlparser.ParseScript(sql)
	sp.End()
	if err != nil {
		resp.Err = fmt.Errorf("gateway: txn: %w", err)
		return resp
	}
	tx := g.coord.Begin()
	results := make([]*htap.DMLResult, 0, len(script.Stmts))
	for _, stmt := range script.Stmts {
		res, err := tx.ExecStmt(stmt)
		if err != nil {
			tx.Rollback()
			resp.Kind = "rollback"
			resp.Err = fmt.Errorf("gateway: txn: %w", err)
			return resp
		}
		results = append(results, res)
	}
	if !script.Commit {
		tx.Rollback()
		resp.Kind = "rollback"
		return resp
	}
	txr, err := tx.CommitTraced(tr)
	if err != nil {
		if errors.Is(err, htap.ErrConflict) {
			resp.Kind = "conflict"
		}
		resp.Err = fmt.Errorf("gateway: txn: %w", err)
		return resp
	}
	resp.Kind = "commit"
	resp.RowsAffected = txr.RowsAffected
	resp.LSN = txr.LSN
	for _, r := range results {
		g.metrics.observeWrite(r.Kind, r.RowsAffected)
	}
	return resp
}

// recordRoute updates routing metrics. Ground truth is the template's
// modeled winner; a scatter has no modeled times and counts toward routed
// totals only.
func (g *Gateway) recordRoute(route plan.Engine, tpTime, apTime time.Duration) {
	if route == plan.TP {
		g.metrics.routedTP.Add(1)
	} else {
		g.metrics.routedAP.Add(1)
	}
	if tpTime == 0 || apTime == 0 {
		return
	}
	g.metrics.routeKnown.Add(1)
	if route == plan.NewModeled(plan.Pair{}, tpTime, apTime).Winner {
		g.metrics.routeCorrect.Add(1)
	}
}

// execute is the one executor: it runs, in a fresh ctx — bound to a
// statement's literals or not — a plan built on shard owner (its operators
// read that shard's storage) or, for owner < 0, a PlanScatter plan over
// every shard, instrumented when resp is an EXPLAIN ANALYZE.
func (g *Gateway) execute(resp *Response, owner int, phys *optimizer.PhysPlan, eng plan.Engine, ctx *exec.Context, tr *obs.QueryTrace) {
	resp.Engine = eng
	// DOP-aware admission: a plan that wants intra-query parallelism — a
	// scatter asks for the sum of its fragments' — claims its extra
	// workers from the same ledger every serve's slot is charged against,
	// never more than the ledger can spare, degrading to serial under load
	// so shedding stays honest.
	if phys.DOP > 1 {
		extra := g.slots.tryAcquire(phys.DOP - 1)
		if extra > 0 {
			defer g.slots.release(extra)
		}
		ctx.DOP = 1 + extra
	}
	// Execute draws a private operator-tree clone from the plan's runner
	// pool, so a cached plan can run on many workers concurrently through
	// the batch pipeline while reusing execution buffers across queries;
	// with DOP > 1 the clone forks per-worker pipeline state at Open.
	sp := tr.Begin("execute")
	start := time.Now()
	var rows []value.Row
	var err error
	if resp.Kind == "explain_analyze" {
		rows, resp.Profile, err = phys.ExecuteAnalyzed(ctx)
	} else {
		rows, err = phys.Execute(ctx)
	}
	resp.ExecTime = time.Since(start)
	sp.End()
	if err != nil {
		resp.Err = fmt.Errorf("gateway: %v execution: %w", eng, err)
		return
	}
	resp.Rows = rows
	resp.Stats = ctx.Stats
	if owner < 0 {
		g.coord.NoteScatter(&ctx.Stats)
	} else {
		g.coord.NoteRouted(owner)
	}
	if ctx.Stats.ParallelWorkers > 0 {
		g.metrics.parallelQueries.Add(1)
	}
	g.metrics.observeExec(eng, &ctx.Stats)
	// feed the latency calibrator the template's modeled time for this
	// engine (a scatter has none)
	modeled := resp.TPTime
	if eng == plan.AP {
		modeled = resp.APTime
	}
	g.cal.Observe(eng, resp.ExecTime.Nanoseconds(), modeled.Nanoseconds())
}

// planScatter plans a statement no shard owns: one plan over every shard,
// served by the AP engine.
func (g *Gateway) planScatter(sql string, dec *optimizer.DistDecision, tr *obs.QueryTrace) (*optimizer.PhysPlan, error) {
	sp := tr.Begin("plan")
	phys, err := g.coord.PlanScatter(sql, dec)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("gateway: scatter: %w", err)
	}
	return phys, nil
}

// planTarget plans a known template's statement on target, the engine
// routed — all the planning a template hit needs. A scatter is re-analysed
// from sql, since the template's decision holds its first statement's
// literals.
func (g *Gateway) planTarget(target int, sql string, eng plan.Engine, tr *obs.QueryTrace) (*optimizer.PhysPlan, error) {
	if target < 0 {
		return g.planScatter(sql, nil, tr)
	}
	sp := tr.Begin("plan")
	_, phys, err := g.planOne(target, sql, nil, eng)
	sp.End()
	return phys, err
}

// planOne plans the query on the given engine of the owning shard, from
// sel, or from a fresh parse of sql when sel is nil. It returns the
// statement it planned: a bound statement is read-only, so the other
// engine can plan it too.
func (g *Gateway) planOne(owner int, sql string, sel *sqlparser.Select, eng plan.Engine) (*sqlparser.Select, *optimizer.PhysPlan, error) {
	if sel == nil {
		var err error
		if sel, err = sqlparser.Parse(sql); err != nil {
			return nil, nil, fmt.Errorf("gateway: parse: %w", err)
		}
	}
	planner := g.coord.Shard(owner).Planner
	planEngine := planner.PlanAP
	if eng == plan.TP {
		planEngine = planner.PlanTP
	}
	phys, err := planEngine(sel)
	if err != nil {
		return nil, nil, fmt.Errorf("gateway: %v planning: %w", eng, err)
	}
	return sel, phys, nil
}

// planMiss is the one miss path, shared by a served miss, PlanPair and
// EXPLAIN: it plans the query on both engines of the shard that owns it,
// from one parse, asks the policy for the template's route and, given a
// fingerprint, publishes the template with both plans kept for that shard
// and the fleet's routing analysis dec. A statement no shard owns (target
// < 0) is planned on shard 0 — plan shape is the same on every shard — and
// its plans are kept as shard 0's: the template's statements that shard 0
// owns run them. With no fingerprint nothing is published.
func (g *Gateway) planMiss(target int, dec *optimizer.DistDecision, sql, fp string, tr *obs.QueryTrace) (*CachedPlan, error) {
	owner := max(target, 0)
	sp := tr.Begin("plan")
	sel, tpPlan, err := g.planOne(owner, sql, nil, plan.TP)
	var apPlan *optimizer.PhysPlan
	if err == nil {
		_, apPlan, err = g.planOne(owner, sql, sel, plan.AP)
	}
	if err != nil {
		sp.End()
		return nil, err
	}
	entry := &CachedPlan{
		Fingerprint: fp,
		Pair:        plan.Pair{SQL: sql, TP: tpPlan.Explain, AP: apPlan.Explain},
		TPTime:      latency.Estimate(tpPlan.Explain),
		APTime:      latency.Estimate(apPlan.Explain),
		stmt:        sel,
		dist:        dec,
		plans:       map[int][2]*optimizer.PhysPlan{owner: {plan.TP: tpPlan, plan.AP: apPlan}},
	}
	sp.End()
	sp = tr.Begin("route")
	entry.Route = g.route(entry)
	sp.End()
	if fp != "" {
		g.cache.Put(entry)
	}
	return entry, nil
}
