package gateway

import (
	"sync/atomic"
	"time"

	"htapxplain/internal/exec"
	"htapxplain/internal/obs"
	"htapxplain/internal/plan"
	"htapxplain/internal/shard"
	"htapxplain/internal/task"
)

// Serving stages with their own latency histogram, fed from sampled query
// traces (see Metrics.observeStages). The list is fixed so the histograms
// are flat atomic arrays with no registry locking.
var stageNames = [...]string{
	"queue_wait", "parse", "fingerprint", "cache_lookup", "plan", "route",
	"execute", "apply", "wal_append", "wal_fsync_wait",
}

func stageIndex(name string) int {
	for i, s := range stageNames {
		if s == name {
			return i
		}
	}
	return -1
}

// Metrics is the gateway's lock-free counter set. All fields are updated
// with atomics from every worker; Snapshot reads them without stopping the
// world, so a snapshot is consistent only per-counter (fine for
// monitoring).
type Metrics struct {
	total    atomic.Int64 // queries admitted
	shed     atomic.Int64 // queries rejected by admission control
	errs     atomic.Int64 // queries that failed (parse/plan/exec)
	inFlight atomic.Int64 // queries currently being served by workers
	hits     atomic.Int64 // full plan-cache hits (plans re-executed)
	tmplHit  atomic.Int64 // template hits (route reused, one engine planned on a new target)
	misses   atomic.Int64 // cold queries (planned both engines)

	routedTP     atomic.Int64
	routedAP     atomic.Int64
	routeKnown   atomic.Int64 // routes with modeled ground truth available
	routeCorrect atomic.Int64 // ... that matched the modeled winner

	// Observed routing accuracy: sampled dual-executions where the routed
	// engine was (or was not) the measured-faster one — the paper's loop
	// closed against real execution rather than the model.
	observedKnown   atomic.Int64
	observedCorrect atomic.Int64

	writesInsert atomic.Int64 // committed INSERT statements
	writesUpdate atomic.Int64 // committed UPDATE statements
	writesDelete atomic.Int64 // committed DELETE statements
	rowsWritten  atomic.Int64 // rows affected across all committed DML

	parallelQueries atomic.Int64 // queries that actually forked morsel workers

	execTP execCounters // physical work done by queries routed to TP
	execAP execCounters // ... and to AP

	// Serve-latency histograms: one overall, one per route class. The
	// per-stage histograms are only fed from sampled traces, so their
	// counts are a sample of the per-route ones.
	latAll     obs.Histogram
	latTP      obs.Histogram
	latAP      obs.Histogram
	latDML     obs.Histogram
	latExplain obs.Histogram
	stages     [len(stageNames)]obs.Histogram
}

// routeHist returns the serve-latency histogram of a route class
// ("tp", "ap", "explain" or "dml").
func (m *Metrics) routeHist(route string) *obs.Histogram {
	switch route {
	case "tp":
		return &m.latTP
	case "ap":
		return &m.latAP
	case "explain":
		return &m.latExplain
	default:
		return &m.latDML
	}
}

// routeOf classifies a served response into its route class. Explains
// follow the engine the policy routed them to.
func routeOf(resp *Response) string {
	switch resp.Kind {
	case "select", "explain", "explain_analyze":
		if resp.Engine == plan.TP {
			return "tp"
		}
		return "ap"
	}
	return "dml"
}

// execCounters aggregates the batch pipeline's work counters per route.
type execCounters struct {
	rowsScanned       atomic.Int64
	chunksSkipped     atomic.Int64
	chunksScanned     atomic.Int64
	batchesProduced   atomic.Int64
	morselsDispatched atomic.Int64
	parallelWorkers   atomic.Int64
	encodedChunks     atomic.Int64
	decodedChunks     atomic.Int64
}

// observeWrite folds one committed DML statement into the write counters.
func (m *Metrics) observeWrite(kind string, rowsAffected int) {
	switch kind {
	case "insert":
		m.writesInsert.Add(1)
	case "update":
		m.writesUpdate.Add(1)
	case "delete":
		m.writesDelete.Add(1)
	}
	m.rowsWritten.Add(int64(rowsAffected))
}

// observeExec folds one query's execution stats into the counters of the
// route it executed on.
func (m *Metrics) observeExec(eng plan.Engine, st *exec.Stats) {
	ec := &m.execTP
	if eng == plan.AP {
		ec = &m.execAP
	}
	ec.rowsScanned.Add(st.RowsScanned)
	ec.chunksSkipped.Add(st.ChunksSkipped)
	ec.chunksScanned.Add(st.ChunksScanned)
	ec.batchesProduced.Add(st.BatchesProduced)
	ec.morselsDispatched.Add(st.MorselsDispatched)
	ec.parallelWorkers.Add(st.ParallelWorkers)
	ec.encodedChunks.Add(st.EncodedChunks)
	ec.decodedChunks.Add(st.DecodedChunks)
}

// ExecSnapshot is the exported per-route view of the execution work
// counters.
type ExecSnapshot struct {
	RowsScanned       int64 `json:"rows_scanned"`
	ChunksSkipped     int64 `json:"chunks_skipped"`
	ChunksScanned     int64 `json:"chunks_scanned"`
	BatchesProduced   int64 `json:"batches_produced"`
	MorselsDispatched int64 `json:"morsels_dispatched"`
	ParallelWorkers   int64 `json:"parallel_workers"`
	EncodedChunks     int64 `json:"encoded_chunks"`
	DecodedChunks     int64 `json:"decoded_chunks"`
}

func (ec *execCounters) snapshot() ExecSnapshot {
	return ExecSnapshot{
		RowsScanned:       ec.rowsScanned.Load(),
		ChunksSkipped:     ec.chunksSkipped.Load(),
		ChunksScanned:     ec.chunksScanned.Load(),
		BatchesProduced:   ec.batchesProduced.Load(),
		MorselsDispatched: ec.morselsDispatched.Load(),
		ParallelWorkers:   ec.parallelWorkers.Load(),
		EncodedChunks:     ec.encodedChunks.Load(),
		DecodedChunks:     ec.decodedChunks.Load(),
	}
}

func (m *Metrics) observeLatency(route string, d time.Duration) {
	m.latAll.Observe(d)
	m.routeHist(route).Observe(d)
}

// observeStages folds one sampled trace's spans into the per-stage
// histograms. Only called for traced queries, so the cost never touches
// the sampled-out hot path.
func (m *Metrics) observeStages(t *obs.QueryTrace) {
	if t == nil {
		return
	}
	for i := range t.Spans {
		sp := &t.Spans[i]
		if idx := stageIndex(sp.Name); idx >= 0 {
			m.stages[idx].Observe(time.Duration(sp.DurUS) * time.Microsecond)
		}
	}
}

// Snapshot is a point-in-time copy of the gateway metrics with derived
// rates, suitable for JSON encoding on a /metrics endpoint.
type Snapshot struct {
	Total    int64 `json:"total"`
	Shed     int64 `json:"shed"`
	Errors   int64 `json:"errors"`
	InFlight int64 `json:"in_flight"`
	// Panics is every panic recovered in this process since it started,
	// on a query's goroutines or a background loop's (task.Panics).
	Panics int64 `json:"panics_total"`

	CacheHits         int64   `json:"cache_hits"`
	CacheTemplateHits int64   `json:"cache_template_hits"`
	CacheMisses       int64   `json:"cache_misses"`
	CacheHitRate      float64 `json:"cache_hit_rate"`

	RoutedTP      int64   `json:"routed_tp"`
	RoutedAP      int64   `json:"routed_ap"`
	RouteAccuracy float64 `json:"route_accuracy"`

	// Observed routing accuracy from sampled dual-execution: of the
	// samples, the fraction where the routed engine was the measured-faster
	// one. The latency scales are the calibrator's observed/modeled EWMA
	// ratios (0 until the engine has samples). Filled by Gateway.Metrics.
	RouterObservedAccuracy float64 `json:"router_observed_accuracy"`
	RouterObservedSamples  int64   `json:"router_observed_samples"`
	LatencyScaleTP         float64 `json:"latency_scale_tp"`
	LatencyScaleAP         float64 `json:"latency_scale_ap"`

	// TracesSampled counts queries that carried a full span trace. Filled
	// by Gateway.Metrics from the tracer.
	TracesSampled int64 `json:"traces_sampled"`

	// Explanation-service gauges, filled by Gateway.Metrics from the
	// registered stats provider (all zero when no service is attached).
	// RouterAccuracy is the live router's pick vs the calibrated modeled
	// winner over the service's sliding drift window — distinct from
	// RouteAccuracy (the serving policy vs raw modeled times) above.
	ExplainServed       int64   `json:"explain_served"`
	ExplainKBHits       int64   `json:"explain_kb_hits"`
	RouterAccuracy      float64 `json:"router_accuracy"`
	RouterWindowSamples int64   `json:"router_window_samples"`
	RouterRetrains      int64   `json:"router_retrains"`
	KBEntries           int64   `json:"kb_entries"`
	KBExpired           int64   `json:"kb_expired"`

	WritesInsert int64 `json:"writes_insert"`
	WritesUpdate int64 `json:"writes_update"`
	WritesDelete int64 `json:"writes_delete"`
	RowsWritten  int64 `json:"rows_written"`

	// Transaction outcome counters (every DML runs in a transaction —
	// autocommit or an explicit BEGIN block; the three outcomes are
	// disjoint). Filled by Gateway.Metrics from the system.
	TxnBegun     int64 `json:"txn_begun"`
	TxnCommits   int64 `json:"txn_commits"`
	TxnAborts    int64 `json:"txn_aborts"`
	TxnConflicts int64 `json:"txn_conflicts"`

	// Sharding gauges, filled by Gateway.Metrics from the coordinator (a
	// single system reports one shard). Routed queries pin to one shard;
	// scatter queries fan out to every shard through the exchange
	// operators, whose batch/row traffic is counted here. The freshness,
	// merge, durability and footprint gauges below are fleet-wide sums,
	// except WALMaxGroup and CheckpointMS, which are the fleet's maximum.
	Shards           []shard.ShardStatus `json:"shards,omitempty"`
	ShardRouted      int64               `json:"shard_routed_queries,omitempty"`
	ShardScatter     int64               `json:"shard_scatter_queries,omitempty"`
	ShardScatterFan  int64               `json:"shard_scatter_fanout,omitempty"`
	ShardExchBatches int64               `json:"exchange_batches,omitempty"`
	ShardExchRows    int64               `json:"exchange_rows,omitempty"`
	ShardCrossTxns   int64               `json:"cross_shard_txns,omitempty"`
	ShardCoordLSN    uint64              `json:"shard_coordinator_lsn,omitempty"`

	// TP→AP freshness gauge: the primary's commit LSN, the column store's
	// replication watermark, and their gap (0 = AP reads are fully fresh).
	// Filled by Gateway.Metrics from the system, not by the counter set.
	CommitLSN     uint64 `json:"commit_lsn"`
	Watermark     uint64 `json:"replication_watermark"`
	StalenessLSNs uint64 `json:"staleness_lsns"`
	Merges        int64  `json:"delta_merges"`
	RowsMerged    int64  `json:"delta_rows_merged"`

	// Durability gauges (all zero when the system runs without a data
	// directory). WALDurableLSN lagging CommitLSN means commits are
	// waiting on the group committer; WALSyncs vs WALAppends is the
	// group-commit amortization ratio. Filled by Gateway.Metrics from the
	// system's WAL and checkpoint manager.
	DurabilityOn   bool   `json:"durability_enabled"`
	WALAppends     int64  `json:"wal_appends"`
	WALBytes       int64  `json:"wal_appended_bytes"`
	WALSyncs       int64  `json:"wal_syncs"`
	WALMaxGroup    int64  `json:"wal_max_group_commit"`
	WALSegments    int    `json:"wal_segments"`
	WALDurableLSN  uint64 `json:"wal_durable_lsn"`
	Checkpoints    int64  `json:"checkpoint_count"`
	CheckpointLSN  uint64 `json:"checkpoint_last_lsn"`
	CheckpointMS   int64  `json:"checkpoint_last_ms"`
	CheckpointFree int64  `json:"checkpoint_wal_segments_freed"`

	// Morsel-driven parallel execution gauges: how many queries actually
	// forked workers, how many chunk-aligned morsels were dispatched, and
	// the zone-map pruning effectiveness (chunks skipped at morsel
	// dispatch vs chunks scanned), summed over both routes.
	ParallelQueries   int64 `json:"exec_parallel_queries"`
	MorselsDispatched int64 `json:"exec_morsels_dispatched"`
	ZonemapPruned     int64 `json:"zonemap_chunks_pruned"`
	ZonemapScanned    int64 `json:"zonemap_chunks_scanned"`

	// Encoded-kernel counters, summed over both routes: chunks whose
	// encoded representation was consumed directly by an encoded kernel
	// vs chunks that had to be decoded into batch vectors.
	EncodedChunks int64 `json:"exec_encoded_chunks"`
	DecodedChunks int64 `json:"exec_decoded_chunks"`

	// Column-store footprint gauges: resident bytes under the chosen
	// per-chunk encodings, what the same base data would occupy raw, their
	// ratio, and base-chunk counts per encoding. Filled by Gateway.Metrics
	// from the column store, not by the counter set.
	ColstoreResidentBytes int64            `json:"colstore_resident_bytes"`
	ColstoreRawBytes      int64            `json:"colstore_raw_bytes"`
	ColstoreCompression   float64          `json:"colstore_compression_ratio"`
	ColstoreChunks        map[string]int64 `json:"colstore_chunks_by_encoding"`

	ExecTP ExecSnapshot `json:"exec_tp"`
	ExecAP ExecSnapshot `json:"exec_ap"`

	MeanLatency time.Duration `json:"mean_latency_ns"`
	P50         time.Duration `json:"p50_ns"`
	P95         time.Duration `json:"p95_ns"`
	P99         time.Duration `json:"p99_ns"`
}

// Snapshot derives the exported view from the live counters.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		Total:             m.total.Load(),
		Shed:              m.shed.Load(),
		Errors:            m.errs.Load(),
		InFlight:          m.inFlight.Load(),
		Panics:            task.Panics(),
		CacheHits:         m.hits.Load(),
		CacheTemplateHits: m.tmplHit.Load(),
		CacheMisses:       m.misses.Load(),
		RoutedTP:          m.routedTP.Load(),
		RoutedAP:          m.routedAP.Load(),
		WritesInsert:      m.writesInsert.Load(),
		WritesUpdate:      m.writesUpdate.Load(),
		WritesDelete:      m.writesDelete.Load(),
		RowsWritten:       m.rowsWritten.Load(),
		ParallelQueries:   m.parallelQueries.Load(),
		ExecTP:            m.execTP.snapshot(),
		ExecAP:            m.execAP.snapshot(),
	}
	s.MorselsDispatched = s.ExecTP.MorselsDispatched + s.ExecAP.MorselsDispatched
	s.ZonemapPruned = s.ExecTP.ChunksSkipped + s.ExecAP.ChunksSkipped
	s.ZonemapScanned = s.ExecTP.ChunksScanned + s.ExecAP.ChunksScanned
	s.EncodedChunks = s.ExecTP.EncodedChunks + s.ExecAP.EncodedChunks
	s.DecodedChunks = s.ExecTP.DecodedChunks + s.ExecAP.DecodedChunks
	if lookups := s.CacheHits + s.CacheTemplateHits + s.CacheMisses; lookups > 0 {
		s.CacheHitRate = float64(s.CacheHits+s.CacheTemplateHits) / float64(lookups)
	}
	if known := m.routeKnown.Load(); known > 0 {
		s.RouteAccuracy = float64(m.routeCorrect.Load()) / float64(known)
	}
	if known := m.observedKnown.Load(); known > 0 {
		s.RouterObservedAccuracy = float64(m.observedCorrect.Load()) / float64(known)
		s.RouterObservedSamples = known
	}
	if lat := m.latAll.Snapshot(); lat.Count > 0 {
		s.MeanLatency = m.latAll.Mean()
		s.P50 = lat.Quantile(0.50)
		s.P95 = lat.Quantile(0.95)
		s.P99 = lat.Quantile(0.99)
	}
	return s
}
