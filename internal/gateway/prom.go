package gateway

import (
	"strconv"

	"htapxplain/internal/obs"
)

// PromText renders the full metric set in the Prometheus text exposition
// format (version 0.0.4). Counters and gauges come from the same snapshot
// the JSON endpoint serves; latency distributions are exposed as native
// histograms (per route class and per serving stage) plus derived
// quantile gauges for dashboards that do not compute histogram_quantile.
func (g *Gateway) PromText() string {
	s := g.Metrics()
	m := &g.metrics
	w := obs.NewPromWriter()

	w.Counter("htap_queries_total", "Queries admitted and served.", nil, s.Total)
	w.Counter("htap_queries_shed_total", "Queries rejected by admission control.", nil, s.Shed)
	w.Counter("htap_query_errors_total", "Queries that failed in parse, plan, or execution.", nil, s.Errors)
	w.Gauge("htap_in_flight", "Queries currently being served by workers.", nil, float64(s.InFlight))
	w.Counter("htap_panics_total", "Panics recovered on query workers and background loops.", nil, s.Panics)

	w.Counter("htap_cache_hits_total", "Plan-cache hits by kind.",
		map[string]string{"kind": "full"}, s.CacheHits)
	w.Counter("htap_cache_hits_total", "Plan-cache hits by kind.",
		map[string]string{"kind": "template"}, s.CacheTemplateHits)
	w.Counter("htap_cache_misses_total", "Plan-cache misses (both engines planned).", nil, s.CacheMisses)

	w.Counter("htap_routed_total", "Queries routed per engine.",
		map[string]string{"engine": "tp"}, s.RoutedTP)
	w.Counter("htap_routed_total", "Queries routed per engine.",
		map[string]string{"engine": "ap"}, s.RoutedAP)
	w.Gauge("htap_route_modeled_accuracy", "Fraction of routes matching the modeled-latency winner.", nil, s.RouteAccuracy)
	w.Gauge("router_observed_accuracy", "Fraction of sampled dual-executions where the routed engine was measured faster.", nil, s.RouterObservedAccuracy)
	w.Counter("htap_router_observed_samples_total", "Dual-execution samples behind router_observed_accuracy.", nil, s.RouterObservedSamples)
	w.Gauge("htap_latency_scale", "Calibrator observed/modeled latency ratio per engine (0 until sampled).",
		map[string]string{"engine": "tp"}, s.LatencyScaleTP)
	w.Gauge("htap_latency_scale", "Calibrator observed/modeled latency ratio per engine (0 until sampled).",
		map[string]string{"engine": "ap"}, s.LatencyScaleAP)
	w.Counter("htap_traces_sampled_total", "Queries that carried a full span trace.", nil, s.TracesSampled)

	w.Counter("htap_explain_served_total", "Explanations served by the /explain and /whyslow endpoints.", nil, s.ExplainServed)
	w.Counter("htap_explain_kb_hits_total", "Explanations grounded by at least one knowledge-base retrieval.", nil, s.ExplainKBHits)
	w.Gauge("router_accuracy", "Live router's pick vs the calibrated modeled winner over the sliding drift window.", nil, s.RouterAccuracy)
	w.Counter("htap_router_retrains_total", "Online tree-CNN retrain-and-swap cycles triggered by drift.", nil, s.RouterRetrains)
	w.Gauge("htap_kb_entries", "Live knowledge-base entries.", nil, float64(s.KBEntries))
	w.Counter("htap_kb_expired_total", "Knowledge-base entries expired by maintenance re-curation.", nil, s.KBExpired)

	w.Counter("htap_writes_total", "Committed DML statements by kind.",
		map[string]string{"kind": "insert"}, s.WritesInsert)
	w.Counter("htap_writes_total", "Committed DML statements by kind.",
		map[string]string{"kind": "update"}, s.WritesUpdate)
	w.Counter("htap_writes_total", "Committed DML statements by kind.",
		map[string]string{"kind": "delete"}, s.WritesDelete)
	w.Counter("htap_rows_written_total", "Rows affected across committed DML.", nil, s.RowsWritten)

	w.Counter("htap_txn_begun_total", "Transactions begun (autocommit and explicit blocks).", nil, s.TxnBegun)
	w.Counter("htap_txn_total", "Finished transactions by outcome.",
		map[string]string{"outcome": "commit"}, s.TxnCommits)
	w.Counter("htap_txn_total", "Finished transactions by outcome.",
		map[string]string{"outcome": "abort"}, s.TxnAborts)
	w.Counter("htap_txn_total", "Finished transactions by outcome.",
		map[string]string{"outcome": "conflict"}, s.TxnConflicts)

	w.Gauge("htap_commit_lsn", "Primary's last committed LSN.", nil, float64(s.CommitLSN))
	w.Gauge("htap_replication_watermark", "Column store's applied-delta watermark LSN.", nil, float64(s.Watermark))
	w.Gauge("htap_staleness_lsns", "Commit LSN minus replication watermark (0 = AP fully fresh).", nil, float64(s.StalenessLSNs))
	w.Counter("htap_delta_merges_total", "Background delta-to-column-store merge passes.", nil, s.Merges)
	w.Counter("htap_delta_rows_merged_total", "Rows merges wrote into fresh column-store chunks.", nil, s.RowsMerged)

	if s.DurabilityOn {
		w.Counter("htap_wal_appends_total", "WAL records appended.", nil, s.WALAppends)
		w.Counter("htap_wal_appended_bytes_total", "WAL bytes appended.", nil, s.WALBytes)
		w.Counter("htap_wal_syncs_total", "WAL fsync batches (group commits).", nil, s.WALSyncs)
		w.Gauge("htap_wal_max_group_commit", "Largest group-commit batch observed.", nil, float64(s.WALMaxGroup))
		w.Gauge("htap_wal_segments", "Live WAL segment files.", nil, float64(s.WALSegments))
		w.Gauge("htap_wal_durable_lsn", "Highest fsync-durable LSN.", nil, float64(s.WALDurableLSN))
		w.Counter("htap_checkpoints_total", "Checkpoints taken.", nil, s.Checkpoints)
		w.Gauge("htap_checkpoint_last_lsn", "LSN of the last checkpoint.", nil, float64(s.CheckpointLSN))
		w.Gauge("htap_checkpoint_last_ms", "Duration of the last checkpoint in milliseconds.", nil, float64(s.CheckpointMS))
		w.Counter("htap_checkpoint_wal_segments_freed_total", "WAL segments truncated by checkpoints.", nil, s.CheckpointFree)
	}

	for i, sh := range s.Shards {
		lbl := map[string]string{"shard": strconv.Itoa(i)}
		w.Counter("htap_shard_queries_total", "Statements executed per shard.", lbl, sh.Queries)
		w.Gauge("htap_shard_commit_lsn", "Per-shard primary commit LSN.", lbl, float64(sh.CommitLSN))
		w.Gauge("htap_shard_replication_watermark", "Per-shard column-store watermark LSN.", lbl, float64(sh.Watermark))
		w.Gauge("htap_shard_staleness_lsns", "Per-shard commit LSN minus watermark.", lbl, float64(sh.Staleness))
	}
	w.Counter("htap_shard_routed_queries_total", "SELECTs pinned to exactly one shard.", nil, s.ShardRouted)
	w.Counter("htap_shard_scatter_queries_total", "SELECTs executed scatter-gather across shards.", nil, s.ShardScatter)
	w.Counter("htap_shard_scatter_fanout_total", "Total shards touched by SELECTs (1 per routed query, n per scatter).", nil, s.ShardScatterFan)
	w.Counter("htap_exchange_batches_total", "Row batches moved through exchange operators.", nil, s.ShardExchBatches)
	w.Counter("htap_exchange_rows_total", "Rows moved through exchange operators.", nil, s.ShardExchRows)
	w.Counter("htap_cross_shard_txns_total", "Transactions committed through the two-phase publish.", nil, s.ShardCrossTxns)
	w.Gauge("htap_shard_coordinator_lsn", "Coordinator commit sequence for cross-shard transactions.", nil, float64(s.ShardCoordLSN))

	w.Counter("htap_parallel_queries_total", "Queries that forked morsel workers.", nil, s.ParallelQueries)
	w.Counter("htap_morsels_dispatched_total", "Chunk-aligned morsels dispatched to workers.", nil, s.MorselsDispatched)
	w.Counter("htap_zonemap_chunks_pruned_total", "Column chunks skipped by zone-map pruning.", nil, s.ZonemapPruned)
	w.Counter("htap_zonemap_chunks_scanned_total", "Column chunks actually scanned.", nil, s.ZonemapScanned)

	w.Gauge("htap_colstore_resident_bytes", "Base-chunk footprint under the chosen encodings.", nil, float64(s.ColstoreResidentBytes))
	w.Gauge("htap_colstore_raw_bytes", "What the same base data would occupy as raw value vectors.", nil, float64(s.ColstoreRawBytes))
	w.Gauge("htap_colstore_compression_ratio", "Raw bytes over resident bytes (1 = uncompressed).", nil, s.ColstoreCompression)
	for _, enc := range []string{"raw", "dict", "for", "rle"} {
		w.Gauge("htap_colstore_chunks", "Base chunks per encoding.",
			map[string]string{"encoding": enc}, float64(s.ColstoreChunks[enc]))
	}
	w.Counter("htap_exec_encoded_chunks_total", "Chunks consumed by encoded kernels without decoding.", nil, s.EncodedChunks)
	w.Counter("htap_exec_decoded_chunks_total", "Encoded chunks decoded into batch vectors.", nil, s.DecodedChunks)
	for _, e := range []struct {
		name string
		ec   ExecSnapshot
	}{{"tp", s.ExecTP}, {"ap", s.ExecAP}} {
		lbl := map[string]string{"engine": e.name}
		w.Counter("htap_exec_rows_scanned_total", "Rows scanned by the batch pipeline per engine.", lbl, e.ec.RowsScanned)
		w.Counter("htap_exec_batches_produced_total", "Vector batches produced per engine.", lbl, e.ec.BatchesProduced)
	}

	routes := []struct {
		name string
		h    *obs.Histogram
	}{{"all", &m.latAll}, {"tp", &m.latTP}, {"ap", &m.latAP}, {"dml", &m.latDML}, {"explain", &m.latExplain}}
	for _, r := range routes {
		w.Histogram("htap_query_latency_seconds", "Serve latency per route class.",
			map[string]string{"route": r.name}, r.h.Snapshot())
	}
	for _, r := range routes {
		snap := r.h.Snapshot()
		if snap.Count == 0 {
			continue
		}
		for _, q := range []struct {
			label string
			q     float64
		}{{"0.5", 0.50}, {"0.9", 0.90}, {"0.99", 0.99}} {
			w.Gauge("htap_query_latency_quantile_seconds",
				"Derived latency quantiles per route class (log-bucket upper bounds).",
				map[string]string{"route": r.name, "quantile": q.label},
				snap.Quantile(q.q).Seconds())
		}
	}
	for i, stage := range stageNames {
		snap := m.stages[i].Snapshot()
		if snap.Count == 0 {
			continue
		}
		w.Histogram("htap_stage_latency_seconds",
			"Serving-stage latency from sampled traces (a sample of query totals).",
			map[string]string{"stage": stage}, snap)
	}
	return w.String()
}
