// Command htapserve runs the concurrent query-serving gateway over the
// HTAP system as an HTTP service: SQL in, routed dual-engine execution
// out, with a sharded plan cache, bounded worker pool, admission control
// and live metrics. With -data-dir the system is durable: every commit is
// group-committed to a segmented WAL before it is acknowledged, periodic
// checkpoints bound recovery replay, and a restart (clean or kill -9)
// reopens to the last committed state.
//
// Usage:
//
//	htapserve                              # serve on :8080 with cost routing
//	htapserve -shards 4                    # hash-partitioned 4-shard fleet with
//	                                         exchange-based distributed reads
//	htapserve -data-dir /var/lib/htap      # durable serving with recovery
//	htapserve -shards 4 -data-dir d        # per-shard WAL + checkpoints under
//	                                         d/shard-0 .. d/shard-3
//	htapserve -data-dir d -fsync-interval 5ms -checkpoint-interval 10s
//	htapserve -addr :9090 -policy learned  # train the tree-CNN router first
//	htapserve -policy rule -workers 16 -queue 256
//	htapserve -load -clients 16 -queries 2000 -distinct 50
//	htapserve -load -write-frac 0.2          # mixed read/write HTAP load
//	htapserve -load -write-frac 0.4 -txn-frac 0.5   # + BEGIN..COMMIT blocks
//	htapserve -load -explain-frac 0.1        # 10% of reads ask for explanations
//
// Endpoints:
//
//	POST /query    {"sql": "SELECT ..."}   → result rows + routing info
//	POST /query    {"sql": "INSERT ..."}   → rows_affected + commit LSN
//	POST /explain  {"sql": "SELECT ..."}   → RAG-grounded explanation of the
//	                                         routing decision (retrieved KB
//	                                         entries, modeled latencies)
//	POST /whyslow  {"sql": "SELECT ..."}   → bottleneck diagnosis + advice
//	GET  /metrics                          → serving counters, latencies, the
//	                                         TP→AP freshness gauge, the
//	                                         explain_*/router_*/kb_* service
//	                                         gauges and the wal_*/checkpoint_*
//	                                         gauges (?format=prometheus → text
//	                                         exposition format for scraping)
//	GET  /debug/traces                     → sampled query span traces,
//	                                         newest first (-trace-sample,
//	                                         -slow-query-ms)
//	GET  /healthz                          → liveness
//
// With -explain (default on) the server bootstraps the explanation
// service: a tree-CNN router and a curated RAG knowledge base (restored
// from -data-dir when present), served lock-free through an HNSW
// snapshot index. A background loop watches a sliding window of served
// explanations for router/calibration drift and, past -drift-threshold,
// retrains the router online, atomically swaps it into the routing
// policy, and re-curates + expires the knowledge base.
//
// On SIGINT/SIGTERM the server shuts down gracefully: stop admitting,
// drain in-flight queries, flush the WAL and write a clean-shutdown
// checkpoint, so the next start replays nothing.
//
// With -load the binary skips HTTP entirely and drives its own gateway
// with the closed-loop generator, printing the load report — a one-shot
// benchmark of the serving stack.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"

	"htapxplain/internal/explainsvc"
	"htapxplain/internal/gateway"
	"htapxplain/internal/htap"
	"htapxplain/internal/knowledge"
	"htapxplain/internal/obs"
	"htapxplain/internal/shard"
	"htapxplain/internal/treecnn"
	"htapxplain/internal/workload"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "HTTP listen address")
		workers   = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", 0, "admission queue depth (0 = 8x workers)")
		cacheCap  = flag.Int("cache-capacity", 1024, "plan cache capacity in templates (0 disables)")
		shards    = flag.Int("cache-shards", 8, "plan cache shard count")
		policy    = flag.String("policy", "cost", "routing policy: rule, cost or learned")
		trainN    = flag.Int("train-queries", 160, "learned policy: training workload size")
		epochs    = flag.Int("train-epochs", 60, "learned policy: training epochs")
		load      = flag.Bool("load", false, "run the closed-loop load generator instead of serving HTTP")
		clients   = flag.Int("clients", 8, "load mode: concurrent closed-loop clients")
		queries   = flag.Int("queries", 1000, "load mode: total queries to issue")
		distinct  = flag.Int("distinct", 50, "load mode: distinct query pool size")
		testMix   = flag.Bool("test-mix", false, "load mode: include rare out-of-KB query shapes")
		writeFrac = flag.Float64("write-frac", 0, "load mode: fraction of submissions that are DML (0..1)")
		txnFrac   = flag.Float64("txn-frac", 0, "load mode: fraction of the DML submissions that are multi-statement BEGIN blocks (0..1)")
		seed      = flag.Int64("seed", 7, "workload / training seed")

		traceRate   = flag.Float64("trace-sample", 0, "fraction of queries traced into span trees (0 disables, 1 traces all)")
		traceRing   = flag.Int("trace-ring", 256, "trace ring-buffer capacity served at /debug/traces")
		slowQueryMS = flag.Int("slow-query-ms", 0, "log the span tree of queries at least this slow (0 disables; forces trace-sample 1)")
		obsEvery    = flag.Int("observed-every", 0, "dual-execute every Nth cache-miss SELECT for router_observed_accuracy (0 disables)")

		explainOn  = flag.Bool("explain", true, "enable the online explanation service (/explain, /whyslow, drift-driven retraining)")
		explainFr  = flag.Float64("explain-frac", 0, "load mode: fraction of read submissions served as explanations (0..1)")
		explainTrN = flag.Int("explain-train", 80, "explanation service: bootstrap training workload size")
		explainEp  = flag.Int("explain-epochs", 40, "explanation service: bootstrap + online retrain epochs")
		explainKB  = flag.Int("explain-kb", 20, "explanation service: curated knowledge-base target size")
		explainK   = flag.Int("explain-k", 2, "explanation service: retrieved similar plan pairs per explanation")
		driftWin   = flag.Int("drift-window", 128, "explanation service: sliding drift window capacity")
		driftThr   = flag.Float64("drift-threshold", 0.85, "explanation service: router agreement below this triggers an online retrain")
		driftIvl   = flag.Duration("drift-interval", 2*time.Second, "explanation service: background drift-check period (0 disables the loop)")

		nShards = flag.Int("shards", 1, "hash-partitioned in-process shards (1 = single system; >1 serves distributed reads and routed writes)")

		dataDir   = flag.String("data-dir", "", "data directory for the WAL + checkpoints (empty = volatile; sharded fleets keep per-shard subdirectories)")
		fsyncIvl  = flag.Duration("fsync-interval", 0, "group-commit fsync window (0 = default 2ms)")
		fsyncKB   = flag.Int("fsync-bytes", 0, "force an fsync once this many bytes are buffered (0 = default 256KiB)")
		segBytes  = flag.Int64("wal-segment-bytes", 0, "WAL segment rotation threshold (0 = default 4MiB)")
		ckptIvl   = flag.Duration("checkpoint-interval", 0, "background checkpoint period (0 = default 30s)")
		drainWait = flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown: max wait for in-flight HTTP requests")
	)
	flag.Parse()

	cfg := htap.DefaultConfig()
	cfg.Durability = htap.DurabilityConfig{
		Dir:                *dataDir,
		SyncInterval:       *fsyncIvl,
		SyncBytes:          *fsyncKB,
		SegmentBytes:       *segBytes,
		CheckpointInterval: *ckptIvl,
	}
	if *dataDir != "" {
		fmt.Printf("opening %d-shard HTAP fleet from %s (per-shard recovery) ...\n", *nShards, *dataDir)
	} else {
		fmt.Printf("building %d-shard HTAP fleet (hash-partitioned, both engines per shard) ...\n", *nShards)
	}
	// The server always holds a coordinator; only the on-disk layout tells
	// a single system from a fleet. One shard keeps its WAL + checkpoints
	// directly under dataDir; a fleet's coordinator owns the per-shard
	// layout dataDir/shard-<i>.
	var (
		coord *shard.Coordinator
		err   error
	)
	if *nShards > 1 {
		cfg.Durability.Dir = ""
		coord, err = shard.New(*nShards, cfg, shard.Options{Dir: *dataDir})
	} else {
		var one *htap.System
		if one, err = htap.New(cfg); err == nil {
			coord = shard.Wrap(one)
		}
	}
	if err != nil {
		fatal(err)
	}
	defer coord.Close()
	if *dataDir != "" {
		for i := 0; i < coord.NumShards(); i++ {
			fmt.Printf("recovery shard %d: %v\n", i, coord.Shard(i).Recovery())
		}
	}
	// the explanation service and policy training still read one system
	sys := coord.Shard(0)
	// Bootstrap the explanation service's router + KB before the gateway
	// so the learned routing policy can be backed by the same router the
	// maintenance loop retrains and swaps.
	var (
		expRouter  *treecnn.Router
		expKB      *knowledge.Base
		expDir     string
		liveRouter atomic.Pointer[treecnn.Router]
	)
	if *explainOn {
		if *dataDir != "" {
			expDir = filepath.Join(*dataDir, "explain")
		}
		r, kb, restored, err := explainsvc.Bootstrap(sys, explainsvc.BootstrapConfig{
			TrainQueries: *explainTrN, Epochs: *explainEp, KBSize: *explainKB,
			Seed: *seed, Dir: expDir,
		})
		if err != nil {
			fatal(err)
		}
		if restored {
			fmt.Printf("explanation service: restored router + %d KB entries from %s\n", kb.Len(), expDir)
		} else {
			fmt.Printf("explanation service: trained router on %d queries, curated %d KB entries\n", *explainTrN, kb.Len())
		}
		expRouter, expKB = r, kb
		liveRouter.Store(r)
	}

	var pol gateway.RoutingPolicy
	if *policy == "learned" && expRouter != nil {
		// the explanation service owns the router lifecycle: route every
		// query through whatever it most recently swapped in
		fmt.Println("learned routing backed by the explanation service's live router")
		pol = gateway.DynamicLearnedPolicy{Source: liveRouter.Load}
	} else {
		pol, err = buildPolicy(sys, *policy, *trainN, *epochs, *seed)
		if err != nil {
			fatal(err)
		}
	}
	tracer := obs.NewTracer(obs.TracerConfig{
		SampleRate: *traceRate,
		RingSize:   *traceRing,
		SlowQuery:  time.Duration(*slowQueryMS) * time.Millisecond,
		SlowLogf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "htapserve: "+format+"\n", args...)
		},
	})
	gcfg := gateway.Config{
		Workers:       *workers,
		QueueDepth:    *queue,
		CacheCapacity: *cacheCap,
		CacheShards:   *shards,
		Policy:        pol,
		Tracer:        tracer,
		ObservedEvery: *obsEvery,
	}
	g := gateway.NewSharded(coord, gcfg)
	defer g.Stop()

	var svc *explainsvc.Service
	if *explainOn {
		svc, err = explainsvc.New(sys, g, expRouter, expKB, explainsvc.Config{
			K: *explainK, Seed: *seed,
			Window: *driftWin, DriftThreshold: *driftThr,
			RetrainEpochs: *explainEp, CheckInterval: *driftIvl,
			Dir:    expDir,
			OnSwap: func(r *treecnn.Router) { liveRouter.Store(r) },
		})
		if err != nil {
			fatal(err)
		}
		defer svc.Close()
	}

	if *load {
		fmt.Printf("closed-loop load: %d clients, %d queries over %d distinct templates (write fraction %.2f, txn fraction %.2f, explain fraction %.2f)\n",
			*clients, *queries, *distinct, *writeFrac, *txnFrac, *explainFr)
		lc := gateway.LoadConfig{
			Clients:       *clients,
			Queries:       *queries,
			Distinct:      *distinct,
			Seed:          *seed,
			TestMix:       *testMix,
			WriteFraction: *writeFrac,
			TxnFraction:   *txnFrac,
		}
		if svc != nil && *explainFr > 0 {
			lc.ExplainFraction = *explainFr
			lc.Explain = func(sql string) error { _, err := svc.Explain(sql); return err }
		}
		rep := gateway.RunLoad(g, lc)
		fmt.Println(rep)
		if *writeFrac > 0 {
			if err := coord.WaitFresh(5 * time.Second); err != nil {
				fatal(err)
			}
			m := g.Metrics()
			fmt.Printf("replication: fleet watermark %d = commit LSN %d (fully fresh) across %d shards, %d merges (%d rows) so far\n",
				m.Watermark, m.CommitLSN, coord.NumShards(), m.Merges, m.RowsMerged)
			if m.DurabilityOn {
				fmt.Printf("durability: %d appends / %d fsyncs (max group %d), durable LSN %d, %d checkpoints\n",
					m.WALAppends, m.WALSyncs, m.WALMaxGroup, m.WALDurableLSN, m.Checkpoints)
			}
		}
		return
	}

	fmt.Printf("htapserve: %s routing, listening on %s\n", pol.Name(), *addr)
	mux := gateway.NewServeMux(g)
	if svc != nil {
		explainsvc.Register(mux, svc)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()

	// graceful shutdown: SIGINT/SIGTERM stops admission, drains in-flight
	// requests, and Close (deferred) flushes the WAL and writes the
	// clean-shutdown checkpoint
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	case <-sigCtx.Done():
		fmt.Println("\nhtapserve: signal received, draining ...")
		shutCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			fmt.Fprintln(os.Stderr, "htapserve: drain:", err)
		}
		if svc != nil {
			svc.Close() // stop the maintenance loop + persist router/KB state
		}
		g.Stop()
		coord.Close() // per-shard WAL flush + clean-shutdown checkpoints (idempotent with the defer)
		fmt.Println("htapserve: clean shutdown complete")
	}
}

// buildPolicy resolves the -policy flag; "learned" labels a seeded
// workload with the modeled winner and trains the tree-CNN router first.
func buildPolicy(sys *htap.System, name string, trainN, epochs int, seed int64) (gateway.RoutingPolicy, error) {
	switch name {
	case "rule":
		return gateway.RulePolicy{}, nil
	case "cost":
		return gateway.CostPolicy{}, nil
	case "learned":
		fmt.Printf("labeling %d queries and training the smart router ...\n", trainN)
		var samples []treecnn.Sample
		for _, q := range workload.NewGenerator(seed).Batch(trainN) {
			res, err := sys.Run(q.SQL)
			if err != nil {
				return nil, fmt.Errorf("labeling %q: %w", q.SQL, err)
			}
			samples = append(samples, treecnn.Sample{Pair: &res.Pair, Label: res.Winner})
		}
		r := treecnn.New(seed)
		rep := r.Train(samples, epochs, seed+1)
		fmt.Printf("router trained: %.0f%% train accuracy (%d params)\n", 100*rep.TrainAcc, r.NumParams())
		return gateway.LearnedPolicy{Router: r}, nil
	default:
		return nil, fmt.Errorf("unknown policy %q (want rule, cost or learned)", name)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "htapserve:", err)
	os.Exit(1)
}
