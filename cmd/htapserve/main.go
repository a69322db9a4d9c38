// Command htapserve runs the concurrent query-serving gateway over the
// HTAP system as an HTTP service: SQL in, routed dual-engine execution
// out, with a sharded plan cache, admission control on one worker ledger
// (a request is served on its connection's goroutine while it holds a
// slot) and live metrics. With -data-dir the system is durable: every commit is
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
//	htapserve -addr :9090 -policy learned  # route with the tree-CNN router
//	htapserve -policy rule -workers 16 -queue 256
//
// The server generates no load of its own; `go run ./bench --workload
// htap_mixed --seed 7 --seconds 16 --trace 0` drives the same stack over a
// socket and checks every reply.
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
//	GET  /debug/pprof/                     → net/http/pprof: CPU profile,
//	                                         heap, goroutines, trace
//	GET  /healthz                          → liveness
//
// With -explain (default on) the server serves the explanation service:
// a tree-CNN router and a curated RAG knowledge base (restored from
// -data-dir when present), served lock-free through an HNSW snapshot
// index. A background loop watches a sliding window of served
// explanations for router/calibration drift and, past -drift-threshold,
// retrains the router online, atomically swaps it into the routing
// policy, and re-curates + expires the knowledge base. -policy learned
// routes through that same router, bootstrapped the same way when
// -explain is off.
//
// On SIGINT/SIGTERM the server shuts down gracefully: stop admitting,
// drain in-flight queries, flush the WAL and write a clean-shutdown
// checkpoint, so the next start replays nothing.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
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
	"htapxplain/internal/task"
	"htapxplain/internal/treecnn"
)

const (
	// seed drives router training, KB curation and index construction.
	seed = 7
	// drainTimeout bounds the wait for in-flight HTTP requests on shutdown.
	drainTimeout = 10 * time.Second
	// driftCheckInterval is the explanation service's maintenance period.
	driftCheckInterval = 2 * time.Second
)

// errUsage marks a command line the flag package rejected; it has already
// printed the reason and the usage.
var errUsage = errors.New("usage")

// options holds the parsed command line.
type options struct {
	addr               string
	workers, queue     int
	policy             string
	shards             int
	dataDir            string
	fsyncInterval      time.Duration
	fsyncBytes         int
	walSegmentBytes    int64
	checkpointInterval time.Duration
	traceSample        float64
	slowQueryMS        int
	observedEvery      int
	explain            bool
	driftThreshold     float64
}

// newFlagSet registers every flag htapserve has; README's flag table
// lists the same set (TestFlagSurface).
func newFlagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("htapserve", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", ":8080", "HTTP listen address")
	fs.IntVar(&o.workers, "workers", 0, "worker ledger slots: concurrent serves + the extra workers of parallel plans (0 = GOMAXPROCS)")
	fs.IntVar(&o.queue, "queue", 0, "callers allowed to wait for a slot before the next is shed (0 = 8x workers)")
	fs.StringVar(&o.policy, "policy", "cost", "routing policy: rule, cost or learned")
	fs.IntVar(&o.shards, "shards", 1, "hash-partitioned in-process shards (1 = single system; >1 serves distributed reads and routed writes)")
	fs.StringVar(&o.dataDir, "data-dir", "", "data directory for the WAL + checkpoints (empty = volatile; sharded fleets keep per-shard subdirectories)")
	fs.DurationVar(&o.fsyncInterval, "fsync-interval", 0, "group-commit fsync window (0 = default 2ms)")
	fs.IntVar(&o.fsyncBytes, "fsync-bytes", 0, "force an fsync once this many bytes are buffered (0 = default 256KiB)")
	fs.Int64Var(&o.walSegmentBytes, "wal-segment-bytes", 0, "WAL segment rotation threshold (0 = default 4MiB)")
	fs.DurationVar(&o.checkpointInterval, "checkpoint-interval", 0, "background checkpoint period (0 = default 30s)")
	fs.Float64Var(&o.traceSample, "trace-sample", 0, "fraction of queries traced into span trees (0 disables, 1 traces all)")
	fs.IntVar(&o.slowQueryMS, "slow-query-ms", 0, "log the span tree of queries at least this slow (0 disables; forces trace-sample 1)")
	fs.IntVar(&o.observedEvery, "observed-every", 0, "dual-execute every Nth served SELECT for router_observed_accuracy (0 disables)")
	fs.BoolVar(&o.explain, "explain", true, "enable the online explanation service (/explain, /whyslow, drift-driven retraining)")
	fs.Float64Var(&o.driftThreshold, "drift-threshold", 0.85, "explanation service: router agreement below this triggers an online retrain")
	return fs
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := run(ctx, os.Args[1:], os.Stdout)
	switch {
	case err == nil:
		fmt.Println("htapserve: clean shutdown complete")
	case errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "htapserve:", err)
		os.Exit(1)
	}
}

// run serves until ctx is cancelled, then shuts down gracefully: it stops
// admitting, drains in-flight requests, persists the router and knowledge
// base, and closes the fleet (per-shard WAL flush + clean-shutdown
// checkpoint). Progress lines go to stdout.
func run(ctx context.Context, args []string, stdout io.Writer) (err error) {
	var o options
	if perr := newFlagSet(&o).Parse(args); perr != nil {
		return fmt.Errorf("%w: %w", errUsage, perr)
	}
	// liveRouter is the router the learned policy routes through and the
	// explanation service swaps on a retrain.
	var liveRouter atomic.Pointer[treecnn.Router]
	gcfg := gateway.DefaultConfig()
	gcfg.Workers, gcfg.QueueDepth, gcfg.ObservedEvery = o.workers, o.queue, o.observedEvery
	switch o.policy {
	case "rule":
		gcfg.Policy = gateway.RulePolicy{}
	case "cost":
		gcfg.Policy = gateway.CostPolicy{}
	case "learned":
		gcfg.Policy = gateway.LearnedPolicy{Source: liveRouter.Load}
	default:
		return fmt.Errorf("unknown policy %q (want rule, cost or learned)", o.policy)
	}

	cfg := htap.DefaultConfig()
	cfg.Durability = htap.DurabilityConfig{
		Dir:                o.dataDir,
		SyncInterval:       o.fsyncInterval,
		SyncBytes:          o.fsyncBytes,
		SegmentBytes:       o.walSegmentBytes,
		CheckpointInterval: o.checkpointInterval,
	}
	if o.dataDir != "" {
		fmt.Fprintf(stdout, "opening %d-shard HTAP fleet from %s (per-shard recovery) ...\n", o.shards, o.dataDir)
	} else {
		fmt.Fprintf(stdout, "building %d-shard HTAP fleet (hash-partitioned, both engines per shard) ...\n", o.shards)
	}
	// The server always holds a coordinator; only the on-disk layout tells
	// a single system from a fleet. One shard keeps its WAL + checkpoints
	// directly under dataDir; a fleet's coordinator owns the per-shard
	// layout dataDir/shard-<i>.
	var coord *shard.Coordinator
	if o.shards > 1 {
		cfg.Durability.Dir = ""
		coord, err = shard.New(o.shards, cfg, shard.Options{Dir: o.dataDir})
	} else {
		var one *htap.System
		if one, err = htap.New(cfg); err == nil {
			coord = shard.Wrap(one)
		}
	}
	if err != nil {
		return err
	}
	defer coord.Close()
	if o.dataDir != "" {
		for i := 0; i < coord.NumShards(); i++ {
			fmt.Fprintf(stdout, "recovery shard %d: %v\n", i, coord.Shard(i).Recovery())
		}
	}
	// the explanation service and router training still read one system
	sys := coord.Shard(0)

	// One way a serving router is trained: explainsvc.Bootstrap, before the
	// gateway, so the learned policy is backed by the router the
	// maintenance loop retrains and swaps.
	var expDir string
	if o.dataDir != "" {
		expDir = filepath.Join(o.dataDir, "explain")
	}
	var bootRouter *treecnn.Router
	var bootKB *knowledge.Base
	if o.explain || o.policy == "learned" {
		var restored bool
		bootRouter, bootKB, restored, err = explainsvc.Bootstrap(sys, explainsvc.BootstrapConfig{Seed: seed, Dir: expDir})
		if err != nil {
			return err
		}
		if restored {
			fmt.Fprintf(stdout, "restored router + %d KB entries from %s\n", bootKB.Len(), expDir)
		} else {
			fmt.Fprintf(stdout, "trained router, curated %d KB entries\n", bootKB.Len())
		}
		liveRouter.Store(bootRouter)
	}

	gcfg.Tracer = obs.NewTracer(obs.TracerConfig{
		SampleRate: o.traceSample,
		SlowQuery:  time.Duration(o.slowQueryMS) * time.Millisecond,
		SlowLogf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "htapserve: "+format+"\n", args...)
		},
	})
	g := gateway.NewSharded(coord, gcfg)
	defer g.Stop()
	mux := gateway.NewServeMux(g)
	if o.explain {
		var svc *explainsvc.Service
		svc, err = explainsvc.New(sys, g, bootRouter, bootKB, explainsvc.Config{
			Seed:           seed,
			DriftThreshold: o.driftThreshold,
			CheckInterval:  driftCheckInterval,
			Dir:            expDir,
			OnSwap:         liveRouter.Store,
		})
		if err != nil {
			return err
		}
		// stops the maintenance loop and persists router + KB state
		defer func() {
			if cerr := svc.Close(); err == nil {
				err = cerr
			}
		}()
		explainsvc.Register(mux, svc)
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "htapserve: %s routing, listening on %s\n", gcfg.Policy.Name(), ln.Addr())
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	errCh := make(chan error, 1) // one send: the listener's exit
	var listener task.Group
	listener.Go(func() error {
		errCh <- srv.Serve(ln)
		return nil
	})
	defer listener.Wait()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(stdout, "\nhtapserve: signal received, draining ...")
	shutCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "htapserve: drain:", err)
	}
	return nil
}
