// Package htap assembles the full HTAP system ("ByteHTAP" in the paper):
// shared catalog and data, a row store + TP optimizer and a column store +
// AP optimizer, execution of every query on both engines, and the modeled
// execution result (which engine is faster and by how much) that the
// explanation framework consumes.
package htap

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"htapxplain/internal/catalog"
	"htapxplain/internal/colstore"
	"htapxplain/internal/exec"
	"htapxplain/internal/latency"
	"htapxplain/internal/optimizer"
	"htapxplain/internal/plan"
	"htapxplain/internal/recovery"
	"htapxplain/internal/repl"
	"htapxplain/internal/rowstore"
	"htapxplain/internal/sqlparser"
	"htapxplain/internal/task"
	"htapxplain/internal/tpch"
	"htapxplain/internal/value"
	"htapxplain/internal/wal"
)

// Example1SQL is the paper's demonstrative query (§VI-A, Example 1): a
// 3-table join with a function-wrapped phone predicate. In the paper's
// deployment TP takes 5.80 s and AP 310 ms.
const Example1SQL = `SELECT COUNT(*) FROM customer, nation, orders
WHERE SUBSTRING(c_phone, 1, 2) IN ('20', '40', '22', '30', '39', '42', '21')
AND c_mktsegment = 'machinery'
AND n_name = 'egypt' AND o_orderstatus = 'p'
AND o_custkey = c_custkey
AND n_nationkey = c_nationkey`

// replQueueDepth bounds the in-flight mutation channel between the write
// path and the column store's delta layer: a full queue back-pressures
// writers rather than growing without bound.
const replQueueDepth = 256

// Config controls system construction.
type Config struct {
	// ModeledSF is the TPC-H scale factor the statistics and latency
	// model reflect (the paper's deployment is SF 100 ≈ 100 GB).
	ModeledSF float64
	// Data controls physical data generation.
	Data tpch.Config
	// Preloaded, when non-nil, is used as the bulk base instead of
	// generating from Data — the hook the shard coordinator uses to load
	// each shard with its hash partition. Like generated data it must be
	// deterministic for the same configuration: a durable reopen whose
	// checkpoints were destroyed replays the WAL on top of it.
	Preloaded *tpch.Dataset
	// Durability controls the WAL + checkpoint subsystem; the zero value
	// keeps the system volatile. See Open for the durable entry point.
	Durability DurabilityConfig
	// Encoding selects the column store's per-chunk encoding policy. The
	// zero value (PolicyAuto) picks the smallest encoding per chunk from
	// its statistics; PolicyRaw keeps the pre-encoding layout.
	Encoding colstore.EncodingPolicy
}

// DefaultConfig mirrors the paper's environment (100 GB modeled) with the
// default scaled-down physical dataset.
func DefaultConfig() Config {
	return Config{ModeledSF: 100, Data: tpch.DefaultConfig()}
}

// System is the assembled HTAP database. The row store is the write
// primary: DML (see Exec in dml.go) commits there under a monotonic LSN
// and is replicated asynchronously — through a bounded channel drained by
// a replication goroutine — into the column store's delta layer, whose
// background merger appends deltas to the base as fresh chunks. AP reads
// are fresh up to the column store's replication watermark.
type System struct {
	Cat     *catalog.Catalog
	Data    *tpch.Dataset
	Row     *rowstore.Store
	Col     *colstore.Store
	Planner *optimizer.Planner

	// schemas are the catalog tables' schemas, built once at boot: DML
	// compiles its WHERE and SET against them
	schemas map[*catalog.Table]exec.Schema

	// write path state
	writeMu   sync.Mutex // serializes DML commits and orders the log
	replCh    chan *repl.Mutation
	applier   task.Group            // the replication applier (see replicate)
	replErr   atomic.Pointer[error] // first replication-apply failure, if any
	closed    bool
	closeOnce sync.Once

	// durability state (nil / zero when the system is volatile)
	wal      *wal.WAL
	ckpt     *recovery.Manager
	recovery RecoveryInfo
	walErr   error // sticky append failure; guarded by writeMu

	// transaction outcome counters (see Begin / Txn in txn.go); the three
	// outcomes are disjoint, so begun - committed - aborted - conflicted
	// is the number of transactions still in flight
	txnBegun      atomic.Int64
	txnCommitted  atomic.Int64
	txnAborted    atomic.Int64
	txnConflicted atomic.Int64
}

// TxnStats counts transaction outcomes since boot. Committed, Aborted and
// Conflicted are disjoint: a first-writer-wins loser counts only as
// Conflicted, an explicit ROLLBACK (or any non-conflict commit failure)
// as Aborted.
type TxnStats struct {
	Begun      int64
	Committed  int64
	Aborted    int64
	Conflicted int64
}

// Active derives the number of transactions begun but not yet finished.
func (t TxnStats) Active() int64 { return t.Begun - t.Committed - t.Aborted - t.Conflicted }

// TxnStats snapshots the transaction outcome counters.
func (s *System) TxnStats() TxnStats {
	return TxnStats{
		Begun:      s.txnBegun.Load(),
		Committed:  s.txnCommitted.Load(),
		Aborted:    s.txnAborted.Load(),
		Conflicted: s.txnConflicted.Load(),
	}
}

// New builds the catalog, generates data, boots both storage engines,
// wires the planners, and starts the replication pipeline (applier
// goroutine + background delta merger). Boot is one sequence, and a fresh
// boot is the recovery whose image is the bulk load: the base image is the
// generated data at LSN 0 with nothing tombstoned; when Config.Durability
// names a data directory the newest loadable checkpoint replaces it, if
// there is one; both stores are built from that image by their one
// constructor; and, when durable, the WAL tail beyond the image is
// replayed through the one writer. A durable system then logs and
// group-commits every commit before acknowledging it, and a background
// checkpointer bounds replay length. Callers that mutate the system should
// Close it to stop the pipeline (and, when durable, flush the log and
// write the clean-shutdown checkpoint).
func New(cfg Config) (*System, error) {
	if cfg.ModeledSF <= 0 {
		return nil, fmt.Errorf("htap: ModeledSF must be positive, got %g", cfg.ModeledSF)
	}
	cat := catalog.TPCH(cfg.ModeledSF)
	// Data is generated even when a checkpoint will supersede it: the
	// generator is deterministic, so s.Data stays exactly the LSN-0 bulk
	// base its consumers expect, and a reopen whose checkpoints were
	// destroyed (WAL intact) replays onto it. A preloaded dataset (a
	// shard's partition) takes the same role.
	data := cfg.Preloaded
	if data == nil {
		var err error
		data, err = tpch.Generate(cat, cfg.Data)
		if err != nil {
			return nil, fmt.Errorf("htap: generating data: %w", err)
		}
	}
	base := &recovery.Checkpoint{Tables: make(map[string]rowstore.HeapSnapshot, len(data.Tables))}
	for name, rows := range data.Tables {
		base.Tables[name] = rowstore.HeapSnapshot{Rows: rows}
	}
	var (
		w    *wal.WAL
		info RecoveryInfo
	)
	if cfg.Durability.Enabled() {
		var err error
		if w, base, info, err = openDurable(cfg.Durability, base); err != nil {
			return nil, err
		}
	}
	// the one place the two engines are constructed: both from the same
	// image, the row store seated at its commit LSN and the column store's
	// replication watermark equal to it (an AP read right after boot is
	// fully fresh)
	row, err := rowstore.NewStoreFromSnapshot(cat, base.Tables, base.LSN)
	var col *colstore.Store
	if err == nil {
		col, err = colstore.NewStoreFromHeap(cat, base.Tables, base.LSN, colstore.WithEncoding(cfg.Encoding))
	}
	if err == nil && w != nil {
		err = replayTail(w, row, col, &info)
	}
	if err != nil {
		if w != nil {
			w.Close()
		}
		return nil, fmt.Errorf("htap: booting from the image at LSN %d: %w", base.LSN, err)
	}
	s := &System{
		Cat: cat, Data: data, Row: row, Col: col,
		Planner:  optimizer.NewPlanner(cat, row, col),
		schemas:  make(map[*catalog.Table]exec.Schema),
		replCh:   make(chan *repl.Mutation, replQueueDepth),
		wal:      w,
		recovery: info,
	}
	for _, t := range cat.Tables() {
		s.schemas[t] = exec.TableSchema(t, strings.ToLower(t.Name))
	}
	s.applier.Go(s.replicate)
	if cfg.Durability.Enabled() {
		s.ckpt = recovery.NewManager(cfg.Durability.ckptDir(), s, w)
		if info.Recovered && info.CleanShutdown && info.ReplayedMutations == 0 {
			// a clean restart restored a checkpoint at exactly the current
			// LSN; rewriting an identical snapshot would be pure waste
			s.ckpt.Prime(info.CheckpointLSN)
		} else {
			// a boot checkpoint pins the recovered (or freshly bulk-loaded)
			// state on disk, so future recoveries replay only this run's
			// tail and the surviving log prefix can be retired immediately
			if _, err := s.ckpt.CheckpointNow(); err != nil {
				s.Close()
				return nil, fmt.Errorf("htap: boot checkpoint: %w", err)
			}
		}
		s.ckpt.Start(cfg.Durability.CheckpointInterval)
	}
	// the merger starts once boot is done: a recovered delta is merged by
	// the first pass after New returns, not beside the boot checkpoint
	col.StartMerger()
	return s, nil
}

// Open is the durable entry point: it builds (or recovers) a system whose
// storage lives under dir. On first boot the bulk-loaded base is
// checkpointed there; on every later boot the latest checkpoint is
// restored and the WAL tail replayed, so all committed writes survive
// restarts and crashes. See System.Recovery for what startup found.
func Open(dir string, cfg Config) (*System, error) {
	if dir == "" {
		return nil, fmt.Errorf("htap: Open requires a data directory")
	}
	cfg.Durability.Dir = dir
	return New(cfg)
}

// replicate is the replication applier: it drains the mutation channel in
// commit order into the column store's delta layer, advancing the
// watermark one LSN at a time, until Close closes the channel. On the
// first Apply failure — an error or a panic — replication halts: the
// applier goes on draining but discards (so no committer ever blocks on a
// full channel while holding the commit lock) and the watermark stops, so
// the growing staleness gauge reports the divergence instead of silently
// skipping a lost mutation.
func (s *System) replicate() error {
	for {
		err := task.Do(s.applyQueued)
		if err == nil {
			return nil
		}
		s.replErr.CompareAndSwap(nil, &err)
	}
}

// applyQueued applies mutations until one fails or the channel is closed.
func (s *System) applyQueued() error {
	for mut := range s.replCh {
		if s.ReplicationErr() != nil {
			continue // halted: drain without applying
		}
		if err := s.Col.Apply(mut); err != nil {
			return err
		}
	}
	return nil
}

// ReplicationErr reports the error that halted replication, if any. While
// non-nil the watermark no longer advances and Staleness grows.
func (s *System) ReplicationErr() error {
	if p := s.replErr.Load(); p != nil {
		return *p
	}
	return nil
}

// Close stops the replication applier and the background merger, waiting
// for queued mutations to drain. A durable system then writes a final
// checkpoint, appends the clean-shutdown marker and fsyncs the log, so
// the next Open is a clean restart with an empty replay tail. The system
// stays readable; further DML fails. Idempotent — double-close from tests
// and signal handlers is safe.
func (s *System) Close() {
	s.closeOnce.Do(func() {
		if s.ckpt != nil {
			s.ckpt.Stop()
		}
		s.writeMu.Lock()
		s.closed = true
		close(s.replCh)
		s.writeMu.Unlock()
		_ = s.applier.Wait() // a failure is in ReplicationErr
		s.Col.StopMerger()
		if s.wal != nil {
			// final checkpoint first (it appends its own marker), then the
			// shutdown marker so the log's last record names a clean exit
			if s.ckpt != nil {
				_, _ = s.ckpt.CheckpointNow()
			}
			_ = s.wal.Append(wal.Record{LSN: s.CommitLSN(), Kind: wal.KindShutdown})
			_ = s.wal.Sync()
			_ = s.wal.Close()
		}
	})
}

// CommitLSN returns the primary's last committed LSN.
func (s *System) CommitLSN() uint64 { return s.Row.CommitLSN() }

// Watermark returns the column store's replication watermark: every AP
// read reflects at least all commits up to it.
func (s *System) Watermark() uint64 { return s.Col.Watermark() }

// Staleness returns how many committed LSNs the column store lags the
// primary — the freshness gauge the gateway exports on /metrics.
func (s *System) Staleness() uint64 {
	c, w := s.CommitLSN(), s.Watermark()
	if w >= c {
		return 0
	}
	return c - w
}

// WaitFresh blocks until the replication watermark reaches the primary's
// current commit LSN (bounded staleness made zero for a moment), the
// timeout expires, or replication has failed.
func (s *System) WaitFresh(timeout time.Duration) error {
	target := s.CommitLSN()
	deadline := time.Now().Add(timeout)
	for {
		if err := s.ReplicationErr(); err != nil {
			return fmt.Errorf("htap: replication failed: %w", err)
		}
		if s.Watermark() >= target {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("htap: watermark %d did not reach LSN %d within %v",
				s.Watermark(), target, timeout)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// AddIndex creates a secondary index in both the catalog (so optimizers
// see it) and the row store (so TP can use it) — the paper's "additional
// user context: an index has been created on c_phone" scenario.
func (s *System) AddIndex(table, column, name string) error {
	if err := s.Cat.AddIndex(table, column, name); err != nil {
		return err
	}
	return s.Row.BuildIndex(table, column)
}

// DropIndex removes a secondary index from catalog and row store.
func (s *System) DropIndex(table, column string) error {
	if err := s.Cat.DropIndex(table, column); err != nil {
		return err
	}
	return s.Row.DropIndex(table, column)
}

// Result is the outcome of running one query on both engines: the modeled
// part every consumer of the system reads, and the physical outputs the
// differential tests and the benchmark's reference check read.
type Result struct {
	plan.Modeled
	// Physical execution outputs (scaled-down data).
	TPRows, APRows   []value.Row
	TPStats, APStats exec.Stats
	// ResultsAgree reports whether both engines returned row sets of the
	// same cardinality and multiset content (a correctness cross-check of
	// the two independent engine implementations).
	ResultsAgree bool
}

// Model plans the query on both engines and models each plan's latency at
// the paper's deployment scale, without executing it. This is the
// execution result the explanation pipeline is grounded in; Run returns
// the same value beside the rows.
func (s *System) Model(sql string) (*plan.Modeled, error) {
	tpPlan, apPlan, err := s.planBoth(sql)
	if err != nil {
		return nil, err
	}
	m := model(sql, tpPlan, apPlan)
	return &m, nil
}

func model(sql string, tpPlan, apPlan *optimizer.PhysPlan) plan.Modeled {
	return plan.NewModeled(plan.Pair{SQL: sql, TP: tpPlan.Explain, AP: apPlan.Explain},
		latency.Estimate(tpPlan.Explain), latency.Estimate(apPlan.Explain))
}

func (s *System) planBoth(sql string) (tpPlan, apPlan *optimizer.PhysPlan, err error) {
	sel, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, nil, err
	}
	tpPlan, err = s.Planner.PlanTP(sel)
	if err != nil {
		return nil, nil, fmt.Errorf("htap: TP planning: %w", err)
	}
	apPlan, err = s.Planner.PlanAP(sel)
	if err != nil {
		return nil, nil, fmt.Errorf("htap: AP planning: %w", err)
	}
	return tpPlan, apPlan, nil
}

// Run plans and executes the query on both engines: the two-engine
// differential reference of the tests and of the benchmark's reply check.
// Nothing that explains a query calls it (TestExplainPipelineNeverExecutes).
func (s *System) Run(sql string) (*Result, error) {
	tpPlan, apPlan, err := s.planBoth(sql)
	if err != nil {
		return nil, err
	}
	tpCtx, apCtx := exec.NewContext(), exec.NewContext()
	tpRows, err := tpPlan.Execute(tpCtx)
	if err != nil {
		return nil, fmt.Errorf("htap: TP execution: %w", err)
	}
	apRows, err := apPlan.Execute(apCtx)
	if err != nil {
		return nil, fmt.Errorf("htap: AP execution: %w", err)
	}
	return &Result{
		Modeled:      model(sql, tpPlan, apPlan),
		TPRows:       tpRows,
		APRows:       apRows,
		TPStats:      tpCtx.Stats,
		APStats:      apCtx.Stats,
		ResultsAgree: sameCardinality(tpRows, apRows),
	}, nil
}

// sameCardinality cross-checks the two engines' outputs. Ordered queries
// must match positionally on the order keys' effect (we compare full rows
// as multisets, which both satisfies unordered semantics and catches
// gross divergence).
func sameCardinality(a, b []value.Row) bool {
	if len(a) != len(b) {
		return false
	}
	counts := make(map[string]int, len(a))
	for _, r := range a {
		counts[rowKey(r)]++
	}
	for _, r := range b {
		counts[rowKey(r)]--
	}
	for _, c := range counts {
		if c != 0 {
			return false
		}
	}
	return true
}

// rowKey renders a row for multiset comparison, rounding floats so that
// the two engines' different accumulation orders do not yield spurious
// mismatches in aggregate sums. Rounding happens numerically before
// formatting, and a zero result is normalized to +0: otherwise -0.0 (or a
// tiny negative sum like -1e-9) renders as "-0.0000" while +0.0 renders
// as "0.0000", splitting values that are equal under the rounding
// tolerance into different multiset keys.
func rowKey(r value.Row) string {
	var b []byte
	for _, v := range r {
		if v.K == value.KindFloat {
			f := math.Round(v.Float()*1e4) / 1e4
			if f == 0 {
				f = 0 // collapse -0.0 into +0.0
			}
			b = append(b, fmt.Sprintf("f%.4f|", f)...)
			continue
		}
		b = append(b, v.Key()...)
		b = append(b, '|')
	}
	return string(b)
}
