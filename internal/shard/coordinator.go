package shard

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"htapxplain/internal/catalog"
	"htapxplain/internal/exec"
	"htapxplain/internal/htap"
	"htapxplain/internal/optimizer"
	"htapxplain/internal/plan"
	"htapxplain/internal/sqlparser"
	"htapxplain/internal/tpch"
	"htapxplain/internal/value"
)

// Coordinator owns a set of hash-partitioned htap.Systems and routes all
// traffic across them. Point statements (and any SELECT whose partitioned
// tables are all pinned by equality predicates to one shard) run on
// exactly one shard; everything else scatters as per-shard plan fragments
// whose outputs meet at a Gather exchange. Cross-shard transactions
// commit through a two-phase publish ordered by the coordinator's commit
// sequence (see Txn.Commit).
type Coordinator struct {
	shards []*htap.System
	scheme Scheme
	cat    *catalog.Catalog

	// fragDOP, when >0, overrides every scatter fragment's planner-chosen
	// DOP — benchmarks use it to measure shard scaling at fixed per-shard
	// parallelism.
	fragDOP int

	// commitMu serializes cross-shard commits: prepare-all / publish-all
	// runs under it, so two distributed transactions can never deadlock on
	// each other's shard write locks (shards are also always prepared in
	// ascending order).
	commitMu sync.Mutex
	// coordLSN is the coordinator's commit sequence for cross-shard
	// transactions.
	coordLSN atomic.Uint64

	met metrics
}

type metrics struct {
	shardQueries    []atomic.Int64 // per shard: statements executed there
	routedQueries   atomic.Int64   // single-shard SELECT routes
	scatterQueries  atomic.Int64   // scatter-gather SELECT executions
	scatterFanout   atomic.Int64   // total shards touched by SELECTs
	exchangeBatches atomic.Int64
	exchangeRows    atomic.Int64
	crossShardTxns  atomic.Int64
}

// Options tunes coordinator construction beyond the per-shard htap
// config.
type Options struct {
	// FragDOP, when >0, fixes every scatter fragment's DOP instead of the
	// planner's per-shard choice.
	FragDOP int
	// Dir, when non-empty, makes every shard durable under
	// Dir/shard-<i>/ (each shard keeps its own WAL and checkpoints).
	Dir string
}

// New builds an n-shard coordinator. The full dataset is generated once
// and hash-partitioned: each shard's htap.System is preloaded with the
// rows whose partition key it owns (replicated tables load everywhere),
// so shard construction costs one generation regardless of n. n=1 is the
// degenerate case whose single shard holds exactly the data a plain
// htap.System would — the reference for differential tests.
func New(n int, cfg htap.Config, opt Options) (*Coordinator, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", n)
	}
	if cfg.ModeledSF <= 0 {
		cfg.ModeledSF = htap.DefaultConfig().ModeledSF
	}
	if cfg.Data.PhysScale <= 0 {
		cfg.Data = tpch.DefaultConfig()
	}
	scheme := TPCHScheme()
	cat := catalog.TPCH(cfg.ModeledSF)
	full := cfg.Preloaded
	if full == nil {
		var err error
		full, err = tpch.Generate(cat, cfg.Data)
		if err != nil {
			return nil, err
		}
	}
	c := &Coordinator{
		shards:  make([]*htap.System, 0, n),
		scheme:  scheme,
		cat:     cat,
		fragDOP: opt.FragDOP,
	}
	c.met.shardQueries = make([]atomic.Int64, n)
	for i := 0; i < n; i++ {
		scfg := cfg
		part, err := partitionDataset(full, cat, scheme, i, n)
		if err != nil {
			c.Close()
			return nil, err
		}
		scfg.Preloaded = part
		if opt.Dir != "" {
			scfg.Durability.Dir = filepath.Join(opt.Dir, ShardDirName(i))
		}
		sys, err := htap.New(scfg)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("shard: building shard %d: %w", i, err)
		}
		c.shards = append(c.shards, sys)
	}
	return c, nil
}

// Wrap presents an already-built htap.System as a one-shard fleet, so a
// single system is served by the same code as N shards. The coordinator
// does not own the system's on-disk layout (it stays <data-dir>/, not
// <data-dir>/shard-0/); Close closes the system.
func Wrap(sys *htap.System) *Coordinator {
	c := &Coordinator{shards: []*htap.System{sys}, scheme: TPCHScheme(), cat: sys.Cat}
	c.met.shardQueries = make([]atomic.Int64, 1)
	return c
}

// ShardDirName is the on-disk directory for shard i under a durable
// coordinator's data directory.
func ShardDirName(i int) string { return fmt.Sprintf("shard-%d", i) }

// partitionDataset filters one shard's slice out of the full dataset:
// partitioned tables keep only the rows whose hashed key lands on shard
// i, replicated tables share the full row slice (safe because the MVCC
// heap never mutates loaded rows in place — updates are tombstone +
// fresh insert).
func partitionDataset(full *tpch.Dataset, cat *catalog.Catalog, scheme Scheme, i, n int) (*tpch.Dataset, error) {
	part := &tpch.Dataset{
		Cat:       full.Cat,
		Tables:    make(map[string][]value.Row, len(full.Tables)),
		Seed:      full.Seed,
		PhysScale: full.PhysScale,
	}
	for name, rows := range full.Tables {
		pcol, ok := scheme.PartitionColumn(name)
		if !ok || n == 1 {
			part.Tables[name] = rows
			continue
		}
		meta, ok := cat.Table(name)
		if !ok {
			return nil, fmt.Errorf("shard: partitioned table %q missing from catalog", name)
		}
		ci := meta.ColumnIndex(pcol)
		if ci < 0 {
			return nil, fmt.Errorf("shard: table %q has no partition column %q", name, pcol)
		}
		var mine []value.Row
		for _, r := range rows {
			if ShardOf(r[ci], n) == i {
				mine = append(mine, r)
			}
		}
		part.Tables[name] = mine
	}
	return part, nil
}

// NumShards returns the shard count.
func (c *Coordinator) NumShards() int { return len(c.shards) }

// Shard exposes one shard's htap.System: the gateway plans and executes
// pinned statements on the owning shard itself.
func (c *Coordinator) Shard(i int) *htap.System { return c.shards[i] }

// Catalog returns the shared (per-shard identical) catalog.
func (c *Coordinator) Catalog() *catalog.Catalog { return c.cat }

// Close shuts every shard down (final checkpoints when durable).
func (c *Coordinator) Close() {
	for _, s := range c.shards {
		if s != nil {
			s.Close()
		}
	}
}

// CommitLSN sums the shards' commit LSNs — a monotonic progress gauge
// for the whole fleet (individual shards advance independently).
func (c *Coordinator) CommitLSN() uint64 {
	var sum uint64
	for _, s := range c.shards {
		sum += s.CommitLSN()
	}
	return sum
}

// Watermark sums the shards' replication watermarks.
func (c *Coordinator) Watermark() uint64 {
	var sum uint64
	for _, s := range c.shards {
		sum += s.Watermark()
	}
	return sum
}

// Staleness sums the shards' replication lags.
func (c *Coordinator) Staleness() uint64 {
	var sum uint64
	for _, s := range c.shards {
		sum += s.Staleness()
	}
	return sum
}

// WaitFresh blocks until every shard's column store has caught up to the
// commit LSN it had when the call started.
func (c *Coordinator) WaitFresh(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, s := range c.shards {
		if err := s.WaitFresh(time.Until(deadline)); err != nil {
			return err
		}
	}
	return nil
}

// TxnStats sums the shards' transaction outcome counters. A cross-shard
// transaction counts once per participating shard.
func (c *Coordinator) TxnStats() htap.TxnStats {
	var t htap.TxnStats
	for _, s := range c.shards {
		st := s.TxnStats()
		t.Begun += st.Begun
		t.Committed += st.Committed
		t.Aborted += st.Aborted
		t.Conflicted += st.Conflicted
	}
	return t
}

// ---------------------------------------------------------------------------
// Read path

// Route analyzes a SELECT and decides where it runs: a shard number when
// every partitioned table it touches pins (via an equality predicate on
// its partition key) to the same shard, or -1 when the statement must
// scatter. The DistDecision is returned so a scatter can reuse it, and so
// Target can route the template's other statements. A one-shard fleet
// pins every statement to shard 0 without parsing it (and returns no
// decision): the single-system hot path pays nothing for routing.
func (c *Coordinator) Route(sql string) (int, *optimizer.DistDecision, error) {
	if len(c.shards) == 1 {
		return 0, nil, nil
	}
	sel, err := sqlparser.Parse(sql)
	if err != nil {
		return 0, nil, err
	}
	dec, err := optimizer.AnalyzeDist(c.cat, sel, c.scheme)
	if err != nil {
		return 0, nil, err
	}
	return c.Target(dec, nil), dec, nil
}

// Target is Route's answer for a statement of dec's template under the
// literal vector p, without parsing it: the shard the bound partition keys
// all hash to, -1 when they disagree or a partitioned table is unpinned,
// and shard 0 for a statement over replicated tables only (or any
// statement on a one-shard fleet, whose dec is nil).
func (c *Coordinator) Target(dec *optimizer.DistDecision, p *exec.Params) int {
	if dec == nil {
		return 0
	}
	target := 0
	for i, pt := range dec.Partitioned {
		if !pt.Pinned {
			return -1
		}
		s := ShardOf(p.Value(pt.Slot, pt.Key), len(c.shards))
		if i > 0 && s != target {
			return -1
		}
		target = s
	}
	return target
}

// NoteRouted records the routing counters for a single-shard SELECT. The
// coordinator executes no read itself: the gateway plans, caches and
// executes queries so they flow through its plan cache, engine picker,
// admission ledger and calibrator; only the bookkeeping lands here.
func (c *Coordinator) NoteRouted(i int) {
	c.met.shardQueries[i].Add(1)
	c.met.routedQueries.Add(1)
	c.met.scatterFanout.Add(1) // routed queries touch exactly one shard
}

// NoteScatter is NoteRouted for an executed PlanScatter plan: it touched
// every shard and moved st's exchange traffic.
func (c *Coordinator) NoteScatter(st *exec.Stats) {
	c.met.scatterQueries.Add(1)
	c.met.scatterFanout.Add(int64(len(c.shards)))
	for i := range c.met.shardQueries {
		c.met.shardQueries[i].Add(1)
	}
	c.met.exchangeBatches.Add(st.ExchangeBatches)
	c.met.exchangeRows.Add(st.ExchangeRows)
}

// PlanScatter plans a SELECT no single shard owns as one ordinary plan:
// the coordinator's final stage (merge aggregate / sort / limit / project)
// over an exec.Gather that owns one fragment per shard, each planned by
// its shard against local storage, and the scans that move tables the
// fragments cannot join locally. Planning reads no storage and runs
// nothing — the moves are the first step of every execution. dec may be
// nil (it is re-derived) or the decision Route returned for the same sql.
// The plan's DOP is the fragments' total worker demand; executed with
// less, the fragments share what the context grants.
func (c *Coordinator) PlanScatter(sql string, dec *optimizer.DistDecision) (*optimizer.PhysPlan, error) {
	sel, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	if dec == nil {
		if dec, err = optimizer.AnalyzeDist(c.cat, sel, c.scheme); err != nil {
			return nil, err
		}
	}
	n := len(c.shards)
	g := &exec.Gather{}
	moved := make(map[string]bool, len(dec.Moves))

	// Each move is a scan of the table on every shard, with its filter
	// conjuncts pushed into the scan.
	for _, m := range dec.Moves {
		meta, ok := c.cat.Table(m.Table)
		if !ok {
			return nil, fmt.Errorf("shard: no such table %q", m.Table)
		}
		mv := exec.Move{Key: strings.ToLower(m.Binding), Scans: make([]exec.BatchOperator, n)}
		if !m.Broadcast {
			ci := meta.ColumnIndex(m.ShuffleCol)
			if ci < 0 {
				return nil, fmt.Errorf("shard: table %q has no column %q to shuffle on", m.Table, m.ShuffleCol)
			}
			mv.Route = func(r value.Row) (int, error) { return ShardOf(r[ci], n), nil }
		}
		for s := range mv.Scans {
			phys, err := c.shards[s].Planner.PlanAP(optimizer.MoveScanSelect(m))
			if err != nil {
				return nil, fmt.Errorf("shard: planning move scan of %s on shard %d: %w", m.Table, s, err)
			}
			mv.Scans[s] = phys.Root
		}
		g.Moves = append(g.Moves, mv)
		moved[mv.Key] = true
	}

	var phys *optimizer.PhysPlan
	dop := 0
	for s := 0; s < n; s++ {
		frag, final, err := c.shards[s].Planner.PlanFragment(sel, moved, g)
		if err != nil {
			return nil, fmt.Errorf("shard: planning fragment on shard %d: %w", s, err)
		}
		if c.fragDOP > 0 {
			g.Frags[s].DOP = c.fragDOP
		}
		dop += max(1, g.Frags[s].DOP)
		if s == 0 {
			// fragment plans differ across shards only in their
			// cardinalities; EXPLAIN shows shard 0's under the gather
			phys = final
			phys.Explain = &plan.Node{Op: plan.OpTableScan, Engine: plan.AP,
				Cost: frag.Cost, Rows: frag.Rows,
				Relation: fmt.Sprintf("gather (%d shards)", n), Children: []*plan.Node{frag}}
		}
	}
	phys.DOP = dop
	return phys, nil
}

// Scatter is a PlanScatter plan behind the two calls bench/layers.go's
// probe is compiled against.
type Scatter struct {
	c    *Coordinator
	plan *optimizer.PhysPlan
}

// PrepareScatter is PlanScatter.
func (c *Coordinator) PrepareScatter(sql string, dec *optimizer.DistDecision) (*Scatter, error) {
	phys, err := c.PlanScatter(sql, dec)
	if err != nil {
		return nil, err
	}
	return &Scatter{c: c, plan: phys}, nil
}

// Run executes the plan at its own DOP and counts it.
func (sc *Scatter) Run() ([]value.Row, exec.Stats, error) {
	ctx := exec.NewContext()
	ctx.DOP = sc.plan.DOP
	rows, err := sc.plan.Execute(ctx)
	sc.c.NoteScatter(&ctx.Stats)
	return rows, ctx.Stats, err
}
