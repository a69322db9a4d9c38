// Package exec implements physical query execution shared by both HTAP
// engines: schema binding, a compiled expression evaluator, and pull-based
// vectorized physical operators (scans, filters, nested-loop and hash
// joins, aggregation, sort, Top-N, limit) exchanging column-vector batches
// with selection vectors. Operators record work counters in a Context; the
// latency model converts those counters into modeled wall-clock times at
// the paper's deployment scale. The legacy materializing contract survives
// as Drain.
package exec

import (
	"fmt"
	"strings"
	"sync/atomic"

	"htapxplain/internal/catalog"
	"htapxplain/internal/sqlparser"
	"htapxplain/internal/value"
)

// Col describes one column of an intermediate result: the binding (table
// alias) it came from, its name, and its logical type.
type Col struct {
	Binding string
	Name    string
	Type    catalog.ColType
}

// Schema is the ordered column list of an operator's output.
type Schema []Col

// Resolve maps a column reference to its position. Unqualified names must
// be unambiguous.
func (s Schema) Resolve(ref *sqlparser.ColumnRef) (int, error) {
	found := -1
	for i, c := range s {
		if !strings.EqualFold(c.Name, ref.Column) {
			continue
		}
		if ref.Table != "" && !strings.EqualFold(c.Binding, ref.Table) {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("exec: ambiguous column %s", ref)
		}
		found = i
	}
	if found < 0 {
		return 0, fmt.Errorf("exec: unknown column %s", ref)
	}
	return found, nil
}

// Concat returns s followed by o.
func (s Schema) Concat(o Schema) Schema {
	out := make(Schema, 0, len(s)+len(o))
	out = append(out, s...)
	out = append(out, o...)
	return out
}

// TableSchema builds the schema of a full table scan under a binding.
func TableSchema(meta *catalog.Table, binding string) Schema {
	out := make(Schema, len(meta.Columns))
	for i, c := range meta.Columns {
		out[i] = Col{Binding: binding, Name: strings.ToLower(c.Name), Type: c.Type}
	}
	return out
}

// Stats accumulates engine work counters during execution. The latency
// model translates them into modeled wall time.
type Stats struct {
	RowsScanned       int64 // heap/column rows visited by scans
	BytesScanned      int64 // modeled bytes read from storage
	IndexProbes       int64 // point lookups through an index
	JoinComparisons   int64 // nested-loop inner-row visits
	HashBuildRows     int64
	HashProbeRows     int64
	RowsSorted        int64
	RowsTopN          int64 // rows pushed through bounded Top-N selection
	GroupsCreated     int64
	OutputRows        int64
	ChunksSkipped     int64 // zone-map chunk skips (AP only)
	ChunksScanned     int64 // base chunks actually dispatched to scans (AP only)
	BatchesProduced   int64 // batches emitted by operators in the vectorized pipeline
	MorselsDispatched int64 // chunk-aligned scan morsels handed to workers
	ParallelWorkers   int64 // worker goroutines spawned by parallel operators (0 = fully serial)
	EncodedChunks     int64 // base chunks served by encoded kernels without a full decode (AP only)
	DecodedChunks     int64 // base chunks with encoded columns fully decoded into batch vectors (AP only)
	ExchangeBatches   int64 // batches moved across an exchange (shuffle/broadcast/gather) boundary
	ExchangeRows      int64 // rows moved across an exchange boundary
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.RowsScanned += o.RowsScanned
	s.BytesScanned += o.BytesScanned
	s.IndexProbes += o.IndexProbes
	s.JoinComparisons += o.JoinComparisons
	s.HashBuildRows += o.HashBuildRows
	s.HashProbeRows += o.HashProbeRows
	s.RowsSorted += o.RowsSorted
	s.RowsTopN += o.RowsTopN
	s.GroupsCreated += o.GroupsCreated
	s.OutputRows += o.OutputRows
	s.ChunksSkipped += o.ChunksSkipped
	s.ChunksScanned += o.ChunksScanned
	s.BatchesProduced += o.BatchesProduced
	s.MorselsDispatched += o.MorselsDispatched
	s.ParallelWorkers += o.ParallelWorkers
	s.EncodedChunks += o.EncodedChunks
	s.DecodedChunks += o.DecodedChunks
	s.ExchangeBatches += o.ExchangeBatches
	s.ExchangeRows += o.ExchangeRows
}

// Context carries per-query execution state: the work counters, the degree
// of parallelism granted to the query, the literal vector it runs under,
// and a cancellation scope.
type Context struct {
	Stats Stats
	// DOP is the number of workers this execution may spread morsel-driven
	// pipelines across. 0 and 1 both mean serial execution; parallel
	// operators fork min(DOP, morsel supply) workers at Open. The gateway
	// sets it to the admission-granted worker count; direct callers
	// (htap.Run, tests) leave it at the serial default.
	DOP int
	// Params is the literal vector the plan executes under (see Bind);
	// direct callers leave it nil and the plan runs its own literals.
	// Forked workers share it.
	Params *Params
	// bound is the storage Bind fills, so a bound execution allocates no
	// vector beyond its values.
	bound Params

	// exchange holds the rows a scatter's moves delivered to the fragment
	// this context executes, by MemScan key. A Gather sets it on each
	// fragment's context; forked workers inherit it.
	exchange map[string][]value.Row

	// scope is the context's own cancellation flag, and cancel, on a
	// forked worker, the scope its fork shares (see scopeOf).
	scope  cancelScope
	cancel *cancelScope
}

// cancelScope is a shared early-termination flag. Scopes nest: a forked
// worker context observes its own scope and every ancestor's, so a limit
// firing inside one parallel fork stops that fork's workers without
// poisoning the rest of the query.
type cancelScope struct {
	done   atomic.Bool
	parent *cancelScope
}

func (c *cancelScope) canceled() bool {
	for s := c; s != nil; s = s.parent {
		if s.done.Load() {
			return true
		}
	}
	return false
}

// NewContext returns a fresh execution context (serial by default).
func NewContext() *Context { return &Context{} }

// Bind makes the context execute a plan under a statement's literals: its
// Fingerprint params, paired with slots, the slots of the statement the
// plan was built from. It reports false, leaving the context unbound, when
// they do not pair — another literal count, or a param the slot's kind
// does not take — and the statement must then be planned for itself.
func (c *Context) Bind(slots []sqlparser.Slot, params []string) bool {
	if !c.bound.pair(slots, params) {
		return false
	}
	c.Params = &c.bound
	return true
}

// scopeOf is the cancellation scope the context works in: its fork's, or
// its own. Either lives as long as the context, so Cancel and Canceled are
// safe to call from different goroutines on any context.
func (c *Context) scopeOf() *cancelScope {
	if c.cancel != nil {
		return c.cancel
	}
	return &c.scope
}

// Canceled reports whether this execution scope has been asked to stop
// early. Morsel loops poll it between morsels: a canceled scan reports
// exhaustion, which is exactly the contract LIMIT early-termination needs.
func (c *Context) Canceled() bool { return c.scopeOf().canceled() }

// Cancel asks every context sharing this scope (this context and the
// workers forked from it) to stop early.
func (c *Context) Cancel() { c.scopeOf().done.Store(true) }

// forkScope derives a child cancellation scope for one parallel fork: the
// returned contexts share a fresh cancel flag (so cross-worker limit
// termination stays local to the fork) nested under the parent's (so
// canceling the query still stops the workers). Each worker context has
// its own Stats, merged back by the forking operator.
func (c *Context) forkScope(n int) []*Context {
	scope := &cancelScope{parent: c.scopeOf()}
	out := make([]*Context, n)
	for i := range out {
		out[i] = &Context{DOP: 1, Params: c.Params, exchange: c.exchange, cancel: scope}
	}
	return out
}
