// EXPLAIN ANALYZE instrumentation: Instrument wraps every operator of a
// private plan tree in an analyzeOp that measures wall time and row flow
// into a shared OpProfile tree. The wrappers are transparent to the
// morsel-parallel fork machinery (parallel.go special-cases them), so an
// instrumented DOP>1 query forks exactly like an uninstrumented one —
// worker clones of a wrapper record into the same OpProfile through
// atomic counters.
package exec

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// OpProfile accumulates the measured execution profile of one plan
// operator. Counters are atomics because parallel worker clones of the
// operator all record into the one profile.
type OpProfile struct {
	Name     string
	Children []*OpProfile

	wallNS  atomic.Int64 // cumulative busy time (summed across workers)
	rows    atomic.Int64 // active rows emitted
	batches atomic.Int64
	workers atomic.Int64 // clones that opened this node (0 before Open)

	// leaf-scan work captured as ctx.Stats deltas around Next
	morsels       atomic.Int64
	chunksPruned  atomic.Int64
	chunksScanned atomic.Int64
	chunksEncoded atomic.Int64 // chunks served by encoded kernels
	chunksDecoded atomic.Int64 // chunks fully decoded into batch vectors
}

// OpStats is the JSON-renderable snapshot of an OpProfile tree — the
// per-operator payload of an EXPLAIN ANALYZE response.
type OpStats struct {
	Name          string     `json:"name"`
	TimeUS        int64      `json:"time_us"` // cumulative; parallel nodes sum worker busy time
	Rows          int64      `json:"rows"`
	Batches       int64      `json:"batches"`
	Workers       int64      `json:"workers,omitempty"`
	Morsels       int64      `json:"morsels,omitempty"`
	ChunksPruned  int64      `json:"chunks_pruned,omitempty"`
	ChunksScanned int64      `json:"chunks_scanned,omitempty"`
	ChunksEncoded int64      `json:"chunks_encoded,omitempty"`
	ChunksDecoded int64      `json:"chunks_decoded,omitempty"`
	Children      []*OpStats `json:"children,omitempty"`
}

// Snapshot copies the profile tree into its exportable form.
func (p *OpProfile) Snapshot() *OpStats {
	s := &OpStats{
		Name:          p.Name,
		TimeUS:        p.wallNS.Load() / 1e3,
		Rows:          p.rows.Load(),
		Batches:       p.batches.Load(),
		Workers:       p.workers.Load(),
		Morsels:       p.morsels.Load(),
		ChunksPruned:  p.chunksPruned.Load(),
		ChunksScanned: p.chunksScanned.Load(),
		ChunksEncoded: p.chunksEncoded.Load(),
		ChunksDecoded: p.chunksDecoded.Load(),
	}
	for _, c := range p.Children {
		s.Children = append(s.Children, c.Snapshot())
	}
	return s
}

// String renders the annotated plan tree, one operator per line — the
// EXPLAIN ANALYZE output format.
func (s *OpStats) String() string {
	var b strings.Builder
	var rec func(*OpStats, int)
	rec = func(n *OpStats, depth int) {
		if depth > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%s%s (actual time=%s rows=%d batches=%d",
			strings.Repeat("  ", depth), n.Name,
			time.Duration(n.TimeUS)*time.Microsecond, n.Rows, n.Batches)
		if n.Workers > 1 {
			fmt.Fprintf(&b, " workers=%d", n.Workers)
		}
		if n.Morsels > 0 {
			fmt.Fprintf(&b, " morsels=%d", n.Morsels)
		}
		if n.ChunksScanned > 0 || n.ChunksPruned > 0 {
			fmt.Fprintf(&b, " chunks=%d pruned=%d", n.ChunksScanned, n.ChunksPruned)
		}
		if n.ChunksEncoded > 0 || n.ChunksDecoded > 0 {
			fmt.Fprintf(&b, " encoded=%d decoded=%d", n.ChunksEncoded, n.ChunksDecoded)
		}
		b.WriteByte(')')
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	rec(s, 0)
	return b.String()
}

// analyzeOp is the measuring wrapper around one operator. Each wrapper
// instance is used by a single goroutine (parallel forks give every worker
// its own instance sharing the profile), so the in-flight timestamps are
// plain fields while the accumulated counters are atomic.
type analyzeOp struct {
	child BatchOperator
	prof  *OpProfile
	// leafScan marks a wrapper around a scan leaf: morsel and chunk-prune
	// counts are recovered as ctx.Stats deltas around the child's calls
	// (the worker context is goroutine-local, so the deltas are exact).
	leafScan bool
}

// Instrument wraps a private (already-cloned) operator tree for EXPLAIN
// ANALYZE and returns the instrumented root plus the profile tree that
// will fill in during execution. The input tree must not be shared: the
// wrapper tree aliases it.
func Instrument(op BatchOperator) (BatchOperator, *OpProfile) {
	prof := &OpProfile{Name: opName(op)}
	switch x := op.(type) {
	case *FilterOp:
		x.Child = instrumentChild(x.Child, prof)
	case *ProjectOp:
		x.Child = instrumentChild(x.Child, prof)
	case *LimitOp:
		x.Child = instrumentChild(x.Child, prof)
	case *TopNOp:
		x.Child = instrumentChild(x.Child, prof)
	case *SortOp:
		x.Child = instrumentChild(x.Child, prof)
	case *HashAggregate:
		x.Child = instrumentChild(x.Child, prof)
	case *NestedLoopJoin:
		x.Outer = instrumentChild(x.Outer, prof)
		x.Inner = instrumentChild(x.Inner, prof)
	case *IndexNLJoin:
		x.Outer = instrumentChild(x.Outer, prof)
	case *HashJoin:
		x.Probe = instrumentChild(x.Probe, prof)
		x.Build = instrumentChild(x.Build, prof)
	case *Gather:
		// the fragments are the gather's children in the profile; the move
		// scans that feed them are not shown
		for i := range x.Frags {
			x.Frags[i].Root = instrumentChild(x.Frags[i].Root, prof)
			frag := prof.Children[i]
			frag.Name = fmt.Sprintf("shard %d: %s", i, frag.Name)
		}
	}
	_, leaf := op.(ParallelSource)
	return &analyzeOp{child: op, prof: prof, leafScan: leaf || isScan(op)}, prof
}

func instrumentChild(op BatchOperator, parent *OpProfile) BatchOperator {
	wrapped, prof := Instrument(op)
	parent.Children = append(parent.Children, prof)
	return wrapped
}

func isScan(op BatchOperator) bool {
	switch op.(type) {
	case *RowTableScan, *RowIndexScan, *RowIndexOrderScan, *ColTableScan:
		return true
	}
	return false
}

// opName names an operator for the annotated tree, including its access
// path.
func opName(op BatchOperator) string {
	switch x := op.(type) {
	case *RowTableScan:
		return "Table Scan on " + x.Table.Meta.Name
	case *RowIndexScan:
		return fmt.Sprintf("Index Scan on %s via %s", x.Table.Meta.Name, x.Index.Column)
	case *RowIndexOrderScan:
		return fmt.Sprintf("Index Order Scan on %s via %s", x.Table.Meta.Name, x.Index.Column)
	case *ColTableScan:
		return "Column Scan on " + x.Table.Meta.Name
	case *FilterOp:
		return "Filter"
	case *ProjectOp:
		return "Projection"
	case *NestedLoopJoin:
		return "Nested loop inner join"
	case *IndexNLJoin:
		return fmt.Sprintf("Index NL join on %s via %s", x.InnerTable.Meta.Name, x.InnerIndex.Column)
	case *HashJoin:
		return "Inner hash join"
	case *HashAggregate:
		return "Aggregate"
	case *SortOp:
		return "Sort"
	case *TopNOp:
		return "Top N"
	case *LimitOp:
		return "Limit"
	case *Gather:
		return "Gather"
	case *analyzeOp:
		return x.prof.Name
	}
	return fmt.Sprintf("%T", op)
}

func (a *analyzeOp) Schema() Schema { return a.child.Schema() }

// Clone shares the profile: a clone is another execution instance of the
// same analyzed plan node.
func (a *analyzeOp) Clone() BatchOperator {
	return &analyzeOp{child: a.child.Clone(), prof: a.prof, leafScan: a.leafScan}
}

func (a *analyzeOp) Open(ctx *Context) error {
	a.prof.workers.Add(1)
	start := time.Now()
	err := a.child.Open(ctx)
	a.prof.wallNS.Add(int64(time.Since(start)))
	return err
}

func (a *analyzeOp) Next(ctx *Context) (*Batch, error) {
	var m0, s0, k0, e0, d0 int64
	if a.leafScan {
		m0 = ctx.Stats.MorselsDispatched
		s0 = ctx.Stats.ChunksSkipped
		k0 = ctx.Stats.ChunksScanned
		e0 = ctx.Stats.EncodedChunks
		d0 = ctx.Stats.DecodedChunks
	}
	start := time.Now()
	b, err := a.child.Next(ctx)
	a.prof.wallNS.Add(int64(time.Since(start)))
	if a.leafScan {
		a.prof.morsels.Add(ctx.Stats.MorselsDispatched - m0)
		a.prof.chunksPruned.Add(ctx.Stats.ChunksSkipped - s0)
		a.prof.chunksScanned.Add(ctx.Stats.ChunksScanned - k0)
		a.prof.chunksEncoded.Add(ctx.Stats.EncodedChunks - e0)
		a.prof.chunksDecoded.Add(ctx.Stats.DecodedChunks - d0)
	}
	if b != nil {
		a.prof.batches.Add(1)
		a.prof.rows.Add(int64(b.NumActive()))
	}
	return b, err
}

func (a *analyzeOp) Close() error {
	start := time.Now()
	err := a.child.Close()
	a.prof.wallNS.Add(int64(time.Since(start)))
	return err
}
