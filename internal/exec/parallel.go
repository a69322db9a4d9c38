// Morsel-driven intra-query parallelism. A query granted a degree of
// parallelism (Context.DOP > 1) does not change its physical plan: the
// per-morsel part of a pipeline — filters, projections, offset-free
// limits over a single ParallelSource leaf — is cloned once per worker,
// every clone draws disjoint chunk-aligned morsels from one shared cursor
// over one pinned snapshot, and a gather/merge stage recombines the
// workers' results (concatenation for drains, partition merges for
// hash aggregation and hash-join builds). Workers are a task.Group
// (forkWorkers): the first one to fail, or panic, cancels its siblings
// and fails the query with that error.
//
// The aliasing contract survives unchanged: morsels alias immutable base
// chunks, the delta snapshot is pinned exactly once per query (inside the
// shared cursor), and every worker clone owns its batch buffers — cached
// plans clone per-worker operator state instead of sharing buffers.
package exec

import (
	"sync/atomic"

	"htapxplain/internal/task"
	"htapxplain/internal/value"
)

// ParallelSource is a leaf operator whose scan can be split into
// chunk-aligned morsels drawn from a shared cursor. ForkShared pins the
// source's snapshot once, pruned under the literal vector p, and returns
// dop clones that all draw from it; each clone is a full BatchOperator
// whose Open attaches to the shared cursor instead of pinning a private
// one.
type ParallelSource interface {
	BatchOperator
	ForkShared(dop int, p *Params) []BatchOperator
}

// forkable reports whether op is a per-morsel pipeline under the literal
// vector p: a chain of operators that work row-at-a-time with no
// cross-morsel state (FilterOp, ProjectOp, offset-free LimitOp) over a
// single ParallelSource leaf. Blocking operators (aggregation, joins,
// sorts) are not forkable themselves — they parallelize their forkable
// inputs and merge.
func forkable(op BatchOperator, p *Params) bool {
	switch x := op.(type) {
	case *FilterOp:
		return forkable(x.Child, p)
	case *ProjectOp:
		return forkable(x.Child, p)
	case *LimitOp:
		// offset needs a serial view of the stream; a bounded limit forks
		// with a shared cross-worker budget. The bound counts decide: a
		// plan built with OFFSET 0 runs serial under a vector with one.
		n, offset := x.Slots.bind(p, x.N, x.Offset)
		return offset == 0 && n >= 0 && forkable(x.Child, p)
	case *analyzeOp:
		// EXPLAIN ANALYZE wrappers are transparent: a wrapped per-morsel
		// pipeline forks exactly like the bare one
		return forkable(x.child, p)
	case ParallelSource:
		return true
	}
	return false
}

// CanParallelize reports whether executing the tree with Context.DOP > 1
// would actually fork workers anywhere. Forks only happen at specific
// points — a drain of the root, or an Open-time forker (hash aggregate,
// hash-join build, sort/nested-loop child drains) somewhere in the tree —
// and Open cascades to every node, so any such interior fork point
// counts. The optimizer uses this to avoid asking the gateway for
// workers a plan can never use (a Top-N over a scan, for example, pulls
// its child serially): reserving slots for them would starve concurrent
// queries for no speedup.
func CanParallelize(op BatchOperator) bool {
	return forkable(op, nil) || hasForkPoint(op)
}

// hasForkPoint walks the tree for an Open-time forker with a forkable
// input. A forkable chain on its own does not count: an operator that
// merely pulls it (Top-N, for instance) never forks it — only a drain or
// a partitioned build/aggregate does.
func hasForkPoint(op BatchOperator) bool {
	switch x := op.(type) {
	case *HashAggregate:
		return forkable(x.Child, nil) || hasForkPoint(x.Child)
	case *HashJoin:
		return forkable(x.Build, nil) || hasForkPoint(x.Build) || hasForkPoint(x.Probe)
	case *SortOp:
		return forkable(x.Child, nil) || hasForkPoint(x.Child) // Open drains the child
	case *NestedLoopJoin:
		return forkable(x.Inner, nil) || hasForkPoint(x.Inner) || hasForkPoint(x.Outer)
	case *FilterOp:
		return hasForkPoint(x.Child)
	case *ProjectOp:
		return hasForkPoint(x.Child)
	case *LimitOp:
		return hasForkPoint(x.Child)
	case *TopNOp:
		// Top-N pulls its child serially — no fork at this node, but a
		// forker deeper in the tree still forks at its own Open
		return hasForkPoint(x.Child)
	case *IndexNLJoin:
		return hasForkPoint(x.Outer)
	case *analyzeOp:
		return hasForkPoint(x.child)
	}
	return false
}

// forkPipeline returns the pipelines a consumer of op drives with
// runForked: the per-morsel pipeline rooted at op cloned ctx.DOP times
// over one shared morsel cursor, or op alone when the pipeline is not
// forkable or parallelism is not worth it. Limits in the clones share one
// atomic row budget.
func forkPipeline(op BatchOperator, ctx *Context) []BatchOperator {
	p := ctx.Params
	if ctx.DOP <= 1 || !forkable(op, p) {
		return []BatchOperator{op}
	}
	// the source clamps to its morsel supply — fewer clones may come back
	// than asked for, and a supply too small to share runs serial
	leaves := findSource(op).ForkShared(ctx.DOP, p)
	if len(leaves) <= 1 {
		return []BatchOperator{op}
	}
	var budget *atomic.Int64
	out := make([]BatchOperator, len(leaves))
	for i := range out {
		out[i] = forkOne(op, leaves[i], p, &budget)
	}
	return out
}

// pipelineLeaf returns the leaf under a chain of per-morsel operators.
func pipelineLeaf(op BatchOperator) BatchOperator {
	for {
		switch x := op.(type) {
		case *FilterOp:
			op = x.Child
		case *ProjectOp:
			op = x.Child
		case *LimitOp:
			op = x.Child
		case *analyzeOp:
			op = x.child
		default:
			return op
		}
	}
}

// findSource returns the pipeline's ParallelSource leaf (the caller has
// established forkability).
func findSource(op BatchOperator) ParallelSource {
	return pipelineLeaf(op).(ParallelSource)
}

// rowBound returns an upper bound on the rows the pipeline op can produce —
// what its leaf holds, before any filtering — or 0 when the leaf cannot say.
// The pipeline must be open, or forked (its leaf then draws from the
// shared cursor). A hash-join build presizes its key array from it.
func rowBound(op BatchOperator) int {
	switch x := pipelineLeaf(op).(type) {
	case *ColTableScan:
		if x.shared != nil {
			return x.shared.NumMorsels() * BatchSize
		}
		if x.src != nil {
			return x.src.NumMorsels() * BatchSize
		}
	case *MemScan:
		return len(x.emit.rows)
	}
	return 0
}

// forkOne builds one worker's private pipeline clone over the given
// shared-cursor leaf. The first limit encountered lazily creates the
// shared budget all clones reuse, holding its count under p.
func forkOne(op BatchOperator, leaf BatchOperator, p *Params, budget **atomic.Int64) BatchOperator {
	switch x := op.(type) {
	case *FilterOp:
		return &FilterOp{Child: forkOne(x.Child, leaf, p, budget), Pred: x.Pred}
	case *ProjectOp:
		return &ProjectOp{Child: forkOne(x.Child, leaf, p, budget), Evals: x.Evals, Out: x.Out}
	case *LimitOp:
		if *budget == nil {
			n, _ := x.Slots.bind(p, x.N, x.Offset)
			b := &atomic.Int64{}
			b.Store(n)
			*budget = b
		}
		return &LimitOp{Child: forkOne(x.Child, leaf, p, budget), N: x.N, Slots: x.Slots, budget: *budget}
	case *analyzeOp:
		// every worker gets a private wrapper instance recording into the
		// shared profile through its atomic counters
		return &analyzeOp{child: forkOne(x.child, leaf, p, budget), prof: x.prof, leafScan: x.leafScan}
	default:
		return leaf
	}
}

// forkWorkers runs work on n goroutines and returns once all of them have:
// worker w gets the w-th of n contexts that share one cancellation scope
// nested under ctx's. The first error (a panic included, as a
// *task.PanicError) fails the call and cancels the scope, so the sibling
// workers stop at their next morsel. Worker stats are merged into ctx
// strictly after the Wait barrier — including on cancellation and error
// paths — which is the invariant that makes plain (non-atomic) reads of
// ctx.Stats safe the moment Drain/Execute returns; callers must not read
// ctx.Stats while a drain is still in flight. Morsel forks count their
// workers in Stats.ParallelWorkers themselves: a Gather's fan-out over
// shard fragments is not intra-query parallelism and does not.
func forkWorkers(ctx *Context, n int, work func(w int, wctx *Context) error) error {
	wctxs := ctx.forkScope(n)
	var g task.Group
	for i := range wctxs {
		w, wctx := i, wctxs[i]
		g.Go(func() error {
			err := task.Do(func() error { return work(w, wctx) })
			if err != nil {
				wctx.Cancel() // stop the sibling workers
			}
			return err
		})
	}
	err := g.Wait()
	for _, wctx := range wctxs {
		ctx.Stats.Add(wctx.Stats)
	}
	return err
}

// runForked executes the forked worker pipelines to completion, invoking
// consume for every batch on the worker's own goroutine — consume receives
// the worker index and the worker's context, and must only touch
// worker-indexed state (the batch is reused by the worker after consume
// returns, so consume must copy what it keeps). A drained limit budget
// cancels the workers' scope like an error does, without failing the call.
// A single pipeline is not a fork: it runs on the caller's goroutine and
// context as worker 0, so a consumer needs one routine for both cases.
func runForked(ctx *Context, pipes []BatchOperator, consume func(w int, wctx *Context, b *Batch) error) error {
	if len(pipes) == 1 {
		return runPipe(pipes[0], 0, ctx, consume)
	}
	ctx.Stats.ParallelWorkers += int64(len(pipes))
	return forkWorkers(ctx, len(pipes), func(w int, wctx *Context) error {
		return runPipe(pipes[w], w, wctx, consume)
	})
}

// runPipe drives worker w's pipeline p to exhaustion on the calling
// goroutine, closing it on every path.
func runPipe(p BatchOperator, w int, wctx *Context, consume func(w int, wctx *Context, b *Batch) error) error {
	if err := p.Open(wctx); err != nil {
		_ = p.Close()
		return err
	}
	for {
		b, err := p.Next(wctx)
		if err == nil && b != nil {
			err = consume(w, wctx, b)
		}
		if err != nil {
			_ = p.Close()
			return err
		}
		if b == nil {
			return p.Close()
		}
	}
}

// drainOp runs an already-private operator tree to completion and
// materializes its rows — the entry point for plain
// scan/filter/project(/limit) queries and for blocking operators that
// materialize a child (sorts, nested-loop inners). When the query was granted
// a degree of parallelism and the tree is a forkable per-morsel pipeline,
// every worker appends its batches to a private row slice and the slices
// are concatenated in worker order (a multiset-equivalent reordering of the
// serial output).
func drainOp(op BatchOperator, ctx *Context) ([]value.Row, error) {
	pipes := forkPipeline(op, ctx)
	parts := make([][]value.Row, len(pipes))
	err := runForked(ctx, pipes, func(w int, wctx *Context, b *Batch) error {
		parts[w] = b.AppendRows(parts[w])
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := parts[0]
	for _, p := range parts[1:] {
		out = append(out, p...)
	}
	return out, nil
}
