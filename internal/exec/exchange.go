// The exchange operator family moves rows between shard-local pipelines
// in a distributed plan. Within a shard the batch contract is untouched
// (vectors alias or decode that shard's storage, never mutate); rows that
// cross a shard boundary are always freshly materialized via
// Batch.AppendRows, so no pipeline ever aliases another shard's chunks.
//
//   - Gather is the consumer side and the owner of a scatter's inputs: an
//     ordinary BatchOperator whose children are the per-shard fragment
//     trees and the move scans. Open runs the moves, then the fragments
//     (forkWorkers, one worker per fragment), and Next streams the union
//     of the fragments' rows to the coordinator's final stage.
//   - Shuffle is the repartitioning sender: it drains a shard-local
//     pipeline and routes every row to one of N destinations by a
//     caller-supplied partition function (hash of the join key), so a
//     non-co-partitioned join side can be re-aligned to the owning shards.
//   - Broadcast is the replicating sender: every row goes to all N
//     destinations (the small side of a join with no usable partitioning).
//   - MemScan is the receiving leaf inside a fragment: it reads the
//     rows a move delivered to its shard from the execution's Context.
//
// Exchange work counters are recorded where rows enter their destination:
// Gather counts on receive, Shuffle/Broadcast count on send — so summing
// producer and consumer contexts never double-counts a row.
package exec

import (
	"fmt"

	"htapxplain/internal/value"
)

// RowSink receives materialized row slabs from a sending exchange. Send
// reports false when the receiver has gone away (the query was canceled);
// senders should stop producing. Implementations must tolerate concurrent
// senders only if documented — Shuffle/Broadcast drive each sink from one
// goroutine.
type RowSink interface {
	Send(rows []value.Row) bool
}

// RowBuffer is the materializing RowSink: it accumulates every slab into
// Rows. Used for exchange destinations that must be complete before the
// consumer runs against them (a move's per-shard deliveries).
type RowBuffer struct {
	Rows []value.Row
}

func (b *RowBuffer) Send(rows []value.Row) bool {
	b.Rows = append(b.Rows, rows...)
	return true
}

// Fragment is one shard's input to a Gather: the shard-local operator tree
// and the planner-chosen degree of parallelism it is worth.
type Fragment struct {
	Root BatchOperator
	DOP  int
}

// Move re-aligns one table for a scatter's fragments: Scans[s] is the
// sending scan on shard s, and every row it yields is delivered to the
// fragment Route names — to every fragment when Route is nil (broadcast) —
// where the MemScan with the same Key reads it. Scans are templates: each
// execution drains a clone of its own and drops it. The clone borrows its
// decode targets from the exec-wide recycler and gives them back when the
// drain closes it, so a move allocates none once the recycler is warm and
// a pooled gather holds none between runs.
type Move struct {
	Key   string
	Scans []BatchOperator
	Route func(value.Row) (int, error)
}

// Gather is the gather exchange. It owns its inputs, so a plan rooted
// above one clones, pools and re-runs like any other: nothing a run
// produced lives in the operator between runs. Open is the whole
// execution — moves first, sequentially on the caller's context, then
// every fragment on its own worker at min(its DOP, an equal share of
// ctx.DOP); Next only re-chunks the fragments' row sets. The first
// fragment to fail or panic fails the query and cancels its siblings.
type Gather struct {
	Frags []Fragment
	Moves []Move

	parts [][]value.Row
	part  int
	emit  rowEmitter
}

func (g *Gather) Schema() Schema { return g.Frags[0].Root.Schema() }

func (g *Gather) Clone() BatchOperator {
	c := &Gather{Frags: make([]Fragment, len(g.Frags)), Moves: g.Moves}
	for i, f := range g.Frags {
		c.Frags[i] = Fragment{Root: f.Root.Clone(), DOP: f.DOP}
	}
	return c
}

func (g *Gather) Open(ctx *Context) error {
	n := len(g.Frags)
	var inbox []map[string][]value.Row
	if len(g.Moves) > 0 {
		var err error
		if inbox, err = g.runMoves(ctx); err != nil {
			return err
		}
	}
	share := max(1, ctx.DOP/n)
	if len(g.parts) != n {
		g.parts = make([][]value.Row, n)
	}
	err := forkWorkers(ctx, n, func(w int, wctx *Context) error {
		wctx.DOP = min(g.Frags[w].DOP, share)
		if inbox != nil {
			wctx.exchange = inbox[w]
		}
		rows, err := drainOp(g.Frags[w].Root, wctx)
		g.parts[w] = rows
		return err
	})
	if err != nil {
		return err
	}
	for _, rows := range g.parts {
		ctx.Stats.ExchangeRows += int64(len(rows))
		ctx.Stats.ExchangeBatches += int64((len(rows) + BatchSize - 1) / BatchSize)
	}
	g.part = 0
	g.emit.reset(g.parts[0], len(g.Schema()))
	return nil
}

// runMoves drains every move's scans into per-fragment deliveries:
// inbox[f][key] is what fragment f's MemScan for key reads.
func (g *Gather) runMoves(ctx *Context) ([]map[string][]value.Row, error) {
	n := len(g.Frags)
	inbox := make([]map[string][]value.Row, n)
	for i := range inbox {
		inbox[i] = make(map[string][]value.Row, len(g.Moves))
	}
	for _, m := range g.Moves {
		bufs := make([]RowBuffer, n)
		sinks := make([]RowSink, n)
		for i := range bufs {
			sinks[i] = &bufs[i]
		}
		for s, scan := range m.Scans {
			var err error
			if m.Route == nil {
				err = (&Broadcast{Dests: sinks}).Run(ctx, scan.Clone())
			} else {
				err = (&Shuffle{Route: m.Route, Dests: sinks}).Run(ctx, scan.Clone())
			}
			if err != nil {
				return nil, fmt.Errorf("exec: moving %s from shard %d: %w", m.Key, s, err)
			}
		}
		for i := range bufs {
			inbox[i][m.Key] = bufs[i].Rows
		}
	}
	return inbox, nil
}

func (g *Gather) Next(ctx *Context) (*Batch, error) {
	for {
		if b := g.emit.next(ctx); b != nil {
			return b, nil
		}
		if g.part+1 >= len(g.parts) {
			return nil, nil
		}
		g.parts[g.part] = nil
		g.part++
		g.emit.reset(g.parts[g.part], len(g.Schema()))
	}
}

func (g *Gather) Close() error {
	clear(g.parts)
	g.emit.rows = nil
	return nil
}

// Shuffle is the repartitioning exchange sender: Run drains a shard-local
// pipeline and routes every materialized row to Dests[Route(row)],
// flushing per-destination slabs at batch granularity. Route must be a
// pure function of the row (the hash partitioner), so the same key always
// lands on the same destination regardless of which shard sent it.
type Shuffle struct {
	Route func(value.Row) (int, error)
	Dests []RowSink
}

func (s *Shuffle) Run(ctx *Context, op BatchOperator) error {
	bufs := make([][]value.Row, len(s.Dests))
	flush := func(d int) bool {
		if len(bufs[d]) == 0 {
			return true
		}
		ctx.Stats.ExchangeBatches++
		ctx.Stats.ExchangeRows += int64(len(bufs[d]))
		ok := s.Dests[d].Send(bufs[d])
		bufs[d] = nil
		return ok
	}
	var routeErr error
	err := sendRows(ctx, op, func(rows []value.Row) bool {
		for _, r := range rows {
			d, err := s.Route(r)
			if err != nil {
				routeErr = err
				return false
			}
			bufs[d] = append(bufs[d], r)
			if len(bufs[d]) >= BatchSize && !flush(d) {
				return false
			}
		}
		return true
	})
	if err == nil {
		err = routeErr
	}
	if err != nil {
		return err
	}
	for d := range bufs {
		if !flush(d) {
			break
		}
	}
	return nil
}

// Broadcast is the replicating exchange sender: Run drains a shard-local
// pipeline and sends every materialized row slab to all destinations.
type Broadcast struct {
	Dests []RowSink
}

func (b *Broadcast) Run(ctx *Context, op BatchOperator) error {
	return sendRows(ctx, op, func(rows []value.Row) bool {
		for _, d := range b.Dests {
			ctx.Stats.ExchangeBatches++
			ctx.Stats.ExchangeRows += int64(len(rows))
			if !d.Send(rows) {
				return false
			}
		}
		return true
	})
}

// sendRows drives op and hands each batch's freshly materialized rows to
// emit; emit returning false stops the drain early (receiver gone).
func sendRows(ctx *Context, op BatchOperator, emit func([]value.Row) bool) error {
	if err := op.Open(ctx); err != nil {
		_ = op.Close()
		return err
	}
	for {
		b, err := op.Next(ctx)
		if err != nil {
			_ = op.Close()
			return err
		}
		if b == nil {
			break
		}
		rows := b.AppendRows(nil)
		if !emit(rows) {
			break
		}
	}
	return op.Close()
}

// MemScan streams a materialized row set as batches — the leaf a fragment
// plan uses for a table whose rows arrive through a shuffle or broadcast
// exchange instead of local storage: at Open it takes the rows the
// enclosing Gather's move delivered to this fragment under Key. Rows are
// already materialized (never storage-aliased) and read-only, so a
// fragment's workers may share them.
type MemScan struct {
	Out Schema
	Key string

	emit rowEmitter
}

func (m *MemScan) Schema() Schema       { return m.Out }
func (m *MemScan) Clone() BatchOperator { return &MemScan{Out: m.Out, Key: m.Key} }

func (m *MemScan) Open(ctx *Context) error {
	rows, ok := ctx.exchange[m.Key]
	if !ok {
		return fmt.Errorf("exec: no exchange delivery for %q: a fragment runs under its Gather", m.Key)
	}
	m.emit.reset(rows, len(m.Out))
	ctx.Stats.RowsScanned += int64(len(rows))
	return nil
}

func (m *MemScan) Next(ctx *Context) (*Batch, error) {
	return m.emit.next(ctx), nil
}

func (m *MemScan) Close() error {
	m.emit.reset(nil, len(m.Out))
	return nil
}
