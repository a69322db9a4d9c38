package colstore

import (
	"fmt"
	"sync/atomic"

	"htapxplain/internal/repl"
	"htapxplain/internal/value"
)

// tableDelta accumulates replicated writes that have not been merged into
// base chunks yet. rows/rids are append-only; a delete of an unmerged row
// only sets its tombstone bit (O(1) — no splicing, no index rebuild), so
// the applier never does quadratic work under the table lock. Views built
// while tombstones exist get a filtered copy of the live rows; with no
// tombstones they alias rows directly.
type tableDelta struct {
	rows []value.Row // replicated inserts in replay (LSN) order
	rids []int64     // parallel: primary-assigned RID per row
	dead []bool      // parallel: tombstoned before merging
	// deadCount is the number of set tombstones.
	deadCount int
	// ridPos maps RID → index into rows for rows that are still live.
	// Only the replication applier touches it (under the table lock).
	ridPos map[int64]int
}

// liveRows returns the delta rows visible to readers: an alias of the
// append-only rows slice when nothing is tombstoned, a filtered copy
// otherwise. Caller holds the table lock (read or write).
func (d *tableDelta) liveRows() []value.Row {
	if d.deadCount == 0 {
		return d.rows[:len(d.rows):len(d.rows)]
	}
	out := make([]value.Row, 0, len(d.rows)-d.deadCount)
	for i, r := range d.rows {
		if !d.dead[i] {
			out = append(out, r)
		}
	}
	return out
}

// numLive returns the live delta row count. Caller holds the table lock.
func (d *tableDelta) numLive() int { return len(d.rows) - d.deadCount }

// replState is the store-global replication bookkeeping.
type replState struct {
	watermark atomic.Uint64 // last applied LSN
	pending   atomic.Int64  // delta slots + tombstones awaiting merge, across tables
	notify    chan struct{} // pokes the background merger on threshold
}

func (r *replState) init() {
	r.notify = make(chan struct{}, 1)
}

// Watermark returns the LSN of the last mutation folded into the delta
// layer — the freshness bound AP reads are guaranteed to reflect.
func (s *Store) Watermark() uint64 { return s.repl.watermark.Load() }

// PendingDelta returns the number of un-merged delta operations across all
// tables (delta slots plus base tombstones).
func (s *Store) PendingDelta() int64 { return s.repl.pending.Load() }

// Apply folds one replicated mutation into the target table's delta layer
// and advances the watermark. The caller must apply mutations in strictly
// increasing LSN order (the replication channel in htap does); deletes are
// applied before inserts so an UPDATE replays correctly from one
// mutation. A rejected mutation leaves the table untouched (validation
// runs before any state changes) and does not advance the watermark.
func (s *Store) Apply(mut *repl.Mutation) error {
	t, ok := s.Table(mut.Table)
	if !ok {
		return fmt.Errorf("colstore: replicated mutation for unknown table %q", mut.Table)
	}
	ops, err := t.apply(mut)
	if err != nil {
		return err
	}
	s.repl.watermark.Store(mut.LSN)
	if s.repl.pending.Add(int64(ops)) >= mergeThreshold {
		select {
		case s.repl.notify <- struct{}{}:
		default:
		}
	}
	return nil
}

// deleteTarget locates one RID to delete: either a base position or a
// delta index.
type deleteTarget struct {
	rid    int64
	inBase bool
	pos    int32 // base position when inBase
	di     int   // delta index otherwise
}

// apply folds the mutation into the table and reports how many pending
// merge operations it added. It validates every operation before mutating
// anything, so a failed mutation is all-or-nothing.
func (t *Table) apply(mut *repl.Mutation) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()

	// phase 1: validate and resolve
	targets := make([]deleteTarget, 0, len(mut.Deletes))
	seenBase := make(map[int32]bool, len(mut.Deletes))
	seenDelta := make(map[int]bool, len(mut.Deletes))
	for _, rid := range mut.Deletes {
		if pos, ok := t.basePosLocked(rid); ok {
			if t.baseDead[pos] || seenBase[pos] {
				return 0, fmt.Errorf("colstore: %s base row %d deleted twice", mut.Table, rid)
			}
			seenBase[pos] = true
			targets = append(targets, deleteTarget{rid: rid, inBase: true, pos: pos})
			continue
		}
		di, ok := t.delta.ridPos[rid]
		if !ok || seenDelta[di] {
			return 0, fmt.Errorf("colstore: %s has no row version %d to delete", mut.Table, rid)
		}
		seenDelta[di] = true
		targets = append(targets, deleteTarget{rid: rid, di: di})
	}
	for _, ins := range mut.Inserts {
		if len(ins.Row) != len(t.Meta.Columns) {
			return 0, fmt.Errorf("colstore: %s expects %d columns, got %d",
				mut.Table, len(t.Meta.Columns), len(ins.Row))
		}
	}

	// phase 2: mutate
	ops := 0
	if len(seenBase) > 0 {
		// copy-on-write, once per mutation: views alias the published map
		nd := make(map[int32]bool, len(t.baseDead)+len(seenBase))
		for k, v := range t.baseDead {
			nd[k] = v
		}
		t.baseDead = nd
	}
	for _, tgt := range targets {
		if tgt.inBase {
			t.baseDead[tgt.pos] = true
			ops++
			continue
		}
		t.delta.dead[tgt.di] = true
		t.delta.deadCount++
		delete(t.delta.ridPos, tgt.rid)
	}
	for _, ins := range mut.Inserts {
		if t.delta.ridPos == nil {
			t.delta.ridPos = make(map[int64]int)
		}
		t.delta.ridPos[ins.RID] = len(t.delta.rows)
		t.delta.rows = append(t.delta.rows, ins.Row)
		t.delta.rids = append(t.delta.rids, ins.RID)
		t.delta.dead = append(t.delta.dead, false)
		ops++
	}
	return ops, nil
}

// basePosLocked resolves a primary RID to a base position, if the version
// lives in the merged base. Caller holds t.mu.
func (t *Table) basePosLocked(rid int64) (int32, bool) {
	if t.ridPos != nil {
		pos, ok := t.ridPos[rid]
		return pos, ok
	}
	// identity mapping of the initial bulk load
	if rid >= 0 && rid < int64(t.numRows) {
		return int32(rid), true
	}
	return 0, false
}
