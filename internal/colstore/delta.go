package colstore

import (
	"fmt"
	"slices"
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
	rids []int64     // parallel: primary-assigned RID per row, ascending
	dead []bool      // parallel: tombstoned before merging
	// deadCount is the number of set tombstones.
	deadCount int
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
	pending   atomic.Int64  // delta slots + base deletes awaiting merge, across tables
	notify    chan struct{} // pokes the background merger on threshold
}

func (r *replState) init() {
	r.notify = make(chan struct{}, 1)
}

// Watermark returns the LSN of the last mutation folded into the delta
// layer — the freshness bound AP reads are guaranteed to reflect.
func (s *Store) Watermark() uint64 { return s.repl.watermark.Load() }

// PendingDelta returns the number of un-merged delta operations across all
// tables (delta slots plus base deletes applied since the last merge).
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

// apply folds the mutation into the table and reports how many pending
// merge operations it added. It validates every operation before mutating
// anything, so a failed mutation is all-or-nothing.
func (t *Table) apply(mut *repl.Mutation) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()

	// phase 1: validate and resolve
	var basePos []int32
	var deltaIdx []int
	for _, rid := range mut.Deletes {
		if pos, ok := t.basePosLocked(rid); ok {
			basePos = append(basePos, pos)
			continue
		}
		di, ok := slices.BinarySearch(t.delta.rids, rid)
		if !ok || t.delta.dead[di] {
			return 0, fmt.Errorf("colstore: %s has no row version %d to delete", mut.Table, rid)
		}
		deltaIdx = append(deltaIdx, di)
	}
	dead := t.baseDead
	if len(basePos) > 0 {
		var ok bool
		if dead, ok = dead.with(basePos); !ok {
			return 0, fmt.Errorf("colstore: %s deletes a base row twice", mut.Table)
		}
	}
	slices.Sort(deltaIdx)
	for i := 1; i < len(deltaIdx); i++ {
		if deltaIdx[i] == deltaIdx[i-1] {
			return 0, fmt.Errorf("colstore: %s deletes row version %d twice", mut.Table, t.delta.rids[deltaIdx[i]])
		}
	}
	last := t.lastRIDLocked()
	for _, ins := range mut.Inserts {
		if len(ins.Row) != len(t.Meta.Columns) {
			return 0, fmt.Errorf("colstore: %s expects %d columns, got %d",
				mut.Table, len(t.Meta.Columns), len(ins.Row))
		}
		if ins.RID <= last {
			return 0, fmt.Errorf("colstore: %s insert RID %d does not follow the table's last RID %d",
				mut.Table, ins.RID, last)
		}
		last = ins.RID
	}

	// phase 2: mutate
	t.baseDead = dead
	t.deadSinceMerge += len(basePos)
	for _, di := range deltaIdx {
		t.delta.dead[di] = true
		t.delta.deadCount++
	}
	for _, ins := range mut.Inserts {
		t.delta.rows = append(t.delta.rows, ins.Row)
		t.delta.rids = append(t.delta.rids, ins.RID)
		t.delta.dead = append(t.delta.dead, false)
	}
	return len(basePos) + len(mut.Inserts), nil
}

// basePosLocked resolves a primary RID to a base position, if the version
// lives in the merged base. Caller holds t.mu.
func (t *Table) basePosLocked(rid int64) (int32, bool) {
	if t.baseRID != nil {
		pos, ok := slices.BinarySearch(t.baseRID, rid)
		return int32(pos), ok
	}
	// identity mapping of the initial bulk load
	if rid >= 0 && rid < int64(t.numRows) {
		return int32(rid), true
	}
	return 0, false
}

// lastRIDLocked returns the largest RID the table holds, merged or not,
// live or deleted (-1 when it holds none): a replicated insert must exceed
// it, which is what keeps baseRID and the delta's rids ascending. Caller
// holds t.mu.
func (t *Table) lastRIDLocked() int64 {
	switch {
	case len(t.delta.rids) > 0:
		return t.delta.rids[len(t.delta.rids)-1]
	case len(t.baseRID) > 0:
		return t.baseRID[len(t.baseRID)-1]
	default: // the identity mapping, or no rows at all
		return int64(t.numRows) - 1
	}
}
