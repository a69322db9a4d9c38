package colstore

import (
	"sort"
	"sync/atomic"
	"time"

	"htapxplain/internal/task"
	"htapxplain/internal/value"
)

// mergeThreshold is the pending-delta size (delta rows + base deletes,
// across tables) that wakes the background merger between ticks.
const mergeThreshold = 256

// mergeInterval is the background merger's tick period: the upper bound on
// how long a small delta lingers before it is merged.
const mergeInterval = 50 * time.Millisecond

// mergerState is the background merger's bookkeeping.
type mergerState struct {
	loop task.Loop // a pass is one MergeAll; a pass that panics is in loop.Err()

	merges     atomic.Int64 // table merges that folded pending operations
	rowsMerged atomic.Int64 // rows written into fresh base chunks
}

// MergeStats is a snapshot of the background merger's work counters.
type MergeStats struct {
	Merges     int64 `json:"merges"`
	RowsMerged int64 `json:"rows_merged"`
}

// MergeStats returns the merger's work counters.
func (s *Store) MergeStats() MergeStats {
	return MergeStats{
		Merges:     s.merger.merges.Load(),
		RowsMerged: s.merger.rowsMerged.Load(),
	}
}

// StartMerger launches the background merger: it merges every table's
// delta into its base every 50 ms, and at once when the pending
// delta reaches 256 operations. Callers must StopMerger before discarding
// the store.
func (s *Store) StartMerger() {
	s.merger.loop.Start(mergeInterval, s.repl.notify, func() error {
		s.MergeAll()
		return nil
	})
}

// StopMerger stops the background merger and waits for it to exit. The
// final pending delta (if any) is left for explicit MergeAll calls.
func (s *Store) StopMerger() { s.merger.loop.Stop() }

// MergeAll synchronously merges every table with a pending delta,
// in deterministic (sorted-name) order. Safe to call concurrently with
// replication and reads; tests call it directly for deterministic merge
// points.
func (s *Store) MergeAll() MergeStats {
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	var out MergeStats
	for _, n := range names {
		ops, rows := s.tables[n].merge()
		if ops == 0 {
			continue
		}
		s.repl.pending.Add(-int64(ops))
		s.merger.merges.Add(1)
		s.merger.rowsMerged.Add(int64(rows))
		out.Merges++
		out.RowsMerged += int64(rows)
	}
	return out
}

// compactDeadFraction is the share of deleted base positions past which a
// merge compacts — rewrites the whole table without them — instead of
// appending. Below it, a deleted row costs one bit and readers skip it.
const compactDeadFraction = 0.25

// merge folds the table's delta into its base and publishes fresh
// columns. It appends: the base's full chunks and their zone maps are
// shared, the partial last chunk is decoded, and it plus the live delta
// rows are encoded and zone-mapped into new chunks, so a merge writes
// O(delta) rows and deleted positions stay where they are, in baseDead.
// Once more than compactDeadFraction of the base positions are deleted it
// compacts instead: every surviving base value and live delta row is
// copied into brand-new columns, and baseDead empties. Either way the
// merger is the encoding-selection point: each chunk it writes chooses
// dictionary/FoR/RLE/raw from its own statistics under the store's
// policy. Old columns are never touched, so concurrent views (and any
// execution batches aliasing or decoding their chunks) stay valid — the
// batch contract the immutability suite guards.
//
// It returns the number of delta operations folded and the number of
// rows written into fresh chunks (0, 0 when there was nothing to do).
func (t *Table) merge() (ops, written int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	// pending accounting: every delta slot (live or tombstoned) and every
	// base delete was counted once when applied
	ops = t.deadSinceMerge + len(t.delta.rows)
	if ops == 0 {
		return 0, 0
	}
	compact := float64(t.baseDead.Len()) > compactDeadFraction*float64(t.numRows)
	if !compact && t.delta.numLive() == 0 {
		// deletes only: they are already in baseDead
		t.deadSinceMerge = 0
		t.delta = tableDelta{}
		return ops, 0
	}
	// an append shares the full chunks and rewrites every position after
	// them; a compaction rewrites all but the deleted ones
	keep, dead := t.numRows/ChunkSize, DeadSet{}
	if compact {
		keep, dead = 0, t.baseDead
	}
	written = t.numRows - keep*ChunkSize - dead.Len() + t.delta.numLive()

	newCols := make([]*Column, len(t.columns))
	var decodeBuf []value.Value // per-chunk decode scratch, reused across columns
	for ci, old := range t.columns {
		vals := make([]value.Value, 0, written)
		for k := keep; k*ChunkSize < t.numRows; k++ {
			// decode chunk-at-a-time (raw chunks alias, encoded ones decode
			// into the scratch), dropping deleted positions if compacting
			ch := old.chunks[k]
			chunk := ch.Decode(decodeBuf)
			if ch.Enc != EncRaw {
				decodeBuf = chunk
			}
			mask := dead.Chunk(k)
			for i, v := range chunk {
				if mask == nil || !mask.Has(i) {
					vals = append(vals, v)
				}
			}
		}
		for di, row := range t.delta.rows {
			if !t.delta.dead[di] {
				vals = append(vals, row[ci])
			}
		}
		newCols[ci] = old.extend(keep, vals, t.policy)
	}

	var newRID []int64
	if compact {
		newRID = make([]int64, 0, written)
		for pos := 0; pos < t.numRows; pos++ {
			if !dead.Has(pos) {
				newRID = append(newRID, t.ridAt(pos))
			}
		}
	} else if newRID = t.baseRID; newRID == nil {
		newRID = make([]int64, t.numRows, t.numRows+t.delta.numLive())
		for pos := range newRID {
			newRID[pos] = int64(pos)
		}
	}
	for di, rid := range t.delta.rids {
		if !t.delta.dead[di] {
			newRID = append(newRID, rid)
		}
	}

	t.columns = newCols
	t.numRows = len(newRID)
	t.baseRID = newRID
	if compact {
		t.baseDead = DeadSet{}
	}
	t.deadSinceMerge = 0
	t.delta = tableDelta{}
	return ops, written
}

// ridAt returns the RID at base position pos. Caller holds t.mu.
func (t *Table) ridAt(pos int) int64 {
	if t.baseRID == nil {
		return int64(pos)
	}
	return t.baseRID[pos]
}
