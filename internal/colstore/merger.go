package colstore

import (
	"sort"
	"sync/atomic"
	"time"

	"htapxplain/internal/task"
	"htapxplain/internal/value"
)

// mergeThreshold is the pending-delta size (rows + tombstones, across
// tables) that wakes the background merger between ticks.
const mergeThreshold = 256

// mergeInterval is the background merger's tick period: the upper bound on
// how long a small delta lingers before compaction.
const mergeInterval = 50 * time.Millisecond

// mergerState is the background compaction bookkeeping.
type mergerState struct {
	loop task.Loop // a pass is one MergeAll; a pass that panics is in loop.Err()

	merges     atomic.Int64 // tables compacted
	rowsMerged atomic.Int64 // rows written into fresh base chunks
}

// MergeStats is a snapshot of the background merger's work counters.
type MergeStats struct {
	Merges     int64 `json:"merges"`
	RowsMerged int64 `json:"rows_merged"`
}

// MergeStats returns the compaction counters.
func (s *Store) MergeStats() MergeStats {
	return MergeStats{
		Merges:     s.merger.merges.Load(),
		RowsMerged: s.merger.rowsMerged.Load(),
	}
}

// StartMerger launches the background merger: it compacts every table's
// delta into fresh base chunks every 50 ms, and at once when the pending
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

// MergeAll synchronously compacts every table with a pending delta,
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
		if ops == 0 && rows == 0 {
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

// merge compacts the table's delta into fresh immutable base chunks:
// surviving base values and delta rows are copied into brand-new columns
// with rebuilt zone maps and freshly chosen per-chunk encodings (the
// merger is the encoding-selection point: post-merge statistics decide
// dictionary/FoR/RLE/raw per chunk, per column under the store's policy),
// and the published columns pointer is swapped. Old columns are never
// touched, so concurrent views (and any execution batches aliasing or
// decoding their chunks) stay valid — the batch contract the immutability
// suite guards.
//
// It returns the number of delta operations compacted and the new base
// row count (0, 0 when there was nothing to do).
func (t *Table) merge() (ops, newN int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.baseDead) == 0 && len(t.delta.rows) == 0 {
		return 0, 0
	}
	// pending accounting: every delta slot (live or tombstoned) and every
	// base tombstone was counted once when applied
	ops = len(t.baseDead) + len(t.delta.rows)
	newN = t.numRows - len(t.baseDead) + t.delta.numLive()

	newCols := make([]*Column, len(t.columns))
	var decodeBuf []value.Value // per-chunk decode scratch, reused across columns
	for ci, old := range t.columns {
		vals := make([]value.Value, 0, newN)
		for k := 0; k < len(old.chunks); k++ {
			// decode chunk-at-a-time (raw chunks alias, encoded ones decode
			// into the scratch), then drop tombstoned positions
			ch := old.chunks[k]
			chunk := ch.Decode(decodeBuf)
			if ch.Enc != EncRaw {
				decodeBuf = chunk
			}
			base := k * ChunkSize
			for i, v := range chunk {
				if t.baseDead[int32(base+i)] {
					continue
				}
				vals = append(vals, v)
			}
		}
		for di, row := range t.delta.rows {
			if !t.delta.dead[di] {
				vals = append(vals, row[ci])
			}
		}
		// re-encode: the merger is where chunk encodings are (re)chosen
		// from fresh post-compaction statistics
		newCols[ci] = newColumn(old.Name, vals, t.policy)
	}

	newRID := make([]int64, 0, newN)
	for pos := 0; pos < t.numRows; pos++ {
		if t.baseDead[int32(pos)] {
			continue
		}
		if t.baseRID != nil {
			newRID = append(newRID, t.baseRID[pos])
		} else {
			newRID = append(newRID, int64(pos))
		}
	}
	for di, rid := range t.delta.rids {
		if !t.delta.dead[di] {
			newRID = append(newRID, rid)
		}
	}
	ridPos := make(map[int64]int32, len(newRID))
	for i, rid := range newRID {
		ridPos[rid] = int32(i)
	}

	t.columns = newCols
	t.numRows = newN
	t.baseRID = newRID
	t.ridPos = ridPos
	t.baseDead = nil
	t.delta = tableDelta{}
	return ops, newN
}
