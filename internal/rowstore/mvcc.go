package rowstore

import (
	"fmt"
	"slices"
	"strings"

	"htapxplain/internal/repl"
	"htapxplain/internal/value"
)

// Snapshot reads and transactional commit application. The version heap
// already carries begin/end LSNs per slot (insertLSN/deleteLSN); this
// file adds the MVCC access paths over them:
//
//   - a reader pins a snapshot LSN S and sees exactly the versions with
//     insertLSN <= S and (deleteLSN == 0 or deleteLSN > S);
//   - a transaction buffers its writes and applies them at commit via
//     ApplyAt, which stamps every new version with the commit LSN but
//     does NOT advance the store's published commit LSN — the committer
//     publishes once, after every table of the transaction has applied,
//     so a concurrent snapshot either sees all of a commit or none of it;
//   - first-writer-wins conflict detection is a liveness check over the
//     transaction's delete set (FirstConflict): a base RID that was live
//     at the snapshot but is tombstoned now was written by a concurrent
//     committer, and the later transaction must abort.

// visibleAt reports whether the version is visible to a snapshot at LSN
// snap. Bulk-loaded rows carry insertLSN 0 and are visible to every
// snapshot.
func (v version) visibleAt(snap uint64) bool {
	return v.insertLSN <= snap && (v.deleteLSN == 0 || v.deleteLSN > snap)
}

// ScanLiveAt returns parallel snapshots of the RIDs and rows visible at
// the given snapshot LSN — the access path DML uses to evaluate WHERE
// clauses. It ignores versions committed after the snapshot, so repeated
// statements of one transaction read a stable state no matter what
// commits concurrently.
func (t *Table) ScanLiveAt(snap uint64) (rids []int64, rows []value.Row) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	rids = make([]int64, 0, t.live)
	rows = make([]value.Row, 0, t.live)
	for i, r := range t.rows {
		if t.versions[i].visibleAt(snap) {
			rids = append(rids, int64(i))
			rows = append(rows, r)
		}
	}
	return rids, rows
}

// LookupLiveAt is ScanLiveAt narrowed through the index on column: it
// returns the RIDs and rows visible at snap whose column equals one of keys
// or, when keys is nil, lies between lo and hi inclusive (a nil bound is
// open), read from the index's postings instead of the heap, each once and
// in heap order (the order ScanLiveAt gives them). The index holds only
// versions live now, so a version visible at snap but tombstoned since is
// missing from it: ok is false, and the caller must fall back to
// ScanLiveAt, when the column has no index or a delete committed after
// snap.
func (t *Table) LookupLiveAt(column string, keys []value.Value, lo, hi *value.Value, snap uint64) (rids []int64, rows []value.Row, ok bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ix, ok := t.indexes[strings.ToLower(column)]
	if !ok || t.lastDelete > snap {
		return nil, nil, false
	}
	var ids []int32
	if len(keys) == 1 { // one posting, already in heap order
		if i, found := ix.find(keys[0]); found {
			ids = ix.rowIDs[i]
		}
	} else {
		if keys == nil {
			ids = ix.rangeLocked(lo, hi)
		}
		for _, key := range keys {
			if i, found := ix.find(key); found {
				ids = append(ids, ix.rowIDs[i]...)
			}
		}
		slices.Sort(ids)
		ids = slices.Compact(ids)
	}
	rids = make([]int64, 0, len(ids))
	rows = make([]value.Row, 0, len(ids))
	for _, id := range ids {
		// every indexed version is live now; those committed after snap
		// are not yet visible to it
		if t.versions[id].insertLSN <= snap {
			rids = append(rids, int64(id))
			rows = append(rows, t.rows[id])
		}
	}
	return rids, rows, true
}

// FirstConflict reports the first RID in rids whose version is no longer
// live — i.e. a concurrent transaction deleted or updated it since the
// caller's snapshot (the caller only ever selects RIDs that were live at
// its snapshot, so any tombstone means a later writer got there first).
// The error return is reserved for internal inconsistencies (unknown
// table, out-of-range RID). Callers hold the system's commit critical
// section, so the answer cannot go stale before ApplyAt runs.
func (s *Store) FirstConflict(table string, rids []int64) (int64, bool, error) {
	t, ok := s.Table(table)
	if !ok {
		return 0, false, fmt.Errorf("rowstore: no such table %q", table)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, rid := range rids {
		if rid < 0 || rid >= int64(len(t.rows)) {
			return rid, false, fmt.Errorf("rowstore: %s has no row %d", t.Meta.Name, rid)
		}
		if t.versions[rid].deleteLSN != 0 {
			return rid, true, nil
		}
	}
	return 0, false, nil
}

// ApplyAt is the store's one writer: it applies a write set for one table
// at the given commit LSN — every insert is appended as a new live
// version, then every delete tombstoned (an UPDATE is both) — and returns
// the mutation record the WAL logs and the column store replays. Live
// commits and recovery's Replay both come through here. The store's published
// commit LSN is NOT advanced; the caller calls PublishCommit once after
// the transaction's last table, keeping multi-table commits atomic for
// snapshot readers. Nothing is applied unless the whole set validates
// (row arity, every delete a live RID). Callers hold the commit critical
// section and have validated deletes via FirstConflict, so a checkLive
// failure here is an invariant violation, not a user error.
func (s *Store) ApplyAt(table string, deletes []int64, inserts []value.Row, lsn uint64) (*repl.Mutation, error) {
	t, ok := s.Table(table)
	if !ok {
		return nil, fmt.Errorf("rowstore: no such table %q", table)
	}
	for _, r := range inserts {
		if len(r) != len(t.Meta.Columns) {
			return nil, fmt.Errorf("rowstore: %s expects %d columns, got %d",
				t.Meta.Name, len(t.Meta.Columns), len(r))
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.checkLive(deletes); err != nil {
		return nil, err
	}
	// inserts first: an UPDATE that keeps an indexed key then only
	// appends to and trims that key's posting, and never empties it (which
	// would shift the whole sorted key array out and back in). Postings
	// stay in heap order: the new RIDs are the largest.
	mut := &repl.Mutation{LSN: lsn, Table: strings.ToLower(t.Meta.Name)}
	mut.Deletes = append(mut.Deletes, deletes...)
	for _, r := range inserts {
		rid := t.appendVersion(r, lsn)
		mut.Inserts = append(mut.Inserts, repl.RowVersion{RID: rid, Row: r})
	}
	for _, rid := range deletes {
		t.tombstone(rid, lsn)
	}
	return mut, nil
}

// PublishCommit advances the store's commit LSN to lsn, making every
// version applied at or below it visible to snapshots pinned from now
// on. Callers hold the commit critical section (which is what makes the
// published LSN monotonic).
func (s *Store) PublishCommit(lsn uint64) { s.commitLSN.Store(lsn) }
