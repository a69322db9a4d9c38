// Package rowstore implements the TP engine's row-oriented storage: heap
// tables of complete rows plus ordered secondary structures (sorted-key
// indexes with binary search, the in-memory equivalent of B+trees) that
// support point lookups and range scans. The TP optimizer prefers plans
// that exploit these indexes; when no index applies it is forced into full
// scans and nested-loop joins — the situation the paper's Example 1 hinges
// on.
//
// The row store is also the system's write primary. The heap is
// append-only and versioned: every INSERT appends a new row version, an
// UPDATE appends the new version and tombstones the old one, and a DELETE
// only tombstones — stored rows are never mutated in place, which is what
// lets execution batches alias heap rows without copying. A row version's
// RID is its heap position (stable forever, since the heap never
// compacts). Secondary indexes are maintained synchronously under the
// table lock, so index lookups only ever see live versions.
//
// There is one of each: one constructor (NewStoreFromSnapshot — a bulk
// load is the snapshot at LSN 0 with no tombstones), one writer (ApplyAt:
// append the inserts, tombstone the deletes, all stamped with one commit
// LSN, returned as the repl.Mutation the WAL logs and the column store
// replays; live commits and recovery's Replay both go through it) and one
// snapshot reader for writers with two access paths: ScanLiveAt walks the
// whole heap at a snapshot; LookupLiveAt reads the postings of a key set or
// a key range and keeps the versions visible at the snapshot. The indexes hold only
// versions live now, so LookupLiveAt answers only while no delete has
// committed after the snapshot, and otherwise tells its caller to scan.
package rowstore

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"htapxplain/internal/catalog"
	"htapxplain/internal/value"
)

// version carries the visibility metadata of one heap slot.
type version struct {
	insertLSN uint64
	deleteLSN uint64 // 0 = live
}

// Table is one row-oriented table: the versioned heap plus its indexes.
// All access goes through the table's RWMutex: readers take snapshots
// under RLock; the (single) writer mutates under Lock.
type Table struct {
	Meta *catalog.Table

	mu       sync.RWMutex
	rows     []value.Row // append-only version heap; RID == position
	versions []version   // parallel to rows
	live     int         // number of undeleted versions
	// lastDelete is the highest LSN a version was tombstoned at. The
	// indexes hold only versions live now, so they answer a read at
	// snapshot S only while lastDelete <= S (see LookupLiveAt).
	lastDelete uint64
	// indexes maps lower-cased column name → ordered index.
	indexes map[string]*Index
}

// Index is an ordered single-column index: keys sorted ascending, each with
// the heap positions of matching live rows. It shares its owning table's
// lock.
type Index struct {
	Column string
	Col    int // column position in the table
	mu     *sync.RWMutex
	keys   []value.Value
	rowIDs [][]int32
}

// Len returns the number of distinct keys.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.keys)
}

// Store is the row engine's storage manager and the write primary: it owns
// the commit LSN.
type Store struct {
	tables    map[string]*Table
	commitLSN atomic.Uint64
}

// NewStore bulk-loads a row store: the snapshot at LSN 0 in which every
// row is live. See NewStoreFromSnapshot.
func NewStore(cat *catalog.Catalog, data map[string][]value.Row) (*Store, error) {
	heaps := make(map[string]HeapSnapshot, len(data))
	for name, rows := range data {
		heaps[name] = HeapSnapshot{Rows: rows}
	}
	return NewStoreFromSnapshot(cat, heaps, 0)
}

// Table returns the named table.
func (s *Store) Table(name string) (*Table, bool) {
	t, ok := s.tables[strings.ToLower(name)]
	return t, ok
}

// CommitLSN returns the LSN of the last committed mutation (0 if the store
// has only its bulk-loaded base).
func (s *Store) CommitLSN() uint64 { return s.commitLSN.Load() }

// BuildIndex creates (or replaces) an index on the column at runtime —
// used when the paper's "additional user context" adds an index.
func (s *Store) BuildIndex(table, column string) error {
	t, ok := s.Table(table)
	if !ok {
		return fmt.Errorf("rowstore: no such table %q", table)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ix, err := buildIndex(t, column)
	if err != nil {
		return err
	}
	t.indexes[strings.ToLower(column)] = ix
	return nil
}

// DropIndex removes a runtime index.
func (s *Store) DropIndex(table, column string) error {
	t, ok := s.Table(table)
	if !ok {
		return fmt.Errorf("rowstore: no such table %q", table)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	key := strings.ToLower(column)
	if _, ok := t.indexes[key]; !ok {
		return fmt.Errorf("rowstore: no index on %s.%s", table, column)
	}
	delete(t.indexes, key)
	return nil
}

// buildIndex indexes the live versions of t. Callers hold t.mu (or own t
// exclusively during construction).
func buildIndex(t *Table, column string) (*Index, error) {
	col := t.Meta.ColumnIndex(column)
	if col < 0 {
		return nil, fmt.Errorf("rowstore: no column %q in %q", column, t.Meta.Name)
	}
	type kv struct {
		key value.Value
		id  int32
	}
	pairs := make([]kv, 0, t.live)
	for i, r := range t.rows {
		if t.versions[i].deleteLSN != 0 {
			continue
		}
		pairs = append(pairs, kv{key: r[col], id: int32(i)})
	}
	sort.SliceStable(pairs, func(a, b int) bool {
		return pairs[a].key.Compare(pairs[b].key) < 0
	})
	ix := &Index{Column: strings.ToLower(column), Col: col, mu: &t.mu}
	for _, p := range pairs {
		n := len(ix.keys)
		if n > 0 && ix.keys[n-1].Compare(p.key) == 0 {
			ix.rowIDs[n-1] = append(ix.rowIDs[n-1], p.id)
		} else {
			ix.keys = append(ix.keys, p.key)
			ix.rowIDs = append(ix.rowIDs, []int32{p.id})
		}
	}
	return ix, nil
}

// ---------------------------------------------------------------- writes

// appendVersion appends one live version and indexes it. Caller holds
// t.mu.
func (t *Table) appendVersion(r value.Row, lsn uint64) int64 {
	rid := int64(len(t.rows))
	t.rows = append(t.rows, r)
	t.versions = append(t.versions, version{insertLSN: lsn})
	t.live++
	for _, ix := range t.indexes {
		ix.insertLocked(r[ix.Col], int32(rid))
	}
	return rid
}

// tombstone marks one live version deleted and unindexes it. Caller holds
// t.mu and has validated rid via checkLive.
func (t *Table) tombstone(rid int64, lsn uint64) {
	t.versions[rid].deleteLSN = lsn
	t.live--
	t.lastDelete = max(t.lastDelete, lsn)
	r := t.rows[rid]
	for _, ix := range t.indexes {
		ix.removeLocked(r[ix.Col], int32(rid))
	}
}

// checkLive validates that every rid names a live version. Caller holds
// t.mu.
func (t *Table) checkLive(rids []int64) error {
	for _, rid := range rids {
		if rid < 0 || rid >= int64(len(t.rows)) {
			return fmt.Errorf("rowstore: %s has no row %d", t.Meta.Name, rid)
		}
		if t.versions[rid].deleteLSN != 0 {
			return fmt.Errorf("rowstore: %s row %d is already deleted", t.Meta.Name, rid)
		}
	}
	return nil
}

// find returns the position of the first key >= key and whether it
// equals key. Caller holds the table lock.
func (ix *Index) find(key value.Value) (int, bool) {
	i := sort.Search(len(ix.keys), func(i int) bool {
		return ix.keys[i].Compare(key) >= 0
	})
	return i, i < len(ix.keys) && ix.keys[i].Compare(key) == 0
}

// insertLocked adds (key, id) to the index. Caller holds the table lock.
func (ix *Index) insertLocked(key value.Value, id int32) {
	i, found := ix.find(key)
	if found {
		ix.rowIDs[i] = append(ix.rowIDs[i], id)
		return
	}
	ix.keys = append(ix.keys, value.Value{})
	copy(ix.keys[i+1:], ix.keys[i:])
	ix.keys[i] = key
	ix.rowIDs = append(ix.rowIDs, nil)
	copy(ix.rowIDs[i+1:], ix.rowIDs[i:])
	ix.rowIDs[i] = []int32{id}
}

// removeLocked drops (key, id) from the index, keeping postings in heap
// order so index-ordered scans stay deterministic. Caller holds the table
// lock.
func (ix *Index) removeLocked(key value.Value, id int32) {
	i, found := ix.find(key)
	if !found {
		return
	}
	ids := ix.rowIDs[i]
	for j, v := range ids {
		if v == id {
			copy(ids[j:], ids[j+1:])
			ix.rowIDs[i] = ids[:len(ids)-1]
			break
		}
	}
	if len(ix.rowIDs[i]) == 0 {
		copy(ix.keys[i:], ix.keys[i+1:])
		ix.keys = ix.keys[:len(ix.keys)-1]
		copy(ix.rowIDs[i:], ix.rowIDs[i+1:])
		ix.rowIDs = ix.rowIDs[:len(ix.rowIDs)-1]
	}
}

// ---------------------------------------------------------------- reads

// NumRows returns the physical heap size (live + tombstoned versions).
func (t *Table) NumRows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// NumLive returns the live row count.
func (t *Table) NumLive() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.live
}

// Row returns the heap row at position id. Heap slots are immutable once
// written, so the returned row is safe to read without further locking.
func (t *Table) Row(id int32) value.Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows[id]
}

// Heap returns a stable snapshot of the full version heap (including
// tombstoned slots), indexable by RID. The slice header is a snapshot;
// the rows it references are immutable.
func (t *Table) Heap() []value.Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows[:len(t.rows):len(t.rows)]
}

// Scan returns a snapshot of all live rows (a full table scan). The
// returned rows alias storage and must not be mutated. When the table has
// never seen a delete the snapshot aliases the heap itself with no
// copying; otherwise a fresh slice of live row references is built.
func (t *Table) Scan() []value.Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.live == len(t.rows) {
		return t.rows[:len(t.rows):len(t.rows)]
	}
	out := make([]value.Row, 0, t.live)
	for i, r := range t.rows {
		if t.versions[i].deleteLSN == 0 {
			out = append(out, r)
		}
	}
	return out
}

// IndexOn returns the index on the column, if one exists.
func (t *Table) IndexOn(column string) (*Index, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ix, ok := t.indexes[strings.ToLower(column)]
	return ix, ok
}

// Lookup returns the heap positions of live rows whose indexed column
// equals key. The result is freshly allocated (never aliases index
// internals), so it stays valid after concurrent index maintenance.
func (ix *Index) Lookup(key value.Value) []int32 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if i, found := ix.find(key); found {
		out := make([]int32, len(ix.rowIDs[i]))
		copy(out, ix.rowIDs[i])
		return out
	}
	return nil
}

// LookupAppend appends the matching heap positions to dst and returns it —
// the allocation-free variant of Lookup for per-row probe loops
// (index nested-loop joins) that reuse one buffer across probes.
func (ix *Index) LookupAppend(key value.Value, dst []int32) []int32 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if i, found := ix.find(key); found {
		dst = append(dst, ix.rowIDs[i]...)
	}
	return dst
}

// Range returns heap positions of rows with lo <= key <= hi. Nil bounds
// are open. The scan visits keys in ascending order.
func (ix *Index) Range(lo, hi *value.Value) []int32 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.rangeLocked(lo, hi)
}

// rangeLocked is Range for a caller holding the table lock.
func (ix *Index) rangeLocked(lo, hi *value.Value) []int32 {
	start := 0
	if lo != nil {
		start, _ = ix.find(*lo)
	}
	var out []int32
	for i := start; i < len(ix.keys); i++ {
		if hi != nil && ix.keys[i].Compare(*hi) > 0 {
			break
		}
		out = append(out, ix.rowIDs[i]...)
	}
	return out
}

// AppendOrdered appends row ids to dst in index-key order (reverse order
// when desc) — the access path behind index-ordered Top-N plans (ORDER BY
// indexed_col LIMIT n), which walk the index a chunk at a time instead of
// copying it whole. The walk starts at the first key past *after (at the
// first key when after is nil) and stops once n ids are appended: exactly
// n when whole is false, else at the end of the posting that reached n,
// so the chunk ends on a key boundary. It returns the extended dst, the
// last key it appended from, and whether any key lies past that one; the
// next chunk resumes with after = &last.
func (ix *Index) AppendOrdered(dst []int32, desc bool, after *value.Value, n int, whole bool) (out []int32, last value.Value, more bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	// i is the position of the first key to copy; step walks away from it
	i, step := 0, 1
	if desc {
		i, step = len(ix.keys)-1, -1
	}
	if after != nil {
		at, found := ix.find(*after)
		switch {
		case !desc && found:
			i = at + 1
		case !desc:
			i = at
		default: // the last key below *after
			i = at - 1
		}
	}
	start := len(dst)
	for ; i >= 0 && i < len(ix.keys) && len(dst)-start < n; i += step {
		ids := ix.rowIDs[i]
		if room := n - (len(dst) - start); !whole && len(ids) > room {
			ids = ids[:room]
		}
		dst = append(dst, ids...)
		last = ix.keys[i]
	}
	return dst, last, i >= 0 && i < len(ix.keys)
}
