// Package colstore implements the AP engine's column-oriented storage:
// per-column typed vectors split into fixed-size chunks with min/max zone
// maps. Scans read only the referenced columns and can skip chunks whose
// zone map proves no row matches — the storage-format advantage the AP
// engine's explanations cite.
//
// The column store is the replication secondary of the TP write path: it
// consumes the row store's mutation log in LSN order (Store.Apply) into a
// per-table in-memory delta layer plus a per-chunk bitmap of deleted base
// positions, and a background merger appends the live delta rows to the
// base as fresh immutable chunks, rewriting only the partial last chunk —
// it compacts the whole table only once more than a quarter of the base
// is deleted (see delta.go and merger.go; the merger is a task.Loop, so a
// merge pass that panics is skipped, kept in the loop's Err and tried
// again on the next tick). Readers never lock per value: Table.View pins
// an immutable snapshot (base column vectors + copy-on-write delete set +
// delta rows) that stays valid across concurrent replication and merges.
//
// There is one of each: one constructor (NewStoreFromHeap — a bulk load is
// the heap at LSN 0 with no tombstones), one writer (Store.Apply) and one
// reader, the morsel cursor over a pinned view (NewMorsels / Morsels.Next),
// which is what every query scans through and where zone-map pruning
// happens.
package colstore

import (
	"strings"
	"sync"

	"htapxplain/internal/catalog"
	"htapxplain/internal/rowstore"
	"htapxplain/internal/value"
)

// ChunkSize is the number of rows per column chunk (zone-map granularity).
const ChunkSize = 1024

// Column is one stored column: per-chunk encoded data plus per-chunk zone
// maps. A Column is immutable once published; merges build fresh Columns
// (sharing the chunks they keep) and swap them in, so execution batches
// may alias raw chunk vectors (and hold decoded copies of encoded ones)
// indefinitely — "alias or decode, never mutate".
type Column struct {
	Name string
	n    int
	// vals is the contiguous raw vector, retained only for a column built
	// in one piece whose every chunk chose the raw encoding (the chunks
	// alias it); nil once any chunk is encoded, so the raw backing array
	// is actually freed, and nil for a column extended by a merge.
	vals   []value.Value
	chunks []*EncodedChunk
	// zone maps: min/max per chunk (valid for orderable kinds), built from
	// the raw values before encoding — identical under every policy.
	zmin []value.Value
	zmax []value.Value
}

// newColumn builds an immutable column over vals, choosing a per-chunk
// encoding under the given policy. vals is owned by the column afterwards.
func newColumn(name string, vals []value.Value, policy EncodingPolicy) *Column {
	return (&Column{Name: name}).extend(0, vals, policy)
}

// extend builds a new immutable column that shares c's first keep chunks
// and their zone maps and encodes vals after them, chunk by chunk under
// the given policy — the merger's append path, which writes only the rows
// it adds. c is not touched. vals is owned by the new column afterwards.
func (c *Column) extend(keep int, vals []value.Value, policy EncodingPolicy) *Column {
	nc := &Column{
		Name:   c.Name,
		n:      keep*ChunkSize + len(vals),
		chunks: c.chunks[:keep:keep],
		zmin:   c.zmin[:keep:keep],
		zmax:   c.zmax[:keep:keep],
	}
	// the contiguous raw vector is kept only for a column built in one
	// piece whose every chunk chose raw
	raw := keep == 0
	for lo := 0; lo < len(vals); lo += ChunkSize {
		hi := min(lo+ChunkSize, len(vals))
		mn, mx := zoneRange(vals[lo:hi])
		nc.zmin = append(nc.zmin, mn)
		nc.zmax = append(nc.zmax, mx)
		ch := encodeChunk(vals[lo:hi:hi], policy)
		nc.chunks = append(nc.chunks, ch)
		if ch.Enc != EncRaw {
			raw = false
		}
	}
	if nc.n == 0 {
		nc.zmin = append(nc.zmin, value.Null)
		nc.zmax = append(nc.zmax, value.Null)
	}
	if raw {
		nc.vals = vals
		return nc
	}
	// raw chunks built here get private copies so vals' backing array is
	// actually released
	for _, ch := range nc.chunks[keep:] {
		if ch.Enc == EncRaw {
			ch.Raw = append([]value.Value(nil), ch.Raw...)
		}
	}
	return nc
}

// Len returns the number of values.
func (c *Column) Len() int { return c.n }

// Value returns the value at row id, decoding through the owning chunk's
// encoding when the column is not stored raw.
func (c *Column) Value(id int) value.Value {
	if c.vals != nil {
		return c.vals[id]
	}
	return c.chunks[id/ChunkSize].ValueAt(id % ChunkSize)
}

// Chunk returns the encoded chunk k — the accessor scans use to operate
// on encoded data directly. The chunk is immutable.
func (c *Column) Chunk(k int) *EncodedChunk { return c.chunks[k] }

// NumChunks returns the number of zone-mapped chunks.
func (c *Column) NumChunks() int { return len(c.zmin) }

// ChunkRange returns the [min,max] zone map of chunk k.
func (c *Column) ChunkRange(k int) (value.Value, value.Value) { return c.zmin[k], c.zmax[k] }

// Table is one column-oriented table: immutable base chunks plus the
// replication delta. All field access goes through mu; the values the
// fields point at are immutable, so snapshots taken under RLock stay valid
// after release.
type Table struct {
	Meta *catalog.Table

	mu      sync.RWMutex
	columns []*Column
	numRows int // base rows (before delta)
	// baseRID maps base position → row id assigned by the primary; nil
	// means the identity mapping of the initial bulk load (pos == RID).
	// It is ascending — the bulk identity, then delta RIDs in LSN order,
	// which merges append and compaction keeps in order — so a RID's
	// position is a binary search. No view holds it: a merge may append
	// to it in place.
	baseRID []int64
	// baseDead is the copy-on-write set of deleted base positions. Never
	// mutated once published — deletes replace it with a copy that shares
	// every chunk mask it does not touch, so views may alias it freely.
	baseDead DeadSet
	// deadSinceMerge counts the base deletes applied since the last
	// merge: the pending merge operations baseDead stands for (positions
	// seeded by recovery or kept by an appending merge are not pending).
	deadSinceMerge int
	delta          tableDelta

	// policy is the store's encoding policy, applied whenever this
	// table's base chunks are (re)built: bulk load, merge, recovery.
	policy EncodingPolicy
}

// DeadMask is one base chunk's deleted positions: bit i%64 of word i/64
// is set when chunk offset i is deleted.
type DeadMask [ChunkSize / 64]uint64

// Has reports whether chunk offset i is deleted.
func (m *DeadMask) Has(i int) bool { return m[i>>6]&(1<<(uint(i)&63)) != 0 }

// DeadSet is a set of deleted base positions: one mask per base chunk,
// nil for a chunk with no deleted row. The zero value is the empty set.
// It is copy-on-write: a published set and its masks are never mutated.
type DeadSet struct {
	masks []*DeadMask
	n     int
}

// Len returns the number of deleted positions.
func (d DeadSet) Len() int { return d.n }

// Chunk returns base chunk k's mask, nil when the chunk has no deleted
// row — the readers' cue to keep their delete-free kernels.
func (d DeadSet) Chunk(k int) *DeadMask {
	if k < len(d.masks) {
		return d.masks[k]
	}
	return nil
}

// Has reports whether base position pos is deleted.
func (d DeadSet) Has(pos int) bool {
	m := d.Chunk(pos / ChunkSize)
	return m != nil && m.Has(pos%ChunkSize)
}

// with returns the set plus the given positions. It copies the outer slice
// and the masks it touches; every other mask is shared with d, which is
// not changed. ok is false when a position is already in d or given twice.
func (d DeadSet) with(pos []int32) (_ DeadSet, ok bool) {
	nchunks := len(d.masks)
	for _, p := range pos {
		nchunks = max(nchunks, int(p)/ChunkSize+1)
	}
	out := DeadSet{masks: make([]*DeadMask, nchunks), n: d.n + len(pos)}
	copy(out.masks, d.masks)
	for _, p := range pos {
		k, i := int(p)/ChunkSize, int(p)%ChunkSize
		if m := out.masks[k]; m == nil || m == d.Chunk(k) {
			fresh := new(DeadMask)
			if m != nil {
				*fresh = *m
			}
			out.masks[k] = fresh
		}
		if out.masks[k].Has(i) {
			return DeadSet{}, false
		}
		out.masks[k][i>>6] |= 1 << (uint(i) & 63)
	}
	return out, true
}

// Store is the column engine's storage manager and replication secondary.
type Store struct {
	tables map[string]*Table
	repl   replState
	merger mergerState
	policy EncodingPolicy
}

// Option configures a Store at construction.
type Option func(*Store)

// WithEncoding sets the store's chunk-encoding policy. The default is
// PolicyAuto (smallest eligible encoding per chunk); PolicyRaw restores
// the pre-encoding raw-vector layout, and the forced policies exist for
// differential tests and benchmarks.
func WithEncoding(p EncodingPolicy) Option {
	return func(s *Store) { s.policy = p }
}

// NewStore bulk-loads a column store: the heap at LSN 0 in which every
// row is live, base positions aligned with the row store's heap (RID i ↔
// position i). See NewStoreFromHeap.
func NewStore(cat *catalog.Catalog, data map[string][]value.Row, opts ...Option) (*Store, error) {
	heaps := make(map[string]rowstore.HeapSnapshot, len(data))
	for name, rows := range data {
		heaps[name] = rowstore.HeapSnapshot{Rows: rows}
	}
	return NewStoreFromHeap(cat, heaps, 0, opts...)
}

// MemStats is a snapshot of the column store's base-chunk footprint under
// its chosen encodings. Delta rows (transient, unencoded) are excluded.
type MemStats struct {
	// ResidentBytes is the modeled footprint of the base chunks in their
	// stored encodings; RawBytes is what the same data would occupy as
	// raw value vectors.
	ResidentBytes int64 `json:"resident_bytes"`
	RawBytes      int64 `json:"raw_bytes"`
	// ChunksByEnc counts base chunks per encoding, indexed by Encoding.
	ChunksByEnc [NumEncodings]int64 `json:"chunks_by_enc"`
}

// CompressionRatio returns RawBytes/ResidentBytes (1 when empty).
func (m MemStats) CompressionRatio() float64 {
	if m.ResidentBytes <= 0 {
		return 1
	}
	return float64(m.RawBytes) / float64(m.ResidentBytes)
}

// MemStats aggregates the encoded-footprint statistics across all tables.
func (s *Store) MemStats() MemStats {
	var out MemStats
	for _, t := range s.tables {
		t.mu.RLock()
		for _, c := range t.columns {
			for _, ch := range c.chunks {
				out.ResidentBytes += ch.EncBytes
				out.RawBytes += ch.RawBytes
				out.ChunksByEnc[ch.Enc]++
			}
		}
		t.mu.RUnlock()
	}
	return out
}

// zoneRange returns the [min,max] zone map of one chunk's values.
func zoneRange(vals []value.Value) (mn, mx value.Value) {
	mn, mx = vals[0], vals[0]
	for _, v := range vals[1:] {
		if v.Compare(mn) < 0 {
			mn = v
		}
		if v.Compare(mx) > 0 {
			mx = v
		}
	}
	return mn, mx
}

// Table returns the named table.
func (s *Store) Table(name string) (*Table, bool) {
	t, ok := s.tables[strings.ToLower(name)]
	return t, ok
}

// NumRows returns the base (merged) physical row count, excluding the
// un-merged delta. Use View for the logical table contents.
func (t *Table) NumRows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.numRows
}

// NumLive returns the logical live row count: base minus deletes plus the
// live delta.
func (t *Table) NumLive() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.numRows - t.baseDead.Len() + t.delta.numLive()
}

// Column returns the base column at position i.
func (t *Table) Column(i int) *Column {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.columns[i]
}

// ColumnByName returns the named base column, or nil.
func (t *Table) ColumnByName(name string) *Column {
	i := t.Meta.ColumnIndex(name)
	if i < 0 {
		return nil
	}
	return t.Column(i)
}

// View is an immutable snapshot of a table's logical contents: the base
// column vectors, the set of deleted base positions, and the replicated
// delta rows not yet merged. Taking a view is allocation-free until delta
// rows are tombstoned (then the live delta is copied out); everything it
// references is copy-on-write or append-only, so it stays consistent
// while replication and merges continue. Scans draw morsels over it (see
// Morsels): base chunks, skipping BaseDead positions, then the delta rows
// — together the table as of the replication watermark at snapshot time.
type View struct {
	Cols    []*Column
	NumRows int // base rows
	// BaseDead is the deleted base-position set.
	BaseDead DeadSet
	// Delta holds the live replicated rows not yet merged, in replay
	// order. Rows are full table width and must not be mutated.
	Delta []value.Row
}

// View pins a consistent snapshot of the table.
func (t *Table) View() View {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return View{
		Cols:     t.columns,
		NumRows:  t.numRows,
		BaseDead: t.baseDead,
		Delta:    t.delta.liveRows(),
	}
}

// NumLive returns the view's logical row count.
func (v *View) NumLive() int { return v.NumRows - v.BaseDead.Len() + len(v.Delta) }

// ValueAt reads column col of logical row id, where ids < NumRows address
// base positions and ids >= NumRows address delta rows.
func (v *View) ValueAt(id, col int) value.Value {
	if id < v.NumRows {
		return v.Cols[col].Value(id)
	}
	return v.Delta[id-v.NumRows][col]
}

// RangePruner describes an optional single-column range the scan can use
// against zone maps and, on encoded chunks, as an encoded-domain
// prefilter; nil bounds are open. LoStrict/HiStrict mark exclusive bounds
// (col > Lo / col < Hi); zone-map pruning ignores strictness (always
// conservative), the chunk-level RangeSel honors it.
type RangePruner struct {
	Col                int
	Lo, Hi             *value.Value
	LoStrict, HiStrict bool
	// Exact marks the pruner as a complete, bit-exact representation of
	// the scan's entire predicate (one key, or up to two bounds, on Col):
	// the chunk-level RangeSel is then the final filter on base
	// chunks, and the compiled row predicate only needs to run on delta
	// rows. The optimizer sets it; scans may never assume it otherwise.
	Exact bool
}
