package rowstore

import (
	"fmt"
	"strings"

	"htapxplain/internal/catalog"
	"htapxplain/internal/repl"
	"htapxplain/internal/value"
)

// This file is the row store's construction and durability surface: heap
// snapshots feed the recovery subsystem's checkpoints, NewStoreFromSnapshot
// builds a store from one — the bulk load is the snapshot at LSN 0 — and
// Replay re-applies WAL mutations, with their original LSNs and RIDs, on
// top of it. Because the heap is append-only and RIDs are heap positions,
// replaying the exact committed prefix is deterministic: the log must
// resume at the LSN right after the snapshot's, an insert's recorded RID
// must equal the heap position the replay assigns, and any divergence is
// reported as corruption instead of being papered over.

// VersionMeta is the visibility metadata of one heap slot, exported for
// checkpoints.
type VersionMeta struct {
	InsertLSN uint64
	DeleteLSN uint64 // 0 = live
}

// HeapSnapshot is a point-in-time copy of one table's version heap:
// parallel rows and version metadata, indexable by RID. Nil Versions is
// the bulk image: every row live since LSN 0. Rows alias the immutable
// heap slots and must not be mutated.
type HeapSnapshot struct {
	Rows     []value.Row
	Versions []VersionMeta
}

// SnapshotHeap copies the table's full version heap (live and tombstoned
// slots) under the read lock. The slice headers are private copies; the
// rows they reference are immutable.
func (t *Table) SnapshotHeap() HeapSnapshot {
	t.mu.RLock()
	defer t.mu.RUnlock()
	snap := HeapSnapshot{
		Rows:     make([]value.Row, len(t.rows)),
		Versions: make([]VersionMeta, len(t.versions)),
	}
	copy(snap.Rows, t.rows)
	for i, v := range t.versions {
		snap.Versions[i] = VersionMeta{InsertLSN: v.insertLSN, DeleteLSN: v.deleteLSN}
	}
	return snap
}

// NewStoreFromSnapshot is the store's one constructor: every table's
// version heap is taken verbatim (RID = heap position, exactly as the
// primary assigned them) and every catalog-declared index is built over
// the live versions. commitLSN seats the store at the snapshot's commit
// point — 0 for a bulk load — and WAL replay continues from commitLSN+1.
func NewStoreFromSnapshot(cat *catalog.Catalog, heaps map[string]HeapSnapshot, commitLSN uint64) (*Store, error) {
	s := &Store{tables: make(map[string]*Table, len(heaps))}
	for _, meta := range cat.Tables() {
		snap, ok := heaps[strings.ToLower(meta.Name)]
		if !ok {
			return nil, fmt.Errorf("rowstore: snapshot has no table %q", meta.Name)
		}
		if snap.Versions != nil && len(snap.Rows) != len(snap.Versions) {
			return nil, fmt.Errorf("rowstore: snapshot table %q has %d rows but %d versions",
				meta.Name, len(snap.Rows), len(snap.Versions))
		}
		t := &Table{
			Meta:     meta,
			rows:     snap.Rows,
			versions: make([]version, len(snap.Rows)),
			live:     len(snap.Rows),
			indexes:  make(map[string]*Index),
		}
		for i, vm := range snap.Versions {
			if vm.DeleteLSN > commitLSN || vm.InsertLSN > commitLSN {
				return nil, fmt.Errorf("rowstore: snapshot table %q row %d carries LSN beyond snapshot %d",
					meta.Name, i, commitLSN)
			}
			t.versions[i] = version{insertLSN: vm.InsertLSN, deleteLSN: vm.DeleteLSN}
			if vm.DeleteLSN != 0 {
				t.live--
				t.lastDelete = max(t.lastDelete, vm.DeleteLSN)
			}
		}
		for ri, r := range snap.Rows {
			if len(r) != len(meta.Columns) {
				return nil, fmt.Errorf("rowstore: snapshot table %q row %d has %d columns, want %d",
					meta.Name, ri, len(r), len(meta.Columns))
			}
		}
		for _, ixMeta := range meta.Indexes {
			ix, err := buildIndex(t, ixMeta.Column)
			if err != nil {
				return nil, err
			}
			t.indexes[strings.ToLower(ixMeta.Column)] = ix
		}
		s.tables[strings.ToLower(meta.Name)] = t
	}
	s.commitLSN.Store(commitLSN)
	return s, nil
}

// Replay re-applies one logged mutation during recovery. It mutates
// nothing itself: it asserts that the log continues exactly where the
// store stands — the mutation's LSN is the next one (a gap means log the
// snapshot needs was retired, and replaying past it would resurrect
// deleted rows) and each logged RID is the next heap slot — then hands the
// write set to ApplyAt and publishes the commit.
func (s *Store) Replay(mut *repl.Mutation) error {
	if at := s.commitLSN.Load(); mut.LSN != at+1 {
		return fmt.Errorf("rowstore: store is at LSN %d but the log resumes at LSN %d (gap or stale record; refusing to replay)",
			at, mut.LSN)
	}
	t, ok := s.Table(mut.Table)
	if !ok {
		return fmt.Errorf("rowstore: replay references unknown table %q", mut.Table)
	}
	next := int64(t.NumRows())
	rows := make([]value.Row, len(mut.Inserts))
	for i, ins := range mut.Inserts {
		if ins.RID != next+int64(i) {
			return fmt.Errorf("rowstore: replay LSN %d: logged RID %d but heap position is %d (log/checkpoint divergence)",
				mut.LSN, ins.RID, next+int64(i))
		}
		rows[i] = ins.Row
	}
	if _, err := s.ApplyAt(mut.Table, mut.Deletes, rows, mut.LSN); err != nil {
		return fmt.Errorf("rowstore: replay LSN %d: %w", mut.LSN, err)
	}
	s.PublishCommit(mut.LSN)
	return nil
}
