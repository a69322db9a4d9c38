package colstore

import (
	"fmt"
	"strings"

	"htapxplain/internal/catalog"
	"htapxplain/internal/rowstore"
	"htapxplain/internal/value"
)

// NewStoreFromHeap is the store's one constructor: it builds the
// replication secondary from the row store's heap snapshots — the bulk
// image at watermark 0, or a recovered checkpoint; the same map the row
// store's constructor takes. Base columns are laid out over the *full*
// heap (live and tombstoned slots) so the identity RID mapping (position
// == RID) that the replication protocol assumes holds, and tombstoned
// slots are seeded into the copy-on-write delete set that scans already
// filter; they are not pending merge work, so the merger leaves them in
// place until enough of the base is deleted to compact. Zone maps cover
// dead slots too — they can only widen a chunk's range, which keeps
// pruning conservative and correct. Chunk encodings are chosen here from
// the values under the store's policy — checkpoints stay encoding-agnostic
// (they snapshot plain row heaps), so an encoding change never invalidates
// a checkpoint. watermark seats the replication watermark at the heap's
// commit point, so the freshness gauge does not report a phantom lag after
// restart; WAL tail replay continues through Apply.
func NewStoreFromHeap(cat *catalog.Catalog, heaps map[string]rowstore.HeapSnapshot, watermark uint64, opts ...Option) (*Store, error) {
	s := &Store{tables: make(map[string]*Table, len(heaps))}
	s.repl.init()
	for _, o := range opts {
		o(s)
	}
	for _, meta := range cat.Tables() {
		snap, ok := heaps[strings.ToLower(meta.Name)]
		if !ok {
			return nil, fmt.Errorf("colstore: heap has no table %q", meta.Name)
		}
		if snap.Versions != nil && len(snap.Versions) != len(snap.Rows) {
			return nil, fmt.Errorf("colstore: table %q has %d rows but %d versions",
				meta.Name, len(snap.Rows), len(snap.Versions))
		}
		for ri, r := range snap.Rows {
			if len(r) != len(meta.Columns) {
				return nil, fmt.Errorf("colstore: table %q row %d has %d columns, want %d",
					meta.Name, ri, len(r), len(meta.Columns))
			}
		}
		t := &Table{Meta: meta, numRows: len(snap.Rows), policy: s.policy}
		for ci := range meta.Columns {
			vals := make([]value.Value, len(snap.Rows))
			for ri, r := range snap.Rows {
				vals[ri] = r[ci]
			}
			t.columns = append(t.columns, newColumn(strings.ToLower(meta.Columns[ci].Name), vals, s.policy))
		}
		var dead []int32
		for pos, vm := range snap.Versions {
			if vm.DeleteLSN != 0 {
				dead = append(dead, int32(pos))
			}
		}
		t.baseDead, _ = DeadSet{}.with(dead)
		s.tables[strings.ToLower(meta.Name)] = t
	}
	s.repl.watermark.Store(watermark)
	return s, nil
}
