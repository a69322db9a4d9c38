package rowstore

import (
	"testing"

	"htapxplain/internal/catalog"
	"htapxplain/internal/repl"
	"htapxplain/internal/value"
)

func mutCatalog() *catalog.Catalog {
	cat := catalog.New(1)
	_ = cat.AddTable(&catalog.Table{
		Name: "t",
		Columns: []catalog.Column{
			{Name: "k", Type: catalog.TypeInt, NDV: 100},
			{Name: "s", Type: catalog.TypeString, NDV: 100},
		},
		Indexes: []catalog.Index{
			{Name: "pk_t", Table: "t", Column: "k", Kind: catalog.PrimaryIndex, Unique: true},
		},
		Rows: 4, AvgRowBytes: 16,
	})
	return cat
}

func mutStore(t *testing.T) *Store {
	t.Helper()
	data := map[string][]value.Row{
		"t": {
			{value.NewInt(10), value.NewString("a")},
			{value.NewInt(20), value.NewString("b")},
			{value.NewInt(30), value.NewString("c")},
			{value.NewInt(40), value.NewString("d")},
		},
	}
	s, err := NewStore(mutCatalog(), data)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	return s
}

// commit drives the store's one writer the way a committer does: apply
// the write set at the next LSN, then publish it.
func commit(t *testing.T, s *Store, deletes []int64, inserts []value.Row) *repl.Mutation {
	t.Helper()
	lsn := s.CommitLSN() + 1
	mut, err := s.ApplyAt("t", deletes, inserts, lsn)
	if err != nil {
		t.Fatalf("ApplyAt(LSN %d): %v", lsn, err)
	}
	s.PublishCommit(lsn)
	return mut
}

func TestInsertAssignsLSNAndRIDs(t *testing.T) {
	s := mutStore(t)
	mut := commit(t, s, nil, []value.Row{
		{value.NewInt(50), value.NewString("e")},
		{value.NewInt(60), value.NewString("f")},
	})
	if mut.LSN != 1 || s.CommitLSN() != 1 {
		t.Errorf("LSN = %d (store %d), want 1", mut.LSN, s.CommitLSN())
	}
	if len(mut.Inserts) != 2 || mut.Inserts[0].RID != 4 || mut.Inserts[1].RID != 5 {
		t.Errorf("inserts = %+v, want RIDs 4,5", mut.Inserts)
	}
	tb, _ := s.Table("t")
	if tb.NumLive() != 6 || tb.NumRows() != 6 {
		t.Errorf("live=%d physical=%d, want 6/6", tb.NumLive(), tb.NumRows())
	}
	ix, _ := tb.IndexOn("k")
	if ids := ix.Lookup(value.NewInt(60)); len(ids) != 1 || ids[0] != 5 {
		t.Errorf("index lookup of inserted key = %v, want [5]", ids)
	}
}

func TestDeleteTombstonesAndUnindexes(t *testing.T) {
	s := mutStore(t)
	mut := commit(t, s, []int64{1}, nil)
	if len(mut.Deletes) != 1 || mut.Deletes[0] != 1 || len(mut.Inserts) != 0 || mut.Table != "t" {
		t.Errorf("mutation = %+v, want one delete of RID 1 on t", mut)
	}
	tb, _ := s.Table("t")
	if tb.NumLive() != 3 || tb.NumRows() != 4 {
		t.Errorf("live=%d physical=%d, want 3/4 (tombstone, no compaction)", tb.NumLive(), tb.NumRows())
	}
	ix, _ := tb.IndexOn("k")
	if ids := ix.Lookup(value.NewInt(20)); len(ids) != 0 {
		t.Errorf("deleted key still indexed: %v", ids)
	}
	if rows := tb.Scan(); len(rows) != 3 {
		t.Errorf("Scan returned %d rows, want 3", len(rows))
	}
	// a dead or out-of-range RID rejects the whole write set: nothing is
	// tombstoned, nothing appended, no LSN published
	for _, bad := range [][]int64{{1}, {0, 1}, {4}, {-1}} {
		if _, err := s.ApplyAt("t", bad, []value.Row{{value.NewInt(70), value.NewString("g")}}, 2); err == nil {
			t.Errorf("ApplyAt(deletes %v) succeeded", bad)
		}
	}
	if tb.NumLive() != 3 || tb.NumRows() != 4 || s.CommitLSN() != 1 {
		t.Errorf("rejected write sets left live=%d physical=%d LSN=%d, want 3/4/1",
			tb.NumLive(), tb.NumRows(), s.CommitLSN())
	}
}

func TestUpdateIsDeletePlusInsert(t *testing.T) {
	s := mutStore(t)
	tb0, _ := s.Table("t")
	oldRow := tb0.Row(2)
	mut := commit(t, s, []int64{2}, []value.Row{{value.NewInt(35), value.NewString("c2")}})
	if len(mut.Deletes) != 1 || mut.Deletes[0] != 2 {
		t.Errorf("deletes = %v, want [2]", mut.Deletes)
	}
	if len(mut.Inserts) != 1 || mut.Inserts[0].RID != 4 {
		t.Errorf("inserts = %+v, want new version at RID 4", mut.Inserts)
	}
	if mut.NumRowsAffected() != 1 {
		t.Errorf("NumRowsAffected = %d, want 1", mut.NumRowsAffected())
	}
	tb, _ := s.Table("t")
	// the old heap slot is untouched (aliased batches stay valid)
	if got := tb.Heap()[2]; got[0] != oldRow[0] || got[1] != oldRow[1] {
		t.Errorf("update rewrote heap slot in place: %v", got)
	}
	ix, _ := tb.IndexOn("k")
	if ids := ix.Lookup(value.NewInt(30)); len(ids) != 0 {
		t.Errorf("old key still indexed: %v", ids)
	}
	if ids := ix.Lookup(value.NewInt(35)); len(ids) != 1 || ids[0] != 4 {
		t.Errorf("new key lookup = %v, want [4]", ids)
	}
	if tb.NumLive() != 4 {
		t.Errorf("live = %d, want 4", tb.NumLive())
	}
	// a row of the wrong arity rejects the write set before the delete
	// beside it is applied
	if _, err := s.ApplyAt("t", []int64{0}, []value.Row{{value.NewInt(1)}}, 2); err == nil {
		t.Error("short row accepted")
	}
	if ids := ix.Lookup(value.NewInt(10)); len(ids) != 1 || tb.NumLive() != 4 {
		t.Errorf("rejected update still deleted RID 0: lookup %v, live %d", ids, tb.NumLive())
	}
}

func TestScanLiveParallelSlices(t *testing.T) {
	s := mutStore(t)
	commit(t, s, []int64{0, 3}, nil)
	tb, _ := s.Table("t")
	rids, rows := tb.ScanLiveAt(s.CommitLSN())
	if len(rids) != 2 || len(rows) != 2 {
		t.Fatalf("ScanLiveAt = %v / %d rows, want 2/2", rids, len(rows))
	}
	if rids[0] != 1 || rids[1] != 2 {
		t.Errorf("rids = %v, want [1 2]", rids)
	}
	if rows[0][0].I != 20 || rows[1][0].I != 30 {
		t.Errorf("rows = %v", rows)
	}
}

func TestIndexRangeAfterMutations(t *testing.T) {
	s := mutStore(t)
	commit(t, s, nil, []value.Row{{value.NewInt(25), value.NewString("x")}})
	commit(t, s, []int64{0}, nil) // k=10
	tb, _ := s.Table("t")
	ix, _ := tb.IndexOn("k")
	lo, hi := value.NewInt(0), value.NewInt(30)
	ids := ix.Range(&lo, &hi)
	// live keys in range: 20 (rid 1), 25 (rid 4), 30 (rid 2), in key order
	want := []int32{1, 4, 2}
	if len(ids) != len(want) {
		t.Fatalf("Range = %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("Range = %v, want %v", ids, want)
		}
	}
}
