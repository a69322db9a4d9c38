package colstore

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"htapxplain/internal/repl"
	"htapxplain/internal/task"
	"htapxplain/internal/value"
)

func deltaStore(t *testing.T, n int) (*Store, *Table) {
	t.Helper()
	s, err := NewStore(tinyCatalog(int64(n)), map[string][]value.Row{
		"t": genRows(n),
	})
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	tb, _ := s.Table("t")
	return s, tb
}

func genRows(n int) []value.Row {
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{
			value.NewInt(int64(i)),
			value.NewString("s"),
			value.NewFloat(float64(i)),
		}
	}
	return rows
}

func insMut(lsn uint64, rid int64, key int64) *repl.Mutation {
	return &repl.Mutation{LSN: lsn, Table: "t", Inserts: []repl.RowVersion{
		{RID: rid, Row: value.Row{value.NewInt(key), value.NewString("d"), value.NewFloat(float64(key))}},
	}}
}

func TestApplyInsertVisibleInView(t *testing.T) {
	s, tb := deltaStore(t, 10)
	if err := s.Apply(insMut(1, 10, 100)); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if s.Watermark() != 1 {
		t.Errorf("watermark = %d, want 1", s.Watermark())
	}
	v := tb.View()
	if v.NumLive() != 11 || len(v.Delta) != 1 {
		t.Fatalf("view live=%d delta=%d, want 11/1", v.NumLive(), len(v.Delta))
	}
	if got := v.ValueAt(10, 0); got.I != 100 {
		t.Errorf("delta row key = %v, want 100", got)
	}
	ids, _, _ := drain(v, nil, nil)
	if len(ids) != 11 {
		t.Errorf("scan saw %d rows, want 11", len(ids))
	}
}

func TestApplyDeleteBaseAndDelta(t *testing.T) {
	s, tb := deltaStore(t, 10)
	if err := s.Apply(insMut(1, 10, 100)); err != nil {
		t.Fatal(err)
	}
	// delete base row 3 and the delta row in one mutation
	if err := s.Apply(&repl.Mutation{LSN: 2, Table: "t", Deletes: []int64{3, 10}}); err != nil {
		t.Fatalf("Apply deletes: %v", err)
	}
	v := tb.View()
	if v.NumLive() != 9 {
		t.Errorf("live = %d, want 9", v.NumLive())
	}
	ids, _, _ := drain(v, nil, nil)
	for _, id := range ids {
		if id == 3 {
			t.Error("deleted base row still scanned")
		}
	}
	if len(ids) != 9 {
		t.Errorf("scan saw %d rows, want 9", len(ids))
	}
	// deleting an unknown RID is a replication error
	if err := s.Apply(&repl.Mutation{LSN: 3, Table: "t", Deletes: []int64{999}}); err == nil {
		t.Error("delete of unknown RID succeeded")
	}
}

func TestUpdateMutationReplaysAtomically(t *testing.T) {
	s, tb := deltaStore(t, 4)
	// UPDATE of base row 2: delete RID 2, insert new version RID 4
	if err := s.Apply(&repl.Mutation{LSN: 1, Table: "t",
		Deletes: []int64{2},
		Inserts: []repl.RowVersion{{RID: 4, Row: value.Row{
			value.NewInt(22), value.NewString("u"), value.NewFloat(2.5)}}},
	}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	v := tb.View()
	if v.NumLive() != 4 {
		t.Fatalf("live = %d, want 4 (update is size-neutral)", v.NumLive())
	}
}

// liveKeys reads column k of the view's live rows: base positions not in
// BaseDead, then the delta.
func liveKeys(v View) []int64 {
	var keys []int64
	for pos := 0; pos < v.NumRows; pos++ {
		if !v.BaseDead.Has(pos) {
			keys = append(keys, v.Cols[0].Value(pos).I)
		}
	}
	for _, r := range v.Delta {
		keys = append(keys, r[0].I)
	}
	return keys
}

func baseKeys(v View) []int64 {
	keys := make([]int64, v.NumRows)
	for pos := range keys {
		keys[pos] = v.Cols[0].Value(pos).I
	}
	return keys
}

// TestMergeCompactsAndPreservesOrder: a merge appends the live delta rows
// after the base and keeps deleted positions in place; once more than a
// quarter of the base is deleted, the next merge compacts them away.
// Either way the live rows keep replay order.
func TestMergeCompactsAndPreservesOrder(t *testing.T) {
	s, tb := deltaStore(t, 6)
	if err := s.Apply(insMut(1, 6, 60)); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(&repl.Mutation{LSN: 2, Table: "t", Deletes: []int64{1}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(insMut(3, 7, 70)); err != nil {
		t.Fatal(err)
	}
	oldView := tb.View()
	oldCol := oldView.Cols[0]

	// 1 of 6 base positions deleted: append. The partial chunk 0 is
	// rewritten with its 6 positions, then the 2 live delta rows.
	st := s.MergeAll()
	if st.Merges != 1 || st.RowsMerged != 8 {
		t.Errorf("merge stats = %+v, want 1 merge writing 8 rows", st)
	}
	if got := s.PendingDelta(); got != 0 {
		t.Errorf("pending after merge = %d, want 0", got)
	}
	v := tb.View()
	if v.NumRows != 8 || len(v.Delta) != 0 || v.BaseDead.Len() != 1 || !v.BaseDead.Has(1) {
		t.Fatalf("post-append view: base=%d delta=%d dead=%d (pos 1 %v)",
			v.NumRows, len(v.Delta), v.BaseDead.Len(), v.BaseDead.Has(1))
	}
	if got, want := baseKeys(v), []int64{0, 1, 2, 3, 4, 5, 60, 70}; !slices.Equal(got, want) {
		t.Fatalf("post-append base keys = %v, want %v", got, want)
	}
	if got, want := liveKeys(v), []int64{0, 2, 3, 4, 5, 60, 70}; !slices.Equal(got, want) {
		t.Fatalf("post-append live keys = %v, want %v", got, want)
	}
	// the rewritten chunk's zone map covers the appended rows (and the
	// deleted position, which only widens it)
	if mn, mx := v.Cols[0].ChunkRange(0); mn.I != 0 || mx.I != 70 {
		t.Errorf("zone map = [%v,%v], want [0,70]", mn, mx)
	}

	// 3 of 8 deleted: past a quarter, so the merge compacts
	if err := s.Apply(&repl.Mutation{LSN: 4, Table: "t", Deletes: []int64{2, 3}}); err != nil {
		t.Fatal(err)
	}
	if st := s.MergeAll(); st.Merges != 1 || st.RowsMerged != 5 {
		t.Errorf("compaction stats = %+v, want 1 merge writing 5 rows", st)
	}
	v = tb.View()
	if v.NumRows != 5 || v.BaseDead.Len() != 0 {
		t.Fatalf("post-compaction view: base=%d dead=%d", v.NumRows, v.BaseDead.Len())
	}
	if got, want := baseKeys(v), []int64{0, 4, 5, 60, 70}; !slices.Equal(got, want) {
		t.Fatalf("post-compaction base keys = %v, want %v", got, want)
	}

	// the pre-merge view still reads the old immutable vectors
	if oldCol.Value(1).I != 1 || oldView.NumRows != 6 || !oldView.BaseDead.Has(1) {
		t.Error("merge mutated the pinned view's base in place")
	}
	if len(oldView.Delta) != 2 {
		t.Error("merge truncated a pinned view's delta")
	}
}

// TestMergeThenDeleteByRID: rows keep their RIDs across an appending
// merge, so a later delete finds a bulk row and a merged delta row by RID;
// the compaction that follows drops both.
func TestMergeThenDeleteByRID(t *testing.T) {
	s, tb := deltaStore(t, 4)
	if err := s.Apply(insMut(1, 4, 40)); err != nil {
		t.Fatal(err)
	}
	s.MergeAll()
	if v := tb.View(); v.NumRows != 5 || v.BaseDead.Len() != 0 {
		t.Fatalf("post-merge view: base=%d dead=%d, want 5/0", v.NumRows, v.BaseDead.Len())
	}
	// post-merge, delete a bulk row and the previously merged delta row by RID
	if err := s.Apply(&repl.Mutation{LSN: 2, Table: "t", Deletes: []int64{0, 4}}); err != nil {
		t.Fatalf("post-merge delete: %v", err)
	}
	v := tb.View()
	if v.NumLive() != 3 || !v.BaseDead.Has(0) || !v.BaseDead.Has(4) {
		t.Errorf("live = %d, dead 0/4 = %v/%v, want 3, true/true", v.NumLive(), v.BaseDead.Has(0), v.BaseDead.Has(4))
	}
	// a deleted row cannot be deleted again
	if err := s.Apply(&repl.Mutation{LSN: 3, Table: "t", Deletes: []int64{4}}); err == nil {
		t.Error("second delete of merged RID 4 succeeded")
	}
	s.MergeAll() // 2 of 5 deleted: compacts
	v = tb.View()
	if got := baseKeys(v); !slices.Equal(got, []int64{1, 2, 3}) || v.BaseDead.Len() != 0 {
		t.Errorf("post-compaction keys = %v dead = %d, want [1 2 3] and 0", got, v.BaseDead.Len())
	}
}

// TestBackgroundMergerCompacts: eight delta rows are far below the wake
// threshold, so it is the 50 ms tick that compacts them.
func TestBackgroundMergerCompacts(t *testing.T) {
	s, tb := deltaStore(t, 4)
	s.StartMerger()
	defer s.StopMerger()
	for i := 0; i < 8; i++ {
		if err := s.Apply(insMut(uint64(i+1), int64(4+i), int64(100+i))); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if s.PendingDelta() == 0 && tb.NumRows() == 12 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("background merger did not compact: pending=%d base=%d", s.PendingDelta(), tb.NumRows())
}

// TestBackgroundMergerPanicCostsOnePass: a published chunk torn so that
// decoding it indexes past its packed words (the fault
// gateway.TestWorkerPanicCostsOneRequest serves queries over) makes every
// background MergeAll panic. Each such pass is lost and counted, the first
// stays readable in the loop's Err, the delta it could not compact stays
// queryable, and StopMerger returns. Each pass is a 50 ms tick.
func TestBackgroundMergerPanicCostsOnePass(t *testing.T) {
	s, tb := deltaStore(t, 4)
	*tb.ColumnByName("k").Chunk(0) = EncodedChunk{Enc: EncFoR, N: 4, Width: 8}
	if err := s.Apply(insMut(1, 4, 40)); err != nil {
		t.Fatal(err)
	}
	before := task.Panics()
	s.StartMerger()
	deadline := time.Now().Add(5 * time.Second)
	for task.Panics() < before+2 { // a second pass ran after the first panicked
		if time.Now().After(deadline) {
			t.Fatal("the background merger never reached the torn chunk twice")
		}
		time.Sleep(time.Millisecond)
	}
	s.StopMerger()
	var pe *task.PanicError
	if err := s.merger.loop.Err(); !errors.As(err, &pe) || !strings.Contains(string(pe.Stack), "(*Table).merge") {
		t.Fatalf("merger loop Err() = %v, want the *task.PanicError raised in merge", err)
	}
	if v := tb.View(); v.NumLive() != 5 || s.PendingDelta() != 1 {
		t.Errorf("after the failed merges: %d live rows, %d pending, want 5 and 1", v.NumLive(), s.PendingDelta())
	}
}
