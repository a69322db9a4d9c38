package colstore

import (
	"slices"
	"testing"

	"htapxplain/internal/repl"
	"htapxplain/internal/rowstore"
	"htapxplain/internal/value"
)

// TestPendingDeltaAfterRecovery: a heap's tombstoned slots are seeded
// into the delete set at recovery without being pending merge work, so a
// merge after recovery leaves the pending count at 0, not negative (which
// would postpone the merger's wake-up by as many operations).
func TestPendingDeltaAfterRecovery(t *testing.T) {
	versions := make([]rowstore.VersionMeta, 6)
	versions[1].DeleteLSN = 3
	versions[4].DeleteLSN = 5
	s, err := NewStoreFromHeap(tinyCatalog(6), map[string]rowstore.HeapSnapshot{
		"t": {Rows: genRows(6), Versions: versions},
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(insMut(6, 6, 60)); err != nil {
		t.Fatal(err)
	}
	if got := s.PendingDelta(); got != 1 {
		t.Fatalf("pending after one insert = %d, want 1", got)
	}
	s.MergeAll()
	if got := s.PendingDelta(); got != 0 {
		t.Errorf("pending after MergeAll = %d, want 0", got)
	}
	tb, _ := s.Table("t")
	if got, want := liveKeys(tb.View()), []int64{0, 2, 3, 5, 60}; !slices.Equal(got, want) {
		t.Errorf("live keys = %v, want %v", got, want)
	}
}

// insertRows is a mutation inserting n rows with RIDs from rid on, each
// keyed by its RID.
func insertRows(lsn uint64, rid int64, n int) *repl.Mutation {
	mut := &repl.Mutation{LSN: lsn, Table: "t"}
	for i := int64(0); i < int64(n); i++ {
		mut.Inserts = append(mut.Inserts, repl.RowVersion{RID: rid + i, Row: value.Row{
			value.NewInt(rid + i), value.NewString("g"), value.NewFloat(float64(rid+i) / 2)}})
	}
	return mut
}

// TestMergeWorkIsBounded is the merger's work gate, in rows written, not
// time: once a table has 20 k merged rows, a merge of 10 inserts and 10
// deletes rewrites at most its partial last chunk plus those inserts. A
// merge after more than a quarter of the base is deleted compacts: it
// writes exactly the live rows and empties the delete set.
func TestMergeWorkIsBounded(t *testing.T) {
	s, tb := deltaStore(t, 100)
	lsn, rid := uint64(0), int64(100)
	for rid < 20_000 {
		lsn++
		if err := s.Apply(insertRows(lsn, rid, 700)); err != nil {
			t.Fatal(err)
		}
		rid += 700
		s.MergeAll()
	}
	if tb.NumRows() != int(rid) {
		t.Fatalf("grown table has %d base rows, want %d", tb.NumRows(), rid)
	}
	lsn++
	if err := s.Apply(insertRows(lsn, rid, 10)); err != nil {
		t.Fatal(err)
	}
	rid += 10
	del := &repl.Mutation{LSN: lsn + 1, Table: "t"}
	for i := int64(0); i < 10; i++ {
		del.Deletes = append(del.Deletes, 37+i*1999) // spread over the merged base
	}
	lsn++
	if err := s.Apply(del); err != nil {
		t.Fatal(err)
	}
	st := s.MergeAll()
	if st.Merges != 1 || st.RowsMerged > ChunkSize+10 {
		t.Errorf("merge of 10 inserts and 10 deletes = %+v, want 1 merge writing <= %d rows", st, ChunkSize+10)
	}
	v := tb.View()
	if v.NumLive() != int(rid)-10 || v.BaseDead.Len() != 10 {
		t.Errorf("after the append: %d live, %d deleted, want %d and 10", v.NumLive(), v.BaseDead.Len(), rid-10)
	}

	// delete every third live row: past a quarter of the base
	del = &repl.Mutation{LSN: lsn + 1, Table: "t"}
	for r := int64(0); r < rid; r += 3 {
		if !v.BaseDead.Has(int(r)) { // the base is still the identity
			del.Deletes = append(del.Deletes, r)
		}
	}
	if err := s.Apply(del); err != nil {
		t.Fatal(err)
	}
	live := tb.NumLive()
	st = s.MergeAll()
	v = tb.View()
	if st.RowsMerged != int64(live) || v.BaseDead.Len() != 0 || v.NumRows != live {
		t.Errorf("compaction = %+v, base %d rows, %d deleted; want %d rows written, all live, none deleted",
			st, v.NumRows, v.BaseDead.Len(), live)
	}
	if s.PendingDelta() != 0 {
		t.Errorf("pending after the compaction = %d", s.PendingDelta())
	}
}

// refRow is one live row of the merge fuzzer's reference, in RID order.
type refRow struct {
	rid int64
	row value.Row
}

// mergeCases records which merge shapes one fuzz history reached.
type mergeCases struct {
	partialAppend  bool // an append that decoded a partial last chunk
	boundaryAppend bool // an append whose rows end exactly on a chunk boundary
	deadChunk      bool // a base chunk with every row deleted
	compaction     bool // a merge past the quarter threshold
	mergedDelete   bool // a delete of a delta row after it was merged
	outOfOrder     bool // a rejected insert RID
}

var fuzzWords = []string{"ant", "bee", "cat"}

func fuzzRow(rid int64, salt int) value.Row {
	return value.Row{
		value.NewInt(rid * 7 % 1000),
		value.NewString(fuzzWords[(int(rid)+salt)%len(fuzzWords)]),
		value.NewFloat(float64(rid) / 4),
	}
}

// liveRowsOf lists a view's live rows: base positions not in BaseDead,
// then Delta.
func liveRowsOf(v View) []value.Row {
	var out []value.Row
	for pos := 0; pos < v.NumRows; pos++ {
		if v.BaseDead.Has(pos) {
			continue
		}
		r := make(value.Row, len(v.Cols))
		for c, col := range v.Cols {
			r[c] = col.Value(pos)
		}
		out = append(out, r)
	}
	return append(out, v.Delta...)
}

func sameRows(a, b []value.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for c := range a[i] {
			if !eqValue(a[i][c], b[i][c]) {
				return false
			}
		}
	}
	return true
}

// runMergeHistory drives one fuzz input through Store.Apply and MergeAll
// against a reference list of live rows in RID order, checking after
// every step, and reports which merge shapes it reached. data[0] sizes
// the bulk load (24 rows a step), data[1] picks the encoding policy, and
// the rest is (op, arg) pairs; see the switch.
func runMergeHistory(t *testing.T, data []byte) mergeCases {
	var seen mergeCases
	if len(data) < 2 {
		return seen
	}
	bulk := int(data[0]) * 24
	bulkRows := make([]value.Row, bulk)
	ref := make([]refRow, bulk)
	for i := range bulkRows {
		bulkRows[i] = fuzzRow(int64(i), 0)
		ref[i] = refRow{int64(i), bulkRows[i]}
	}
	s, err := NewStore(tinyCatalog(int64(bulk)), map[string][]value.Row{"t": bulkRows},
		WithEncoding(AllPolicies[int(data[1])%len(AllPolicies)]))
	if err != nil {
		t.Fatal(err)
	}
	tb, _ := s.Table("t")
	lsn, nextRID := uint64(0), int64(bulk)
	ridAt := func(pos int) int64 {
		tb.mu.RLock()
		defer tb.mu.RUnlock()
		return tb.ridAt(pos)
	}
	inBase := func(rid int64) bool {
		tb.mu.RLock()
		defer tb.mu.RUnlock()
		_, ok := tb.basePosLocked(rid)
		return ok
	}
	apply := func(mut *repl.Mutation) {
		t.Helper()
		lsn++
		mut.LSN, mut.Table = lsn, "t"
		if err := s.Apply(mut); err != nil {
			t.Fatalf("Apply(LSN %d): %v", lsn, err)
		}
		dead := map[int64]bool{}
		for _, rid := range mut.Deletes {
			dead[rid] = true
		}
		kept := ref[:0]
		for _, r := range ref {
			if !dead[r.rid] {
				kept = append(kept, r)
			}
		}
		ref = kept
		for _, ins := range mut.Inserts {
			ref = append(ref, refRow{ins.RID, ins.Row})
		}
	}
	insert := func(n int, salt int) []repl.RowVersion {
		out := make([]repl.RowVersion, n)
		for i := range out {
			out[i] = repl.RowVersion{RID: nextRID, Row: fuzzRow(nextRID, salt)}
			nextRID++
		}
		return out
	}
	// the view pinned at the previous step, and its live rows then
	var pinned View
	var pinnedRows []value.Row
	check := func(step int) {
		t.Helper()
		if !sameRows(liveRowsOf(pinned), pinnedRows) {
			t.Fatalf("step %d changed the view pinned before it", step)
		}
		v := tb.View()
		want := make([]value.Row, len(ref))
		for i, r := range ref {
			want[i] = r.row
		}
		if got := liveRowsOf(v); !sameRows(got, want) {
			t.Fatalf("step %d: live rows %v, reference %v", step, got, want)
		}
		i := 0
		for pos := 0; pos < v.NumRows; pos++ {
			if !v.BaseDead.Has(pos) {
				if got := ridAt(pos); got != ref[i].rid {
					t.Fatalf("step %d: base position %d holds RID %d, reference %d", step, pos, got, ref[i].rid)
				}
				i++
			}
		}
		if v.NumLive() != len(ref) || tb.NumLive() != len(ref) {
			t.Fatalf("step %d: NumLive view %d table %d, reference %d", step, v.NumLive(), tb.NumLive(), len(ref))
		}
		for k := 0; k*ChunkSize < v.NumRows; k++ {
			m, rows, full := v.BaseDead.Chunk(k), min(ChunkSize, v.NumRows-k*ChunkSize), true
			for i := 0; i < rows && full; i++ {
				full = m != nil && m.Has(i)
			}
			seen.deadChunk = seen.deadChunk || full
		}
		pinned, pinnedRows = v, want
	}

	for step, i := 0, 2; i+1 < len(data); step, i = step+1, i+2 {
		op, arg := data[i], int(data[i+1])
		switch op % 8 {
		case 0, 1: // insert 1..8 rows
			apply(&repl.Mutation{Inserts: insert(1+arg%8, 0)})
		case 2, 3: // update (2) or delete (3) a live row, newest first
			if len(ref) == 0 {
				break
			}
			r := ref[len(ref)-1-arg%len(ref)]
			if r.rid >= int64(bulk) && inBase(r.rid) {
				seen.mergedDelete = true
			}
			mut := &repl.Mutation{Deletes: []int64{r.rid}}
			if op%8 == 2 {
				mut.Inserts = insert(1, 1)
			}
			apply(mut)
		case 4: // merge
			v := tb.View()
			numRows, deadN, liveDelta := v.NumRows, v.BaseDead.Len(), len(v.Delta)
			compact := float64(deadN) > compactDeadFraction*float64(numRows)
			st := s.MergeAll()
			var wantWritten int
			switch {
			case st.Merges == 0:
			case compact:
				wantWritten = len(ref)
				seen.compaction = true
			case liveDelta > 0:
				wantWritten = numRows%ChunkSize + liveDelta
				seen.partialAppend = seen.partialAppend || numRows%ChunkSize != 0
				seen.boundaryAppend = seen.boundaryAppend || (numRows+liveDelta)%ChunkSize == 0
			}
			if st.RowsMerged != int64(wantWritten) {
				t.Fatalf("step %d: merge wrote %d rows, want %d (base %d, %d deleted, %d delta, compact %v)",
					step, st.RowsMerged, wantWritten, numRows, deadN, liveDelta, compact)
			}
			if got := s.PendingDelta(); got != 0 {
				t.Fatalf("step %d: pending after MergeAll = %d", step, got)
			}
			if v := tb.View(); float64(v.BaseDead.Len()) > compactDeadFraction*float64(v.NumRows) {
				t.Fatalf("step %d: a merge left %d of %d base positions deleted", step, v.BaseDead.Len(), v.NumRows)
			}
		case 5: // an insert RID that does not follow the last: rejected whole
			seen.outOfOrder = true
			bad := &repl.Mutation{LSN: lsn + 1, Table: "t"}
			last := int64(-1)
			if len(ref) > 0 {
				last = ref[len(ref)-1].rid
			}
			switch arg % 3 {
			case 0: // beside a valid delete, which must not apply either
				if len(ref) > 0 {
					bad.Deletes = []int64{ref[arg%len(ref)].rid}
				}
				bad.Inserts = []repl.RowVersion{{RID: last - int64(arg%5), Row: fuzzRow(0, 0)}}
			case 1: // equal RIDs within one mutation
				bad.Inserts = []repl.RowVersion{{RID: nextRID, Row: fuzzRow(0, 0)}, {RID: nextRID, Row: fuzzRow(0, 0)}}
			case 2: // below the table's last RID, live or not
				bad.Inserts = []repl.RowVersion{{RID: nextRID - 1 - int64(arg%7), Row: fuzzRow(0, 0)}}
			}
			wm, pending := s.Watermark(), s.PendingDelta()
			if err := s.Apply(bad); err == nil {
				t.Fatalf("step %d: out-of-order insert %+v accepted", step, bad.Inserts)
			}
			if s.Watermark() != wm || s.PendingDelta() != pending {
				t.Fatalf("step %d: a rejected mutation moved the watermark or the pending count", step)
			}
		case 6: // fill the delta so an appending merge ends on a chunk boundary
			n := tb.NumRows() + len(tb.View().Delta)
			if need := (ChunkSize - n%ChunkSize) % ChunkSize; need > 0 {
				apply(&repl.Mutation{Inserts: insert(need, 2)})
			}
		case 7: // delete every live row of one base chunk
			numRows := tb.NumRows()
			if numRows == 0 {
				break
			}
			v, k := tb.View(), arg%((numRows+ChunkSize-1)/ChunkSize)
			mut := &repl.Mutation{}
			for pos := k * ChunkSize; pos < min(numRows, (k+1)*ChunkSize); pos++ {
				if !v.BaseDead.Has(pos) {
					mut.Deletes = append(mut.Deletes, ridAt(pos))
				}
			}
			if len(mut.Deletes) > 0 {
				apply(mut)
			}
		}
		check(step)
	}
	return seen
}

// mergeSeeds are FuzzMergeMatchesReference's seed corpus. The first one
// reaches every merge shape (TestMergeSeedsReachEveryShape holds it to
// that); the rest vary the bulk size and the encoding.
var mergeSeeds = [][]byte{
	{100, 0, // 2400 rows: two full chunks and a partial one
		0, 7, 0, 3, 3, 5, 4, 0, // inserts, a delete, an append over the partial chunk
		6, 0, 4, 0, // fill to the chunk boundary, append
		0, 2, 4, 0, 3, 0, // a merged delta row deleted
		2, 1, 1, 4, 4, 0,
		7, 0, // kill chunk 0: over a quarter
		0, 1, 4, 0, // compaction
		5, 0, 5, 1, 5, 2, // rejected inserts
		0, 0, 4, 0},
	{0, 1, 0, 3, 0, 7, 4, 0, 3, 0, 4, 0, 6, 0, 4, 0, 5, 1, 2, 0, 4, 0},
	{255, 2, 7, 3, 4, 0, 3, 9, 2, 4, 0, 5, 4, 0, 6, 0, 4, 0, 7, 1, 7, 2, 4, 0},
	{43, 3, 6, 0, 7, 0, 4, 0, 1, 6, 4, 0, 5, 2, 3, 1, 4, 0},
	{170, 4, 7, 5, 0, 5, 4, 0, 7, 1, 4, 0, 2, 3, 4, 0, 5, 0},
}

// TestMergeSeedsReachEveryShape: the fuzzer's first seed reaches an append
// over a partial last chunk, an append ending on a chunk boundary, a fully
// deleted chunk, a compaction, a delete of a merged delta row and a
// rejected insert RID.
func TestMergeSeedsReachEveryShape(t *testing.T) {
	got := runMergeHistory(t, mergeSeeds[0])
	if got != (mergeCases{true, true, true, true, true, true}) {
		t.Errorf("the first seed reached %+v, want every shape", got)
	}
}

// FuzzMergeMatchesReference drives random inserts, updates and deletes
// through Store.Apply, with MergeAll at fuzzed points, and holds the
// table to a reference list after every step: the live rows (base
// positions not in BaseDead, then Delta) and their RIDs equal the
// reference's in RID order; a merge writes exactly the rows its shape
// implies (the partial last chunk plus the live delta when it appends,
// the live rows when it compacts) and leaves PendingDelta at 0 and no
// more than a quarter of the base deleted; an out-of-order insert RID is
// rejected without changing anything; and no step changes a view pinned
// before it.
func FuzzMergeMatchesReference(f *testing.F) {
	for _, seed := range mergeSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 400 {
			data = data[:400]
		}
		runMergeHistory(t, data)
	})
}
