package exec

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"htapxplain/internal/catalog"
	"htapxplain/internal/rowstore"
	"htapxplain/internal/sqlparser"
	"htapxplain/internal/value"
)

// RowIndexOrderScan walks its index a chunk at a time. These tests hold
// it to a full copy of the index taken up front — the walk it replaced —
// and run it beside writers.

// orderStore builds table t(k, v, id) — id unique — with a non-unique index on k: keys of
// seven rows each, scattered over the heap so every posting list is out
// of heap order relative to its neighbours, one key of 1500 rows (a
// posting longer than a chunk), and some rows deleted.
func orderStore(t testing.TB) (*rowstore.Store, *rowstore.Table, *rowstore.Index) {
	t.Helper()
	cat := catalog.New(1)
	if err := cat.AddTable(&catalog.Table{
		Name: "t",
		Columns: []catalog.Column{
			{Name: "k", Type: catalog.TypeInt},
			{Name: "v", Type: catalog.TypeInt},
			{Name: "id", Type: catalog.TypeInt},
		},
		Indexes:     []catalog.Index{{Name: "ix_t_k", Table: "t", Column: "k", Kind: catalog.SecondaryIndex}},
		AvgRowBytes: 16,
	}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	var rows []value.Row
	for k := int64(0); k < 500; k++ {
		n := 7
		if k == 250 {
			n = 1500
		}
		for i := 0; i < n; i++ {
			rows = append(rows, value.Row{value.NewInt(k), value.NewInt(int64(rng.Intn(100))),
				value.NewInt(int64(len(rows)))})
		}
	}
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	s, err := rowstore.NewStore(cat, map[string][]value.Row{"t": rows})
	if err != nil {
		t.Fatal(err)
	}
	var dels []int64
	for rid := int64(0); rid < int64(len(rows)); rid += 11 {
		dels = append(dels, rid)
	}
	if _, err := s.ApplyAt("t", dels, nil, 1); err != nil {
		t.Fatal(err)
	}
	s.PublishCommit(1)
	tb, _ := s.Table("t")
	ix, _ := tb.IndexOn("k")
	return s, tb, ix
}

// fullCopy is the index in order, copied whole as the scan once did on
// every Open: each key's posting list (heap order), keys ascending, or
// descending when desc.
func fullCopy(tb *rowstore.Table, ix *rowstore.Index, desc bool) []int32 {
	heap := tb.Heap()
	var postings [][]int32
	for _, id := range ix.Range(nil, nil) {
		n := len(postings)
		if n > 0 && heap[postings[n-1][0]][0].Compare(heap[id][0]) == 0 {
			postings[n-1] = append(postings[n-1], id)
		} else {
			postings = append(postings, []int32{id})
		}
	}
	var out []int32
	for i := range postings {
		if desc {
			i = len(postings) - 1 - i
		}
		out = append(out, postings[i]...)
	}
	return out
}

func TestIndexOrderScanMatchesFullCopy(t *testing.T) {
	_, tb, ix := orderStore(t)
	heap := tb.Heap()
	schema := TableSchema(tb.Meta, "t")
	pred, err := Compile(&sqlparser.BinaryExpr{Op: sqlparser.OpLt,
		Left: &sqlparser.ColumnRef{Column: "v"}, Right: &sqlparser.IntLit{V: 30}}, schema)
	if err != nil {
		t.Fatal(err)
	}
	live := tb.NumLive()
	limits := [][2]int64{{1, 0}, {10, 0}, {10, 5}, {BatchSize - 3, 0}, {BatchSize, 0},
		{BatchSize, 7}, {BatchSize + 1, 0}, {3 * BatchSize, 100}, {int64(live) + 5, 0}}
	for _, desc := range []bool{false, true} {
		ref := fullCopy(tb, ix, desc)
		if len(ref) != live {
			t.Fatalf("full copy has %d ids, table %d live rows", len(ref), live)
		}
		for _, withPred := range []bool{false, true} {
			var p Evaluator
			if withPred {
				p = pred
			}
			for _, lo := range limits {
				limit, offset := lo[0], lo[1]
				name := fmt.Sprintf("desc=%v/pred=%v/limit=%d/offset=%d", desc, withPred, limit, offset)
				// reference: the first limit+offset matches of the full copy
				hint := int(limit + offset)
				var want []value.Row
				visited := 0
				for _, id := range ref {
					if len(want) >= hint {
						break
					}
					visited++
					if ok, _ := Truthy(pred, heap[id], nil); withPred && !ok {
						continue
					}
					want = append(want, heap[id])
				}
				if int64(len(want)) > offset {
					want = want[offset:]
				} else {
					want = nil
				}
				if int64(len(want)) > limit {
					want = want[:limit]
				}
				scan := NewRowIndexOrderScan(tb, ix, "t", desc, hint, p)
				ctx := NewContext()
				got, err := Drain(&LimitOp{Child: scan, N: limit, Offset: offset}, ctx)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s: %d rows, full copy gives %d", name, len(got), len(want))
				}
				for i := range got {
					if got[i][2].I != want[i][2].I {
						t.Fatalf("%s: row %d = %v, full copy gives %v", name, i, got[i], want[i])
					}
				}
				if ctx.Stats.RowsScanned != int64(visited) {
					t.Fatalf("%s: scanned %d rows, full copy visits %d", name, ctx.Stats.RowsScanned, visited)
				}
			}
		}
	}
}

// TestIndexOrderScanBesideWriters runs index-order scans while a writer
// inserts and deletes (under -race in CI).
func TestIndexOrderScanBesideWriters(t *testing.T) {
	s, tb, ix := orderStore(t)
	schema := TableSchema(tb.Meta, "t")
	pred, err := Compile(&sqlparser.BinaryExpr{Op: sqlparser.OpGe,
		Left: &sqlparser.ColumnRef{Column: "v"}, Right: &sqlparser.IntLit{V: 50}}, schema)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() { // one writer: the store's commit order is its caller's
		defer close(writerDone)
		rng := rand.New(rand.NewSource(9))
		for lsn := uint64(2); ; lsn++ {
			select {
			case <-stop:
				return
			default:
			}
			live, _ := tb.ScanLiveAt(lsn - 1)
			dels := []int64{live[rng.Intn(len(live))]}
			ins := []value.Row{{value.NewInt(int64(rng.Intn(520))), value.NewInt(int64(rng.Intn(100))),
				value.NewInt(int64(tb.NumRows()))}}
			if _, err := s.ApplyAt("t", dels, ins, lsn); err != nil {
				t.Error(err)
				return
			}
			s.PublishCommit(lsn)
		}
	}()
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; i < 40; i++ {
				if err := checkOrderScan(tb, ix, (i+r)%2 == 0, []int{0, 5, BatchSize + 1}[i%3], i%3 != 0, pred); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	readers.Wait()
	close(stop)
	<-writerDone
}

// checkOrderScan runs one index-order scan and checks what a scan beside
// writers must still give: distinct rows in key order, each passing the
// predicate, at most hint of them.
func checkOrderScan(tb *rowstore.Table, ix *rowstore.Index, desc bool, hint int, withPred bool, pred Evaluator) error {
	var p Evaluator
	if withPred {
		p = pred
	}
	got, err := Drain(NewRowIndexOrderScan(tb, ix, "t", desc, hint, p), NewContext())
	if err != nil {
		return err
	}
	if hint > 0 && len(got) > hint {
		return fmt.Errorf("scan with hint %d returned %d rows", hint, len(got))
	}
	seen := make(map[int64]bool, len(got))
	for j, row := range got {
		if seen[row[2].I] {
			return fmt.Errorf("row %v returned twice", row)
		}
		seen[row[2].I] = true
		if withPred && row[1].I < 50 {
			return fmt.Errorf("row %v fails the predicate", row)
		}
		if j == 0 {
			continue
		}
		if c := got[j-1][0].Compare(row[0]); (!desc && c > 0) || (desc && c < 0) {
			return fmt.Errorf("desc=%v: key %v after %v", desc, row[0], got[j-1][0])
		}
	}
	return nil
}
