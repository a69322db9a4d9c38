package rowstore

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"htapxplain/internal/catalog"
	"htapxplain/internal/value"
)

// tinyCatalog builds a one-table catalog with an indexed int column and
// an unindexed string column.
func tinyCatalog() *catalog.Catalog {
	c := catalog.New(1)
	_ = c.AddTable(&catalog.Table{
		Name: "t",
		Columns: []catalog.Column{
			{Name: "k", Type: catalog.TypeInt, NDV: 100},
			{Name: "s", Type: catalog.TypeString, NDV: 100},
		},
		Indexes:     []catalog.Index{{Name: "pk_t", Table: "t", Column: "k", Kind: catalog.PrimaryIndex}},
		Rows:        100,
		AvgRowBytes: 32,
	})
	return c
}

func tinyStore(t *testing.T, keys []int64) (*Store, *Table) {
	t.Helper()
	rows := make([]value.Row, len(keys))
	for i, k := range keys {
		rows[i] = value.Row{value.NewInt(k), value.NewString("v")}
	}
	s, err := NewStore(tinyCatalog(), map[string][]value.Row{"t": rows})
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	tb, _ := s.Table("t")
	return s, tb
}

func TestLookupFindsAllDuplicates(t *testing.T) {
	_, tb := tinyStore(t, []int64{5, 3, 5, 1, 5, 2})
	ix, ok := tb.IndexOn("k")
	if !ok {
		t.Fatal("missing index")
	}
	ids := ix.Lookup(value.NewInt(5))
	if len(ids) != 3 {
		t.Fatalf("Lookup(5) = %v, want 3 hits", ids)
	}
	for _, id := range ids {
		if tb.Row(id)[0].I != 5 {
			t.Fatalf("row %d has key %v", id, tb.Row(id)[0])
		}
	}
	if got := ix.Lookup(value.NewInt(99)); got != nil {
		t.Errorf("Lookup(99) = %v, want nil", got)
	}
}

func TestRangeSemantics(t *testing.T) {
	_, tb := tinyStore(t, []int64{10, 20, 30, 40, 50})
	ix, _ := tb.IndexOn("k")
	lo, hi := value.NewInt(20), value.NewInt(40)
	ids := ix.Range(&lo, &hi)
	var got []int64
	for _, id := range ids {
		got = append(got, tb.Row(id)[0].I)
	}
	if len(got) != 3 || got[0] != 20 || got[2] != 40 {
		t.Fatalf("Range[20,40] = %v", got)
	}
	// open bounds
	if n := len(ix.Range(nil, nil)); n != 5 {
		t.Errorf("open range = %d rows", n)
	}
	onlyLo := value.NewInt(35)
	if n := len(ix.Range(&onlyLo, nil)); n != 2 {
		t.Errorf("range [35,∞) = %d rows", n)
	}
	onlyHi := value.NewInt(15)
	if n := len(ix.Range(nil, &onlyHi)); n != 1 {
		t.Errorf("range (-∞,15] = %d rows", n)
	}
}

func TestAscendingDescendingOrder(t *testing.T) {
	_, tb := tinyStore(t, []int64{4, 1, 3, 2})
	ix, _ := tb.IndexOn("k")
	asc, _, _ := ix.AppendOrdered(nil, false, nil, 4, true)
	for i := 1; i < len(asc); i++ {
		if tb.Row(asc[i-1])[0].I > tb.Row(asc[i])[0].I {
			t.Fatal("ascending walk not in key order")
		}
	}
	desc, _, _ := ix.AppendOrdered(nil, true, nil, 4, true)
	for i := 1; i < len(desc); i++ {
		if tb.Row(desc[i-1])[0].I < tb.Row(desc[i])[0].I {
			t.Fatal("descending walk not in reverse key order")
		}
	}
	if len(asc) != 4 || len(desc) != 4 {
		t.Fatalf("walks returned %d and %d ids, want 4", len(asc), len(desc))
	}
}

// TestAppendOrderedChunks: walking a non-unique index in chunks — whole
// keys each, resumed after the last key copied — gives the same ids in the
// same order as one walk over everything, in both directions, and a cut
// walk stops at exactly n ids.
func TestAppendOrderedChunks(t *testing.T) {
	keys := make([]int64, 200)
	rng := rand.New(rand.NewSource(3))
	for i := range keys {
		keys[i] = int64(rng.Intn(23))
	}
	_, tb := tinyStore(t, keys)
	ix, _ := tb.IndexOn("k")
	for _, desc := range []bool{false, true} {
		all, _, more := ix.AppendOrdered(nil, desc, nil, len(keys)+1, true)
		if len(all) != len(keys) || more {
			t.Fatalf("desc=%v: full walk got %d ids (more=%v), want %d", desc, len(all), more, len(keys))
		}
		for _, n := range []int{1, 7, 64} {
			var got []int32
			chunk, last, more := ix.AppendOrdered(nil, desc, nil, n, true)
			got = append(got, chunk...)
			for more {
				after := last
				chunk, last, more = ix.AppendOrdered(chunk[:0], desc, &after, n, true)
				if len(chunk) == 0 {
					t.Fatalf("desc=%v n=%d: empty chunk with more keys", desc, n)
				}
				got = append(got, chunk...)
			}
			if !equalIDs(got, all) {
				t.Fatalf("desc=%v n=%d: chunked walk %v, want %v", desc, n, got, all)
			}
			cut, _, _ := ix.AppendOrdered(nil, desc, nil, n, false)
			if !equalIDs(cut, all[:n]) {
				t.Fatalf("desc=%v n=%d: cut walk %v, want %v", desc, n, cut, all[:n])
			}
		}
		// resuming after an absent key starts at the next present one
		absent := value.NewInt(-1)
		if desc {
			absent = value.NewInt(99)
		}
		if got, _, _ := ix.AppendOrdered(nil, desc, &absent, len(keys), true); !equalIDs(got, all) {
			t.Fatalf("desc=%v: walk after an absent bound %v, want %v", desc, got, all)
		}
	}
}

func equalIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestIndexMatchesNaiveScanProperty: for random datasets and probes, the
// index must return exactly the rows a naive scan finds.
func TestIndexMatchesNaiveScanProperty(t *testing.T) {
	prop := func(seed int64, probe uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = int64(rng.Intn(20))
		}
		rows := make([]value.Row, n)
		for i, k := range keys {
			rows[i] = value.Row{value.NewInt(k), value.NewString("v")}
		}
		s, err := NewStore(tinyCatalog(), map[string][]value.Row{"t": rows})
		if err != nil {
			return false
		}
		tb, _ := s.Table("t")
		ix, _ := tb.IndexOn("k")
		key := int64(probe % 20)
		var want []int32
		for i, k := range keys {
			if k == key {
				want = append(want, int32(i))
			}
		}
		got := ix.Lookup(value.NewInt(key))
		if len(got) != len(want) {
			return false
		}
		sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRangeMatchesNaiveScanProperty(t *testing.T) {
	prop := func(seed int64, a, b uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		rows := make([]value.Row, n)
		keys := make([]int64, n)
		for i := range rows {
			keys[i] = int64(rng.Intn(30))
			rows[i] = value.Row{value.NewInt(keys[i]), value.NewString("v")}
		}
		s, err := NewStore(tinyCatalog(), map[string][]value.Row{"t": rows})
		if err != nil {
			return false
		}
		tb, _ := s.Table("t")
		ix, _ := tb.IndexOn("k")
		lo, hi := int64(a%30), int64(b%30)
		if lo > hi {
			lo, hi = hi, lo
		}
		lov, hiv := value.NewInt(lo), value.NewInt(hi)
		got := ix.Range(&lov, &hiv)
		want := 0
		for _, k := range keys {
			if k >= lo && k <= hi {
				want++
			}
		}
		return len(got) == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestBuildAndDropRuntimeIndex(t *testing.T) {
	s, tb := tinyStore(t, []int64{1, 2, 3})
	if _, ok := tb.IndexOn("s"); ok {
		t.Fatal("s should start unindexed")
	}
	if err := s.BuildIndex("t", "s"); err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	ix, ok := tb.IndexOn("s")
	if !ok {
		t.Fatal("index missing after BuildIndex")
	}
	if got := ix.Lookup(value.NewString("v")); len(got) != 3 {
		t.Errorf("lookup on new index = %v", got)
	}
	if err := s.DropIndex("t", "s"); err != nil {
		t.Fatalf("DropIndex: %v", err)
	}
	if err := s.DropIndex("t", "s"); err == nil {
		t.Error("double drop should fail")
	}
	if err := s.BuildIndex("t", "nope"); err == nil {
		t.Error("unknown column should fail")
	}
	if err := s.BuildIndex("nope", "s"); err == nil {
		t.Error("unknown table should fail")
	}
}

func TestNewStoreRequiresAllTables(t *testing.T) {
	if _, err := NewStore(tinyCatalog(), map[string][]value.Row{}); err == nil {
		t.Error("missing table data should error")
	}
}

func TestScanReturnsEverything(t *testing.T) {
	_, tb := tinyStore(t, []int64{1, 2, 3, 4})
	if got := len(tb.Scan()); got != 4 || tb.NumRows() != 4 {
		t.Errorf("Scan/NumRows = %d/%d", got, tb.NumRows())
	}
}

func TestIndexLenCountsDistinctKeys(t *testing.T) {
	_, tb := tinyStore(t, []int64{7, 7, 7, 8})
	ix, _ := tb.IndexOn("k")
	if ix.Len() != 2 {
		t.Errorf("Len = %d, want 2 distinct keys", ix.Len())
	}
}
