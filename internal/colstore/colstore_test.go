package colstore

import (
	"math/rand"
	"testing"
	"testing/quick"

	"htapxplain/internal/catalog"
	"htapxplain/internal/value"
)

func tinyCatalog(rows int64) *catalog.Catalog {
	c := catalog.New(1)
	_ = c.AddTable(&catalog.Table{
		Name: "t",
		Columns: []catalog.Column{
			{Name: "k", Type: catalog.TypeInt, NDV: rows},
			{Name: "s", Type: catalog.TypeString, NDV: 10},
			{Name: "f", Type: catalog.TypeFloat, NDV: rows},
		},
		Rows: rows, AvgRowBytes: 48,
	})
	return c
}

func buildStore(t testing.TB, n int, keyOf func(i int) int64) *Table {
	t.Helper()
	rows := make([]value.Row, n)
	for i := 0; i < n; i++ {
		rows[i] = value.Row{
			value.NewInt(keyOf(i)),
			value.NewString("s"),
			value.NewFloat(float64(i) / 2),
		}
	}
	s, err := NewStore(tinyCatalog(int64(n)), map[string][]value.Row{"t": rows})
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	tb, _ := s.Table("t")
	return tb
}

// drain enumerates a view through the morsel cursor — the reader every
// query uses — and returns the ids pred accepts in the view's id space
// (base positions, then NumRows + delta index), the rows it visited and
// the chunks the cursor pruned by zone map.
func drain(v View, pruner *RangePruner, pred func(id int) bool) (ids []int, visited int, pruned int64) {
	src := NewMorsels(v, pruner)
	for {
		m, p, ok := src.Next()
		pruned += p
		if !ok {
			return ids, visited, pruned
		}
		for i := m.Lo; i < m.Hi; i++ {
			id := i
			if !m.Base {
				id = v.NumRows + i
			} else if v.BaseDead.Has(i) {
				continue
			}
			visited++
			if pred == nil || pred(id) {
				ids = append(ids, id)
			}
		}
	}
}

func TestScanAllRowsNoPruner(t *testing.T) {
	tb := buildStore(t, 2500, func(i int) int64 { return int64(i) })
	ids, visited, pruned := drain(tb.View(), nil, nil)
	if len(ids) != 2500 {
		t.Fatalf("scan matched %d rows, want 2500", len(ids))
	}
	if visited != 2500 || pruned != 0 {
		t.Errorf("visited %d rows, pruned %d chunks", visited, pruned)
	}
	if n := NewMorsels(tb.View(), nil).NumMorsels(); n != 3 { // ceil(2500/1024)
		t.Errorf("morsels = %d, want 3", n)
	}
}

func TestZoneMapPruningSkipsChunks(t *testing.T) {
	// keys ascending → zone maps are tight ranges, so a narrow range
	// predicate must skip all but one chunk
	tb := buildStore(t, 4096, func(i int) int64 { return int64(i) })
	lo, hi := value.NewInt(3000), value.NewInt(3010)
	pruner := &RangePruner{Col: 0, Lo: &lo, Hi: &hi}
	v := tb.View()
	ids, visited, pruned := drain(v, pruner, func(id int) bool {
		k := v.ValueAt(id, 0)
		return k.I >= 3000 && k.I <= 3010
	})
	if len(ids) != 11 {
		t.Fatalf("matched %d rows, want 11", len(ids))
	}
	if pruned != 3 {
		t.Errorf("pruned %d chunks, want 3 of 4", pruned)
	}
	if visited != ChunkSize {
		t.Errorf("visited %d rows, want the one surviving chunk", visited)
	}
}

// TestPruningNeverChangesResultsProperty: scanning with a pruner must
// return exactly the same ids as scanning without one.
func TestPruningNeverChangesResultsProperty(t *testing.T) {
	prop := func(seed int64, loRaw, hiRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 512 + rng.Intn(3000)
		tb := buildStore(t, n, func(i int) int64 { return int64(rng.Intn(5000)) })
		lo64, hi64 := int64(loRaw%5000), int64(hiRaw%5000)
		if lo64 > hi64 {
			lo64, hi64 = hi64, lo64
		}
		lo, hi := value.NewInt(lo64), value.NewInt(hi64)
		v := tb.View()
		pred := func(id int) bool {
			k := v.ValueAt(id, 0)
			return k.I >= lo64 && k.I <= hi64
		}
		withPruner, _, _ := drain(v, &RangePruner{Col: 0, Lo: &lo, Hi: &hi}, pred)
		without, _, _ := drain(v, nil, pred)
		if len(withPruner) != len(without) {
			return false
		}
		for i := range withPruner {
			if withPruner[i] != without[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestMaterializeSelectsColumns(t *testing.T) {
	tb := buildStore(t, 10, func(i int) int64 { return int64(i * 10) })
	// late materialization: ids from a drain resolve to any column's value
	v := tb.View()
	ids, _, _ := drain(v, nil, func(id int) bool { return id == 2 || id == 5 })
	if len(ids) != 2 {
		t.Fatalf("drain selected %v, want [2 5]", ids)
	}
	if a, b := v.ValueAt(ids[0], 0), v.ValueAt(ids[1], 0); a.I != 20 || b.I != 50 {
		t.Errorf("materialized keys: %v %v", a, b)
	}
	if f := v.ValueAt(ids[0], 2); f.K != value.KindFloat || f.Float() != 1 {
		t.Errorf("column 2 of row 2 should be the float 1.0, got %v", f)
	}
}

func TestColumnByName(t *testing.T) {
	tb := buildStore(t, 5, func(i int) int64 { return int64(i) })
	if c := tb.ColumnByName("f"); c == nil || c.Len() != 5 {
		t.Errorf("ColumnByName(f) = %v", c)
	}
	if c := tb.ColumnByName("nope"); c != nil {
		t.Error("bogus column should be nil")
	}
}

func TestZoneMapBoundsAreTight(t *testing.T) {
	tb := buildStore(t, 2048, func(i int) int64 { return int64(i) })
	col := tb.Column(0)
	if col.NumChunks() != 2 {
		t.Fatalf("chunks = %d", col.NumChunks())
	}
	mn, mx := col.ChunkRange(0)
	if mn.I != 0 || mx.I != 1023 {
		t.Errorf("chunk 0 zone map [%v,%v]", mn, mx)
	}
	mn, mx = col.ChunkRange(1)
	if mn.I != 1024 || mx.I != 2047 {
		t.Errorf("chunk 1 zone map [%v,%v]", mn, mx)
	}
}

func TestNewStoreRequiresAllTables(t *testing.T) {
	if _, err := NewStore(tinyCatalog(1), map[string][]value.Row{}); err == nil {
		t.Error("missing table data should error")
	}
}

func TestEmptyTableScan(t *testing.T) {
	s, err := NewStore(tinyCatalog(0), map[string][]value.Row{"t": {}})
	if err != nil {
		t.Fatal(err)
	}
	tb, _ := s.Table("t")
	ids, visited, _ := drain(tb.View(), nil, nil)
	if len(ids) != 0 || visited != 0 {
		t.Errorf("empty scan: ids=%v visited=%d", ids, visited)
	}
}
