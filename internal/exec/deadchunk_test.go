package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"htapxplain/internal/catalog"
	"htapxplain/internal/colstore"
	"htapxplain/internal/repl"
	"htapxplain/internal/sqlparser"
	"htapxplain/internal/value"
)

// TestStoredFoldWithDeletesInOneChunk: in a three-chunk table whose
// deletes all fall in the middle chunk, only that chunk carries a delete
// mask, which the scan's selection drops before the aggregate folds the
// chunks as stored. Under every encoding policy and at DOP 1 and 4, global
// and grouped COUNT/SUM/MIN/MAX folded from the scan's stored chunks, and
// a scan filtered by selection kernels, equal the row evaluator over the
// live rows.
func TestStoredFoldWithDeletesInOneChunk(t *testing.T) {
	const n = 3 * colstore.ChunkSize
	rng := rand.New(rand.NewSource(3))
	rows := make([]value.Row, n)
	for i := range rows {
		v := value.NewInt(int64(rng.Intn(60) - 20))
		if rng.Intn(13) == 0 {
			v = value.Null
		}
		rows[i] = value.Row{value.NewInt(int64(i)), value.NewInt(int64(i / 100 % 7)), v}
	}
	// every third row of the middle chunk, and a run of 200 in it
	mut := &repl.Mutation{LSN: 1, Table: "d"}
	dead := map[int]bool{}
	for i := colstore.ChunkSize; i < 2*colstore.ChunkSize; i++ {
		if i%3 == 0 || (i >= colstore.ChunkSize+500 && i < colstore.ChunkSize+700) {
			mut.Deletes = append(mut.Deletes, int64(i))
			dead[i] = true
		}
	}
	var live []value.Row
	for i, r := range rows {
		if !dead[i] {
			live = append(live, r)
		}
	}
	cat := catalog.New(1)
	if err := cat.AddTable(&catalog.Table{Name: "d", Columns: []catalog.Column{
		{Name: "k", Type: catalog.TypeInt}, {Name: "g", Type: catalog.TypeInt}, {Name: "v", Type: catalog.TypeInt},
	}, Rows: n, AvgRowBytes: 24}); err != nil {
		t.Fatal(err)
	}
	aggs := []AggSpec{
		{Func: sqlparser.AggCount, ArgCol: -1},
		{Func: sqlparser.AggCount, Arg: ColumnEval(2), ArgCol: 2},
		{Func: sqlparser.AggSum, Arg: ColumnEval(2), ArgCol: 2},
		{Func: sqlparser.AggMin, Arg: ColumnEval(2), ArgCol: 2},
		{Func: sqlparser.AggMax, Arg: ColumnEval(2), ArgCol: 2},
	}
	for _, p := range colstore.AllPolicies {
		store, err := colstore.NewStore(cat, map[string][]value.Row{"d": rows}, colstore.WithEncoding(p))
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Apply(mut); err != nil {
			t.Fatal(err)
		}
		store.MergeAll() // a merge of deletes alone keeps them in the delete set
		tbl, _ := store.Table("d")
		v := tbl.View()
		if v.BaseDead.Chunk(0) != nil || v.BaseDead.Chunk(1) == nil || v.BaseDead.Chunk(2) != nil ||
			v.BaseDead.Len() != len(dead) {
			t.Fatalf("%v: delete set has %d positions, masks %v/%v/%v, want %d in chunk 1 only", p,
				v.BaseDead.Len(), v.BaseDead.Chunk(0) != nil, v.BaseDead.Chunk(1) != nil, v.BaseDead.Chunk(2) != nil, len(dead))
		}

		for _, groupCols := range [][]int{{}, {1}, {2}} {
			agg := func() *HashAggregate {
				return &HashAggregate{Child: fullScan(tbl, "d"), Groups: evalsFor(groupCols), GroupCols: groupCols,
					Aggs: aggs, Out: make(Schema, len(groupCols)+len(aggs))}
			}
			if !foldsStoredChunks(t, agg(), nil) {
				t.Fatalf("%v: group by %v does not fold the scan's chunks as stored", p, groupCols)
			}
			for _, dop := range []int{1, 4} {
				want := refAggregate(t, live, 3, groupCols, aggs, len(groupCols)+len(aggs), false, false, dop > 1)
				ctx := NewContext()
				ctx.DOP = dop
				got, err := Drain(agg(), ctx)
				if err != nil {
					t.Fatal(err)
				}
				assertRows(t, fmt.Sprintf("%v, group by %v, DOP %d", p, groupCols, dop), got, want, true)
			}
		}

		sel, err := sqlparser.Parse("SELECT * FROM d WHERE v < 10 AND k >= 900")
		if err != nil {
			t.Fatal(err)
		}
		var want []value.Row
		for _, r := range live {
			if r[0].I >= 900 && r[2].K != value.KindNull && r[2].I < 10 {
				want = append(want, r)
			}
		}
		for _, dop := range []int{1, 4} {
			scan := fullScan(tbl, "d")
			if scan.Filter, err = CompileScanFilter(sqlparser.Conjuncts(sel.Where), scan.Schema()); err != nil {
				t.Fatal(err)
			}
			ctx := NewContext()
			ctx.DOP = dop
			got, err := Drain(scan, ctx)
			if err != nil {
				t.Fatal(err)
			}
			assertRows(t, fmt.Sprintf("%v, filtered scan, DOP %d", p, dop), got, want, dop == 1)
		}
	}
}
