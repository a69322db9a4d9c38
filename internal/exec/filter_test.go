package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"htapxplain/internal/catalog"
	"htapxplain/internal/colstore"
	"htapxplain/internal/repl"
	"htapxplain/internal/sqlparser"
	"htapxplain/internal/value"
)

// kernelSchema is kernelTable's scan schema.
var kernelSchema = Schema{
	{Binding: "t", Name: "k", Type: catalog.TypeInt},
	{Binding: "t", Name: "f", Type: catalog.TypeFloat},
	{Binding: "t", Name: "s", Type: catalog.TypeString},
	{Binding: "t", Name: "g", Type: catalog.TypeInt},
}

// kernelTable loads t(k, f, s, g) under policy — k small ints (one chunk
// mixes in strings), f floats with NaN, -0, NULL and ints, s short phrases
// with non-ASCII text, wildcard bytes and (outside chunk 0) NULLs, g long
// runs — then replicates one mutation that deletes every 13th base row and
// inserts 300 delta rows, and returns the table.
func kernelTable(t testing.TB, policy colstore.EncodingPolicy) *colstore.Table {
	t.Helper()
	const n = 3*colstore.ChunkSize + 77
	rng := rand.New(rand.NewSource(int64(policy)))
	words := []string{"slyly", "bold", "blithely ironic", "é", "ünï bold", "", "100%", "a_b"}
	mk := func(i int) value.Row {
		k := value.NewInt(int64(rng.Intn(2000) - 1000))
		if i/colstore.ChunkSize == 2 && i%50 == 0 {
			k = value.NewString("x")
		}
		f := value.NewFloat(float64(rng.Intn(400))/8 - 25)
		switch rng.Intn(16) {
		case 0:
			f = value.NewFloat(math.NaN())
		case 1:
			f = value.NewFloat(math.Copysign(0, -1))
		case 2:
			f = value.Null
		case 3:
			f = value.NewInt(int64(rng.Intn(50) - 25))
		}
		s := value.NewString(words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))])
		if i >= colstore.ChunkSize && rng.Intn(10) == 0 {
			s = value.Null
		}
		return value.Row{k, f, s, value.NewInt(int64(i / 300))}
	}
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = mk(i)
	}
	cols := make([]catalog.Column, len(kernelSchema))
	for i, c := range kernelSchema {
		cols[i] = catalog.Column{Name: c.Name, Type: c.Type}
	}
	cat := catalog.New(1)
	if err := cat.AddTable(&catalog.Table{Name: "t", Columns: cols, Rows: n, AvgRowBytes: 32}); err != nil {
		t.Fatal(err)
	}
	store, err := colstore.NewStore(cat, map[string][]value.Row{"t": rows}, colstore.WithEncoding(policy))
	if err != nil {
		t.Fatal(err)
	}
	mut := &repl.Mutation{LSN: 1, Table: "t"}
	for rid := int64(0); rid < n; rid += 13 {
		mut.Deletes = append(mut.Deletes, rid)
	}
	for i := 0; i < 300; i++ {
		mut.Inserts = append(mut.Inserts, repl.RowVersion{RID: int64(n + i), Row: mk(i * 7)})
	}
	if err := store.Apply(mut); err != nil {
		t.Fatal(err)
	}
	tbl, _ := store.Table("t")
	return tbl
}

// scanFilters compiles a WHERE clause over kernelSchema both ways: as the
// scan compiles it, and as the row evaluator over the whole conjunction.
func scanFilters(t *testing.T, where string) (conjuncts []sqlparser.Expr, kernels, reference ScanFilter) {
	t.Helper()
	sel, err := sqlparser.Parse("SELECT * FROM t WHERE " + where)
	if err != nil {
		t.Fatalf("parse %q: %v", where, err)
	}
	conjuncts = sqlparser.Conjuncts(sel.Where)
	if kernels, err = CompileScanFilter(conjuncts, kernelSchema); err != nil {
		t.Fatalf("%q: %v", where, err)
	}
	ev, err := Compile(sel.Where, kernelSchema)
	if err != nil {
		t.Fatalf("%q: %v", where, err)
	}
	return conjuncts, kernels, ScanFilter{{row: ev}}
}

// scanRun drains op serially, returning its rows, stats and error text.
func scanRun(op BatchOperator) ([]value.Row, Stats, string) {
	ctx := NewContext()
	rows, err := Drain(op, ctx)
	if err != nil {
		return nil, ctx.Stats, err.Error()
	}
	return rows, ctx.Stats, ""
}

// TestScanKernelsMatchRowEvaluator is the selection kernels' differential:
// over base chunks of every encoding, deleted base rows and delta rows, a
// scan whose predicate compiled to column kernels returns the rows, the
// counters and the error the compiled row evaluator does — and a predicate
// with any conjunct that has no kernel is one row kernel.
func TestScanKernelsMatchRowEvaluator(t *testing.T) {
	kernelOnly := []string{
		"k > 10", "k <= -3 AND g = 2", "f >= 0", "f < 1.5", "f = 0", "g = 1.0", "k <> 5",
		"k BETWEEN -100 AND 250", "f BETWEEN -2.5 AND 2.5", "s BETWEEN 'b' AND 'c'",
		"s LIKE '%bold%'", "s LIKE 'slyly%'", "s LIKE '%é'", "s LIKE '_ %'", "s LIKE ''",
		"s LIKE '%'", "s LIKE '100%%'", "s LIKE '%a_b'", "k LIKE '1%'", "f LIKE '%.5'",
		"k IN (1, 2, 3, 500, -7)", "s IN ('bold bold', 'é é')", "k NOT IN (1, 2, 3)",
		"f IN (0, 2.5)", "s > 'b'", "k > 'a'", "k < 'a'",
		"k <> 5 AND s LIKE '%y%' AND f > -10",
		// a literal on the left is mirrored: 5 < k is k > 5
		"5 < k", "-3 >= k AND 2 = g", "0 <= f", "1.5 > f", "0 = f", "5 <> k", "'b' < s", "'a' > k",
		// NOT goes through a comparison or IN: NOT k > 5 is k <= 5
		"NOT k > 5 AND f < 3", "NOT 5 = k", "NOT s IN ('bold bold')", "NOT k NOT IN (1, 2) AND NOT f <> 0",
	}
	mixed := []string{
		"k + 1 > 10", "s LIKE '%bold%' AND k * 2 < 100", "SUBSTRING(s, 1, 2) = 'sl' AND k > 0",
		"NOT k BETWEEN 1 AND 5 AND f < 3", "NOT s LIKE 'b%'", "k > 0 OR f < 0", "5 < k + 0", "s + 1 > 3 AND k > 0", "k > 0 AND s + 1 > 3",
	}
	for _, p := range colstore.AllPolicies {
		tbl := kernelTable(t, p)
		for _, where := range append(append([]string{}, kernelOnly...), mixed...) {
			label := fmt.Sprintf("%v: %s", p, where)
			conj, kernels, ref := scanFilters(t, where)
			rowKernel := kernels[0].row != nil
			if isMixed := len(kernels) != len(conj) || rowKernel; isMixed != slices.Contains(mixed, where) {
				t.Fatalf("%s: compiled to %d kernels (row kernel %v) for %d conjuncts", label, len(kernels), rowKernel, len(conj))
			}
			cols := identityCols(len(kernelSchema))
			got, gotStats, gotErr := scanRun(NewColTableScan(tbl, "t", cols, kernels, nil))
			want, wantStats, wantErr := scanRun(NewColTableScan(tbl, "t", cols, ref, nil))
			if gotErr != wantErr {
				t.Fatalf("%s: error %q, row evaluator %q", label, gotErr, wantErr)
			}
			if gotStats != wantStats {
				t.Errorf("%s: stats %+v, row evaluator %+v", label, gotStats, wantStats)
			}
			assertRows(t, label, got, want, true)
		}
	}
}

// TestStoredFoldDeltaUsesKernels: an aggregate over a scan whose pruner
// is exact folds the scan's chunks as stored, where the selection kernels
// filter only the delta rows; its groups equal the generic aggregate's
// over the row evaluator.
func TestStoredFoldDeltaUsesKernels(t *testing.T) {
	lo, hi := value.NewInt(-100), value.NewInt(250)
	pruner := &colstore.RangePruner{Col: 0, Lo: &lo, Hi: &hi, Exact: true}
	for _, p := range colstore.AllPolicies {
		tbl := kernelTable(t, p)
		_, kernels, ref := scanFilters(t, "k BETWEEN -100 AND 250")
		agg := func(filter ScanFilter, groupCols []int) *HashAggregate {
			g := func(r value.Row, _ *Params) (value.Value, error) { return r[3], nil }
			f := func(r value.Row, _ *Params) (value.Value, error) { return r[1], nil }
			return &HashAggregate{
				Child:  NewColTableScan(tbl, "t", identityCols(len(kernelSchema)), filter, pruner),
				Groups: []Evaluator{g},
				Aggs: []AggSpec{{Func: sqlparser.AggCount, ArgCol: -1},
					{Func: sqlparser.AggSum, Arg: f, ArgCol: 1}, {Func: sqlparser.AggMin, Arg: f, ArgCol: 1}},
				Out:       Schema{intCol("t", "g"), intCol("", "n"), intCol("", "s"), intCol("", "m")},
				GroupCols: groupCols,
			}
		}
		if !foldsStoredChunks(t, agg(kernels, []int{3}), nil) {
			t.Fatalf("%v: the exact-pruned aggregate does not fold the scan's chunks as stored", p)
		}
		got, _, gotErr := scanRun(agg(kernels, []int{3}))
		want, _, wantErr := scanRun(agg(ref, nil))
		if gotErr != "" || wantErr != "" {
			t.Fatalf("%v: %q / %q", p, gotErr, wantErr)
		}
		assertRows(t, p.String(), got, want, false)
	}
}

// TestLikePatternShapes: a pattern whose only wildcards are a leading or
// trailing run of % compiles to a literal test; anything else (and a
// literal that is not valid UTF-8) keeps the general matcher.
func TestLikePatternShapes(t *testing.T) {
	cases := []struct {
		pattern string
		kind    likeKind
		lit     string
	}{
		{"", likeEqual, ""}, {"bold", likeEqual, "bold"}, {"bold%", likePrefix, "bold"},
		{"%bold", likeSuffix, "bold"}, {"%%bold%%", likeContains, "bold"}, {"%", likeSuffix, ""},
		{"%%", likeSuffix, ""}, {"%é%", likeContains, "é"}, {"b_ld", likeGeneral, "b_ld"},
		{"%b%d%", likeGeneral, "%b%d%"}, {"_%", likeGeneral, "_%"}, {"%\xa9", likeGeneral, "%\xa9"},
	}
	for _, c := range cases {
		if got := compileLike(c.pattern); got.kind != c.kind || got.lit != c.lit {
			t.Errorf("compileLike(%q) = %+v, want kind %d lit %q", c.pattern, got, c.kind, c.lit)
		}
	}
}

// FuzzLikeMatcher: the pattern-specialised matcher agrees with likeMatch
// on every string and pattern — % runs, _, empty strings, non-ASCII and
// invalid UTF-8 included.
func FuzzLikeMatcher(f *testing.F) {
	for _, c := range [][2]string{
		{"slyly ironic", "%ironic%"}, {"", ""}, {"", "%%"}, {"abc", "abc%"}, {"abc", "%bc"},
		{"é", "_"}, {"日本語", "%本%"}, {"a%b", "%%"}, {"ab", "a%%b"}, {"\xc3\xa9", "%\xa9"},
		{"x_y", "%_%"}, {"%a", "%"}, {"bold bold", "%bold"}, {"\xff", "_"},
	} {
		f.Add(c[0], c[1])
	}
	f.Fuzz(func(t *testing.T, s, pattern string) {
		p := compileLike(pattern)
		if got, want := p.match(s), likeMatch(s, pattern); got != want {
			t.Fatalf("%q LIKE %q: compiled %+v says %v, likeMatch %v", s, pattern, p, got, want)
		}
	})
}

// commentTable loads c(comment) with n rows of TPC-H-like comments.
func commentTable(t testing.TB, n int) *colstore.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	words := strings.Fields("furiously regular carefully final slyly ironic bold packages deposits " +
		"accounts blithely express pending requests quickly even special theodolites")
	rows := make([]value.Row, n)
	for i := range rows {
		var b strings.Builder
		for w := 0; w < 6; w++ {
			if w > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(words[rng.Intn(len(words))])
		}
		rows[i] = value.Row{value.NewString(b.String())}
	}
	return colTableOf(t, "c", rows)
}

// likeScan is a serial scan of commentTable under comment LIKE '%bold%'.
func likeScan(t testing.TB, chunks int) (*ColTableScan, func() int) {
	t.Helper()
	tbl := commentTable(t, chunks*colstore.ChunkSize)
	filter, err := CompileScanFilter([]sqlparser.Expr{&sqlparser.LikeExpr{
		Expr: &sqlparser.ColumnRef{Column: "c0"}, Pattern: "%bold%"}}, fullScan(tbl, "c").Schema())
	if err != nil {
		t.Fatal(err)
	}
	scan := NewColTableScan(tbl, "c", []int{0}, filter, nil)
	return scan, func() int {
		ctx := NewContext()
		if err := scan.Open(ctx); err != nil {
			t.Fatal(err)
		}
		n := 0
		for {
			b, err := scan.Next(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
			n += b.NumActive()
		}
		if err := scan.Close(); err != nil {
			t.Fatal(err)
		}
		return n
	}
}

// likeScanAllocs is what a warm LIKE scan allocates, whatever its batch
// count: its morsel cursor.
const likeScanAllocs = 1

// TestLikeScanAllocs: a warm scan under a LIKE kernel allocates nothing
// per batch — the count over 16 chunks is the count over 2.
func TestLikeScanAllocs(t *testing.T) {
	measure := func(chunks int) float64 {
		_, run := likeScan(t, chunks)
		if run() == 0 {
			t.Fatal("precondition: the scan matches nothing")
		}
		return testing.AllocsPerRun(10, func() { run() })
	}
	small, big := measure(2), measure(16)
	t.Logf("warm LIKE scan: %.0f allocations over 2 chunks, %.0f over 16", small, big)
	if big != small || big > likeScanAllocs {
		t.Errorf("warm LIKE scan allocates %.0f over 2 chunks and %.0f over 16, want %d for both", small, big, likeScanAllocs)
	}
}

func BenchmarkLikeKernel(b *testing.B) {
	_, run := likeScan(b, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
