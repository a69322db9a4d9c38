package exec

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"htapxplain/internal/colstore"
	"htapxplain/internal/sqlparser"
	"htapxplain/internal/value"
)

// joinStep is one hash join of a left-deep chain: its build side, its keys
// (the probe keys index the output of the chain below it), an optional
// residual and the columns it emits (nil: all of them).
type joinStep struct {
	build    func() BatchOperator
	pk, bk   []int
	residual Evaluator
	emit     []int
}

// chainOf builds the left-deep chain probe ⋈ steps[0] ⋈ steps[1] ⋈ …. With
// barrier set, an identity projection sits between consecutive joins, so
// no join sees a join below it and nothing is pushed: the reference.
func chainOf(probe BatchOperator, steps []joinStep, barrier bool) BatchOperator {
	op := probe
	for i, s := range steps {
		if barrier && i > 0 {
			evals := make([]Evaluator, len(op.Schema()))
			for c := range evals {
				evals[c] = ColumnEval(c)
			}
			op = &ProjectOp{Child: op, Evals: evals, Out: op.Schema()}
		}
		op = NewHashJoin(op, s.build(), s.pk, s.bk, s.residual, s.emit)
	}
	return op
}

// guardOp passes its child's batches through and fails the test if a batch
// it handed out was changed by the time it is asked for the next one: a
// consumer must not write to a producer's batch header.
type guardOp struct {
	BatchOperator
	t    *testing.T
	last *Batch
	sel  []int32
	n    int
}

func (g *guardOp) Clone() BatchOperator {
	return &guardOp{BatchOperator: g.BatchOperator.Clone(), t: g.t}
}

func (g *guardOp) Next(ctx *Context) (*Batch, error) {
	if g.last != nil && (g.last.Len != g.n || !slices.Equal(g.last.Sel, g.sel) || (g.last.Sel == nil) != (g.sel == nil)) {
		g.t.Errorf("a consumer rewrote the build batch: len %d sel %v, handed out len %d sel %v", g.last.Len, g.last.Sel, g.n, g.sel)
	}
	b, err := g.BatchOperator.Next(ctx)
	g.last = b
	if b != nil {
		g.n, g.sel = b.Len, slices.Clone(b.Sel)
	}
	return b, err
}

// drainChain runs op at the given DOP and returns its rows and counters.
func drainChain(t *testing.T, op BatchOperator, dop int) ([]value.Row, Stats) {
	t.Helper()
	ctx := NewContext()
	ctx.DOP = dop
	rows, err := Drain(op, ctx)
	if err != nil {
		t.Fatal(err)
	}
	return rows, ctx.Stats
}

// TestJoinKeyFilterMatchesBarrier: a chain of two to four hash joins gives
// the same multiset of rows whether the joins reduce the builds below them
// or an identity projection between them stops every push — over int,
// float, string and NULL keys (1 against 1.0, -0.0, NaN, NULL against
// NULL), duplicate keys, an empty upper build, builds that spill from the
// int form mid-build, a residual, narrowed emits and a filtered build
// side, at DOP 1 and 4 (the column-store lower builds fork). The pushed
// chain never keeps more build rows than the barrier's, keeps none under an
// empty upper build, and keeps exactly as many when no join has a single
// key to push.
func TestJoinKeyFilterMatchesBarrier(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	nBig := colstore.ChunkSize + 77 // two morsels: a DOP-4 build forks
	probeTbl := colTableOf(t, "p", joinRows(rng, 300, 150))
	b1Tbl := colTableOf(t, "b1", joinRows(rng, nBig, colstore.ChunkSize+5))
	b2Rows := joinRows(rng, 40, 20)
	b2Tbl, b2Few := colTableOf(t, "b2", b2Rows), colTableOf(t, "b2", b2Rows[:5])
	b2Spill := colTableOf(t, "b2", joinRows(rng, nBig, colstore.ChunkSize+9))
	b3Tbl := colTableOf(t, "b3", joinRows(rng, 30, 3))
	w := len(b2Rows[0]) // every table has joinRows' width
	scan := func(tbl *colstore.Table, name string) func() BatchOperator {
		return func() BatchOperator { return fullScan(tbl, name) }
	}
	empty := func() BatchOperator { return &memOp{schema: fullScan(b2Tbl, "b2").Schema()} }
	// b1 rows whose measure c2 is positive: a build batch with a selection
	filtered := func() BatchOperator {
		return &FilterOp{Child: fullScan(b1Tbl, "b1"), Pred: func(r value.Row, _ *Params) (value.Value, error) {
			return value.NewBool(r[2].K == value.KindInt && r[2].I > 0), nil
		}}
	}
	guarded := func() BatchOperator { return &guardOp{BatchOperator: filtered(), t: t} }
	// the residual b1.c2 < b2.c2 over (p ++ b1) ++ b2
	two := fullScan(probeTbl, "p").Schema().Concat(fullScan(b1Tbl, "b1").Schema())
	residual, err := Compile(&sqlparser.BinaryExpr{
		Op:    sqlparser.OpLt,
		Left:  &sqlparser.ColumnRef{Table: "b1", Column: "c2"},
		Right: &sqlparser.ColumnRef{Table: "b2", Column: "c2"},
	}, two.Concat(fullScan(b2Tbl, "b2").Schema()))
	if err != nil {
		t.Fatal(err)
	}
	// explicit upper builds: sparse ints (the chained int form), and a
	// generic table holding 1 and 1.0, NULL, "3" and 2
	keys := func(vs ...value.Value) func() BatchOperator {
		return func() BatchOperator { return &memOp{schema: Schema{intCol("u", "k")}, rows: oneColumn(vs)} }
	}
	sparse := keys(value.NewInt(0), value.NewInt(3), value.NewInt(1<<40))
	mixed := keys(value.Null, value.NewFloat(1), value.NewInt(1), value.NewString("3"), value.NewInt(2))
	// j1 is p.c4 = b1.c4 (dense ints, duplicates on both sides); the joins
	// above it key on b1's columns at w+c of its output
	j1 := joinStep{build: scan(b1Tbl, "b1"), pk: []int{4}, bk: []int{4}}
	const (
		fewer = "fewer" // the pushed chain keeps fewer build rows
		same  = "same"  // nothing is pushed: as many
		none  = "none"  // an empty upper build: none at all
	)
	cases := []struct {
		name   string
		steps  []joinStep
		kept   string // fewer, same, none, or "" for at most as many
		serial bool   // no build side forks at DOP 4
	}{
		{"tricky keys", []joinStep{j1, {build: scan(b2Tbl, "b2"), pk: []int{w + 0}, bk: []int{0}}}, "", false},
		{"few tricky upper keys", []joinStep{j1, {build: scan(b2Few, "b2"), pk: []int{w + 0}, bk: []int{0}}}, fewer, false},
		{"dense int upper keys", []joinStep{j1, {build: scan(b2Few, "b2"), pk: []int{w + 9}, bk: []int{9}}}, fewer, false},
		{"chained int upper keys", []joinStep{j1, {build: sparse, pk: []int{w + 4}, bk: []int{0}}}, fewer, false},
		{"int keys against a generic upper table", []joinStep{j1, {build: mixed, pk: []int{w + 4}, bk: []int{0}}}, fewer, false},
		{"upper build spills mid-build", []joinStep{j1, {build: scan(b2Spill, "b2"), pk: []int{w + 4}, bk: []int{6}}}, "", false},
		{"lower build spills mid-build", []joinStep{{build: scan(b1Tbl, "b1"), pk: []int{5}, bk: []int{5}},
			{build: scan(b2Few, "b2"), pk: []int{w + 4}, bk: []int{4}}}, fewer, false},
		{"empty upper build", []joinStep{j1, {build: empty, pk: []int{w + 4}, bk: []int{4}}}, none, false},
		{"residual on the upper join", []joinStep{j1, {build: scan(b2Few, "b2"), pk: []int{w + 1}, bk: []int{1}, residual: residual}}, fewer, false},
		{"two-key upper join", []joinStep{j1, {build: scan(b2Few, "b2"), pk: []int{w + 0, w + 1}, bk: []int{0, 1}}}, same, false},
		{"probe-side key", []joinStep{j1, {build: scan(b2Few, "b2"), pk: []int{0}, bk: []int{0}}}, same, false},
		{"filtered lower build", []joinStep{{build: filtered, pk: []int{4}, bk: []int{4}},
			{build: scan(b2Few, "b2"), pk: []int{w + 0}, bk: []int{0}}}, fewer, false},
		{"guarded lower build", []joinStep{{build: guarded, pk: []int{4}, bk: []int{4}},
			{build: scan(b2Few, "b2"), pk: []int{w + 0}, bk: []int{0}}}, fewer, true},
		// j1 emits p.c3, b1.c0 and b1.c4, and its residual makes its table
		// keep every b1 column, so emitKept maps past keep's identity; j2
		// pushes b1.c4 and j3, through j2's probe side, b1.c0 into j1
		{"narrowed emits", []joinStep{
			{build: scan(b1Tbl, "b1"), pk: []int{4}, bk: []int{4}, emit: []int{3, w + 0, w + 4},
				residual: func(r value.Row, _ *Params) (value.Value, error) { return value.NewBool(r[w+3].I%3 != 0), nil }},
			{build: scan(b2Few, "b2"), pk: []int{2}, bk: []int{4}, emit: []int{0, 1}},
			{build: scan(b3Tbl, "b3"), pk: []int{1}, bk: []int{0}}}, fewer, false},
		// j4 keys on p (no push), j3 on b2 (into j2), j2 on b1 (into j1)
		{"four joins", []joinStep{j1,
			{build: scan(b2Tbl, "b2"), pk: []int{w + 0}, bk: []int{0}},
			{build: scan(b3Tbl, "b3"), pk: []int{2*w + 4}, bk: []int{4}},
			{build: scan(b2Tbl, "b2"), pk: []int{9}, bk: []int{9}}}, fewer, false},
	}
	for _, c := range cases {
		for _, dop := range []int{1, 4} {
			label := fmt.Sprintf("%s, DOP %d", c.name, dop)
			want, ws := drainChain(t, chainOf(fullScan(probeTbl, "p"), c.steps, true), dop)
			got, gs := drainChain(t, chainOf(fullScan(probeTbl, "p"), c.steps, false), dop)
			assertRows(t, label, got, want, false)
			if len(want) == 0 && c.kept != none {
				t.Errorf("%s: the chain is empty — fixture too sparse", label)
			}
			g, b := gs.HashBuildRows, ws.HashBuildRows
			if g > b || c.kept == fewer && g == b || c.kept == same && g != b || c.kept == none && g != 0 {
				t.Errorf("%s: kept %d build rows, the barrier %d; want %q", label, g, b, c.kept)
			}
			if dop == 4 && !c.serial && gs.ParallelWorkers == 0 {
				t.Errorf("%s: no build forked", label)
			}
		}
	}

	// One pooled tree, executed again and again over upper builds that
	// change between executions — int keys, generic keys, none at all —
	// holds the barrier's rows every time: no filter outlives its build.
	upper := &swapOp{schema: fullScan(b2Tbl, "b2").Schema(), rows: new([]value.Row)}
	steps := []joinStep{j1, {build: func() BatchOperator { return upper }, pk: []int{w + 0}, bk: []int{0}}}
	runner := NewRunner(chainOf(fullScan(probeTbl, "p"), steps, false))
	sets := [][]value.Row{b2Rows[:3], nil, b2Rows, b2Rows[10:11], nil, b2Rows[5:9]}
	for i := range sets {
		sets[i] = slices.Clone(sets[i])
	}
	sets[3][0] = slices.Clone(sets[3][0])
	sets[3][0][0] = value.NewInt(1) // an int-form upper table
	for round := 0; round < 2; round++ {
		for i, rows := range sets {
			*upper.rows = rows
			for _, dop := range []int{1, 4} {
				label := fmt.Sprintf("pooled tree, round %d, upper build %d, DOP %d", round, i, dop)
				want, _ := drainChain(t, chainOf(fullScan(probeTbl, "p"), steps, true), dop)
				ctx := NewContext()
				ctx.DOP = dop
				got, err := runner.Drain(ctx)
				if err != nil {
					t.Fatal(err)
				}
				assertRows(t, label, got, want, false)
				if len(rows) == 0 && ctx.Stats.HashBuildRows != 0 {
					t.Errorf("%s: kept %d build rows under an empty upper build", label, ctx.Stats.HashBuildRows)
				}
				for op := runner.root; op != nil; {
					j, ok := op.(*HashJoin)
					if !ok {
						break
					}
					if len(j.filters) != 0 {
						t.Errorf("%s: a join holds %d filters after the execution", label, len(j.filters))
					}
					op = j.Probe
				}
			}
		}
	}
}

// swapOp is memOp over a row set its clones share and a test replaces
// between executions.
type swapOp struct {
	schema Schema
	rows   *[]value.Row
	em     rowEmitter
}

func (s *swapOp) Schema() Schema       { return s.schema }
func (s *swapOp) Clone() BatchOperator { return &swapOp{schema: s.schema, rows: s.rows} }
func (s *swapOp) Open(*Context) error {
	s.em.reset(*s.rows, len(s.schema))
	return nil
}
func (s *swapOp) Next(ctx *Context) (*Batch, error) { return s.em.next(ctx), nil }
func (s *swapOp) Close() error                      { return nil }

// oneColumn makes a one-column row of every value.
func oneColumn(vs []value.Value) []value.Row {
	out := make([]value.Row, len(vs))
	for i, v := range vs {
		out[i] = value.Row{v}
	}
	return out
}

// fuzzKeys decodes at most max key values from data: a tag byte below
// len(trickyKeys) is that tricky key, one below 200 the int tag-100, and
// any other tag is followed by an int's 8 bytes.
func fuzzKeys(data []byte, max int) (keys []value.Value, rest []byte) {
	for len(data) > 0 && len(keys) < max {
		tag := data[0]
		data = data[1:]
		switch {
		case int(tag) < len(trickyKeys):
			keys = append(keys, trickyKeys[tag])
		case tag < 200:
			keys = append(keys, value.NewInt(int64(tag)-100))
		default:
			var b [8]byte
			data = data[copy(b[:], data):]
			keys = append(keys, value.NewInt(int64(binary.LittleEndian.Uint64(b[:]))))
		}
	}
	return keys, data
}

// maxChainRows bounds the rows FuzzJoinKeyFilter lets a join of its
// barrier chain emit.
const maxChainRows = 1 << 20

// chainRows is the most rows a join of the chain p ⋈ l ⋈ u ⋈ v (on p.k =
// l.a, l.b = u.k and l.a = v.k) emits without semi-join reduction, counted
// from the key multiplicities under keyEqual.
func chainRows(probe []value.Value, pairs []value.Row, upper, top []value.Value) int64 {
	count := func(set []value.Value, v value.Value) int64 {
		n := int64(0)
		for _, k := range set {
			if keyEqual(k, v) {
				n++
			}
		}
		return n
	}
	var first, second, third int64
	for _, r := range pairs {
		if mp := count(probe, r[0]); mp > 0 {
			mu := mp * count(upper, r[1])
			first, second, third = first+mp, second+mu, third+mu*count(top, r[0])
		}
	}
	return max(first, second, third)
}

// FuzzJoinKeyFilter: over fuzzed key multisets, a table's semiJoin keeps
// the rows a nested loop under keyEqual keeps, in whichever form the build
// chose (and in the chained and direct int forms where they apply), with
// every row active or a selection of them; and the
// chain p ⋈ l ⋈ u ⋈ v on p.k = l.a, l.b = u.k and l.a = v.k — u's and v's
// tables both reducing l's build — gives the barrier's rows, keeping
// exactly the l rows whose a is in v and whose b is in u. Every NULL-free
// int key column is fed both as values and in its int form, and both give
// the same kept rows, pairs and build rows. Inputs whose
// barrier would emit more than maxChainRows rows at some join skip the
// chain: their drain measures the machine's memory, not the filter.
func FuzzJoinKeyFilter(f *testing.F) {
	for _, seed := range []string{
		"\x03\x02\x03\x01\x05" + "\x04\x00\x00\x05\x05\x07\x07\x08\x08" + "\x09\x06\x07" + "\x02\x00\x01", // tricky keys
		"\x02\x03\x03" + "\x03dddedf" + "\x64\x65\x66" + "dd",                                             // ints, duplicates
		"\x01\x02\x00" + "\x02\x00\x00\x02\x03" + "" + "\x00",                                             // empty upper build
		"\x01\x02\x02" + "d" + "\x00\x06\x01\x02" + "de" + "d",                                            // NULL and 0.0 against ints 0 and 1
		"\x01\x02\x02" + "d" + "dd\x65\x66" + "\xff\x00\x00\x00\x00\x00\x00\x00\x80d" + "d",               // MinInt64 and 0 upper: chained
		strings.Repeat("[", 2000), // one key everywhere: ~10⁹ chain rows, skipped by the bound
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		probe, rest := fuzzKeys(data[3:], int(data[0]))
		lower, rest := fuzzKeys(rest, 2*int(data[1]))
		upper, rest := fuzzKeys(rest, int(data[2]))
		top, _ := fuzzKeys(rest, BatchSize)
		pairs := make([]value.Row, len(lower)/2)
		for i := range pairs {
			pairs[i] = value.Row{lower[2*i], lower[2*i+1]}
		}
		holds := func(set []value.Value, v value.Value) bool {
			return slices.ContainsFunc(set, func(k value.Value) bool { return keyEqual(k, v) })
		}

		// membership, against the nested loop
		us := Schema{intCol("u", "k")}
		uj := [2]*HashJoin{
			NewHashJoin(&memOp{schema: Schema{intCol("q", "k")}}, &memOp{schema: us, rows: oneColumn(upper)}, []int{0}, []int{0}, nil, nil),
			NewHashJoin(&memOp{schema: Schema{intCol("q", "k")}}, &typedOp{memOp: memOp{schema: us, rows: oneColumn(upper)}}, []int{0}, []int{0}, nil, nil),
		}
		for _, u := range uj {
			if err := u.Open(NewContext()); err != nil {
				t.Fatal(err)
			}
			defer u.Close()
		}
		if vt, it := &uj[0].table, &uj[1].table; tableForm(vt) != tableForm(it) || !slices.Equal(vt.ints, it.ints) {
			t.Fatalf("a build of int-form keys chose the %s form over %v, one of values the %s form over %v",
				tableForm(it), it.ints, tableForm(vt), vt.ints)
		}
		lb := &Batch{Cols: [][]value.Value{make([]value.Value, len(lower))}, Len: len(lower)}
		copy(lb.Cols[0], lower)
		ilb := intForm(lb)
		defer releaseIntForm(ilb)
		// the same rows with every third one inactive, as a filter leaves them
		var sel, held, heldSel []int32
		for p, v := range lower {
			if p%3 != 1 {
				sel = append(sel, int32(p))
			}
			if holds(upper, v) {
				held = append(held, int32(p))
				if p%3 != 1 {
					heldSel = append(heldSel, int32(p))
				}
			}
		}
		slb, silb := *lb, *ilb
		slb.Sel, silb.Sel = sel, sel
		check := func(form string) {
			t.Helper()
			for un, u := range uj {
				for bn, b := range []*Batch{lb, ilb, &slb, &silb} {
					label, want := fmt.Sprintf("%s, build keys %s, probed keys %s", form, keyForms[un], keyForms[bn%2]), held
					if b.Sel != nil {
						label, want = label+", every third row inactive", heldSel
					}
					if got := u.table.semiJoin(b, 0, nil); !slices.Equal(got, want) {
						t.Fatalf("%s: semiJoin keeps %v, nested loop %v (lower %v, upper %v)", label, got, want, lower, upper)
					}
				}
			}
		}
		check(tableForm(&uj[0].table))
		if ints := uj[0].table.ints; len(ints) > 0 {
			for _, u := range uj {
				u.table.index.buildChained(u.table.ints)
			}
			check(formChained)
			lo, hi := slices.Min(ints), slices.Max(ints)
			if span := uint64(hi) - uint64(lo); span < 1<<20 {
				for _, u := range uj {
					u.table.index.buildDirect(u.table.ints, lo, span)
				}
				check(formDirect)
			}
		}

		// the chain, against the barrier — when the barrier's joins stay
		// small enough to drain: a multiset of one repeated key makes every
		// stage a cross product
		if chainRows(probe, pairs, upper, top) > maxChainRows {
			return
		}
		kept := int64(len(upper) + len(top))
		for _, r := range pairs {
			if holds(top, r[0]) && holds(upper, r[1]) {
				kept++
			}
		}
		var want []value.Row
		for form, name := range keyForms {
			build := func(schema Schema, rows []value.Row) func() BatchOperator {
				if form == 1 {
					return func() BatchOperator { return &typedOp{memOp: memOp{schema: schema, rows: rows}} }
				}
				return func() BatchOperator { return &memOp{schema: schema, rows: rows} }
			}
			steps := []joinStep{
				{build: build(Schema{intCol("l", "a"), intCol("l", "b")}, pairs), pk: []int{0}, bk: []int{0}},
				{build: build(Schema{intCol("u", "k")}, oneColumn(upper)), pk: []int{2}, bk: []int{0}},
				{build: build(Schema{intCol("v", "k")}, oneColumn(top)), pk: []int{1}, bk: []int{0}},
			}
			p := build(Schema{intCol("p", "k")}, oneColumn(probe))
			if form == 0 {
				want, _ = drainChain(t, chainOf(p(), steps, true), 1)
			}
			got, gs := drainChain(t, chainOf(p(), steps, false), 1)
			assertRows(t, "chain, keys "+name, got, want, false)
			if gs.HashBuildRows != kept {
				t.Fatalf("the pushed chain, keys %s, kept %d build rows, want %d", name, gs.HashBuildRows, kept)
			}
		}
	})
}
