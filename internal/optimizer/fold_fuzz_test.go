package optimizer

import (
	"fmt"
	"strings"
	"testing"

	"htapxplain/internal/catalog"
	"htapxplain/internal/exec"
	"htapxplain/internal/sqlparser"
	"htapxplain/internal/value"
)

// foldTable is FuzzFoldMatchesConjuncts' table: an int, a float and a
// string column, each indexed, so both access paths take any of them.
var foldTable = &catalog.Table{
	Name: "t",
	Columns: []catalog.Column{
		{Name: "i", Type: catalog.TypeInt, NDV: 40},
		{Name: "f", Type: catalog.TypeFloat, NDV: 40},
		{Name: "s", Type: catalog.TypeString, NDV: 40},
	},
	Indexes: []catalog.Index{
		{Name: "ix_i", Table: "t", Column: "i"},
		{Name: "ix_f", Table: "t", Column: "f"},
		{Name: "ix_s", Table: "t", Column: "s"},
	},
	Rows: 1000,
}

// Literals a conjunct draws, by sign: a planned literal and its bound
// counterpart come from one list, so both statements have one fingerprint.
// Ints and floats mix on either numeric column, -0.0 and 0.0 among them.
var (
	foldNonNeg  = []string{"0", "0.0", "1", "1.5", "2", "3", "1.0"}
	foldNeg     = []string{"-0.0", "-1", "-2.5", "-2"}
	foldStrings = []string{"''", "'a'", "'b'", "'c'", "'b'"}
)

// foldValues is every value a row's folded column holds in the check:
// NULL, both zeros, ints and floats that compare equal, and strings.
var foldValues = []value.Value{
	value.Null, value.NewInt(-2), value.NewFloat(-2.5), value.NewInt(-1), value.NewFloat(-0.0),
	value.NewInt(0), value.NewFloat(0), value.NewFloat(0.5), value.NewInt(1), value.NewFloat(1),
	value.NewFloat(1.5), value.NewInt(2), value.NewInt(3), value.NewFloat(3.5), value.NewInt(4),
	value.NewString(""), value.NewString("a"), value.NewString("b"), value.NewString("c"), value.NewString("d"),
}

// foldDraw spells one conjunct's template twice, with planned and with
// bound literals, from the fuzzer's bytes.
type foldDraw struct {
	in   []byte
	lits []string // the column's literal list
}

func (d *foldDraw) byte() int {
	if len(d.in) == 0 {
		return 0
	}
	b := d.in[0]
	d.in = d.in[1:]
	return int(b)
}

// lit draws a literal pair from one sign class of the column's list.
func (d *foldDraw) lit() (planned, bound string) {
	b := d.byte()
	lits := d.lits
	if lits[0] != "''" && b&1 != 0 {
		lits = foldNeg
	}
	return lits[(b>>1)%len(lits)], lits[d.byte()%len(lits)]
}

// conjunct spells conjunct i of the draw on col, both ways.
func (d *foldDraw) conjunct(col string) (planned, bound string) {
	ops := []string{"=", "<", "<=", ">", ">="}
	shape := d.byte()
	switch shape % 8 {
	case 5:
		lo, blo := d.lit()
		hi, bhi := d.lit()
		return fmt.Sprintf("%s BETWEEN %s AND %s", col, lo, hi), fmt.Sprintf("%s BETWEEN %s AND %s", col, blo, bhi)
	case 6:
		// an IN list with a repeated key; the bound list may be longer
		var p, b []string
		for n := 1 + d.byte()%3; len(p) < n; {
			lp, lb := d.lit()
			p, b = append(p, lp), append(b, lb)
		}
		p = append(p, p[0])
		if shape&0x40 != 0 {
			b = append(b, b[len(b)-1])
		}
		return fmt.Sprintf("%s IN (%s)", col, strings.Join(p, ", ")), fmt.Sprintf("%s IN (%s)", col, strings.Join(b, ", "))
	case 7:
		op := ops[(shape>>3)%len(ops)]
		lp, lb := d.lit()
		return fmt.Sprintf("NOT (%s %s %s)", col, op, lp), fmt.Sprintf("NOT (%s %s %s)", col, op, lb)
	}
	op := ops[shape%8]
	lp, lb := d.lit()
	if shape&0x80 != 0 { // mirrored: lit op' col
		op = map[string]string{"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
		return fmt.Sprintf("%s %s %s", lp, op, col), fmt.Sprintf("%s %s %s", lb, op, col)
	}
	return fmt.Sprintf("%s %s %s", col, op, lp), fmt.Sprintf("%s %s %s", col, op, lb)
}

// FuzzFoldMatchesConjuncts holds the binder's fold to the conjunction it
// folds: over 1–4 Sargs on one int, float or string column, the rows that
// each access path's read of the fold keeps — the row store's index (keys,
// or an inclusive range, strict bounds left to the residual) and the zone
// pruner (one key, or a range with its strictness) — and that then pass
// the residual conjuncts are the rows the compiled conjunction keeps, for
// every value of the column's domain, under the planned literals and under
// a bound vector of the same template.
func FuzzFoldMatchesConjuncts(f *testing.F) {
	f.Add([]byte{0, 1, 3, 4, 4, 1, 5, 2})                // i > 2 AND i < 3
	f.Add([]byte{1, 1, 1, 8, 10, 3, 2, 3})               // f < ... AND f > ...
	f.Add([]byte{0, 2, 5, 2, 6, 10, 4, 4, 2, 4, 6})      // BETWEEN beside >=
	f.Add([]byte{2, 1, 6, 2, 2, 4, 6, 2, 8, 2, 0})       // s IN with a repeat
	f.Add([]byte{0, 1, 7 | 4<<3, 6, 2, 2, 1, 3, 5, 5})   // NOT (i >= x) beside <=
	f.Add([]byte{1, 3, 0, 1, 3, 6, 0, 0, 2, 1, 1, 4, 9}) // = beside IN and >
	f.Add([]byte{0, 3, 0x80 | 1, 2, 2, 0x80 | 4, 8, 8, 5, 3, 3, 3, 3})
	f.Fuzz(func(t *testing.T, in []byte) {
		d := &foldDraw{in: in}
		pos := d.byte() % 3
		col := foldTable.Columns[pos].Name
		d.lits = [][]string{foldNonNeg, foldNonNeg, foldStrings}[pos]
		var planned, bound []string
		for n := 1 + d.byte()%4; len(planned) < n; {
			p, b := d.conjunct(col)
			planned, bound = append(planned, p), append(bound, b)
		}
		plannedSQL := "SELECT * FROM t WHERE " + strings.Join(planned, " AND ")
		boundSQL := "SELECT * FROM t WHERE " + strings.Join(bound, " AND ")
		sel, err := sqlparser.Parse(plannedSQL)
		if err != nil {
			t.Fatalf("%s: %v", plannedSQL, err)
		}
		schema := exec.TableSchema(foldTable, "t")
		preds := sqlparser.Conjuncts(sel.Where)
		whole, err := exec.Compile(sel.Where, schema)
		if err != nil {
			t.Fatal(err)
		}
		fold := foldPreds(foldTable, preds)
		if !fold.bare || len(fold.cols) > 1 {
			t.Fatalf("%s: fold %+v, want every conjunct a Sarg on one column", plannedSQL, fold)
		}
		ctxs := []*exec.Context{exec.NewContext()}
		pfp, _, _ := sqlparser.Fingerprint(plannedSQL)
		if bfp, params, err := sqlparser.Fingerprint(boundSQL); err == nil && bfp == pfp {
			if c := exec.NewContext(); c.Bind(sel.Slots, params) {
				ctxs = append(ctxs, c)
			}
		}
		for _, index := range []bool{true, false} {
			s, _, ok := pickSargable(foldTable, &fold, index)
			if !ok {
				continue
			}
			var residual exec.Evaluator
			if rest := masked(preds, s.conjs(true, !index), false); len(rest) > 0 {
				if residual, err = exec.Compile(sqlparser.AndAll(rest), schema); err != nil {
					t.Fatal(err)
				}
			}
			for vi, ctx := range ctxs {
				read := foldRead(t, s, preds, schema, ctx.Params, !index)
				for _, v := range foldValues {
					row := make(value.Row, len(schema))
					for i := range row {
						row[i] = value.Null
					}
					row[pos] = v
					want, err := exec.Truthy(whole, row, ctx.Params)
					if err != nil {
						t.Fatal(err)
					}
					got := read(row)
					if got && residual != nil {
						if got, err = exec.Truthy(residual, row, ctx.Params); err != nil {
							t.Fatal(err)
						}
					}
					if got != want {
						t.Fatalf("%s (vector %d: %s), index %v: %v is kept %v by the fold (%+v), %v by the conjunction",
							plannedSQL, vi, boundSQL, index, v, got, *s.colPred, want)
					}
				}
			}
		}
	})
}

// foldRead is the test an access path's read of s makes of a row under p:
// its keys, or its range, inclusive unless strict. NULL is never read. A
// list slot's keys are the bound vector's, however many: those of its
// conjunct (the zone pruner reads a one-key list's key, and prunes nothing
// under a vector of several, leaving the conjunct's kernel to select).
func foldRead(t *testing.T, s sargable, preds []sqlparser.Expr, schema exec.Schema, p *exec.Params, strict bool) func(value.Row) bool {
	pos := s.pos
	if s.useKeys && s.keys.List > 0 && p != nil {
		in, err := exec.Compile(preds[s.keyConj], schema)
		if err != nil {
			t.Fatal(err)
		}
		return func(r value.Row) bool {
			ok, err := exec.Truthy(in, r, p)
			if err != nil {
				t.Fatal(err)
			}
			return ok
		}
	}
	var keys []value.Value
	if s.useKeys {
		for i := range s.keys.Values {
			k := s.keys.At(i)
			keys = append(keys, p.Value(k.Slot, k.V))
		}
	}
	end := func(b *bound) (value.Value, bool) {
		return p.Value(b.Slot, b.V), b.set
	}
	lo, hasLo := end(&s.lo)
	hi, hasHi := end(&s.hi)
	return func(r value.Row) bool {
		v := r[pos]
		switch {
		case v.IsNull():
			return false
		case s.useKeys:
			for _, k := range keys {
				if v.Equal(k) {
					return true
				}
			}
			return false
		}
		if c := v.Compare(lo); hasLo && (c < 0 || c == 0 && strict && s.lo.strict) {
			return false
		}
		c := v.Compare(hi)
		return !hasHi || c < 0 || c == 0 && !(strict && s.hi.strict)
	}
}
