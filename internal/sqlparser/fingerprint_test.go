package sqlparser

import (
	"strconv"
	"strings"
	"testing"

	"htapxplain/internal/value"
)

func TestFingerprintStripsLiterals(t *testing.T) {
	fp, params, err := Fingerprint(`SELECT o_orderkey FROM orders WHERE o_totalprice > 1500.5 AND o_orderstatus = 'p' LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.ContainsAny(fp, "0123456789'") {
		t.Errorf("fingerprint retains literal text: %q", fp)
	}
	want := []string{"1500.5", "'p'", "10"}
	if len(params) != len(want) {
		t.Fatalf("params = %v, want %v", params, want)
	}
	for i := range want {
		if params[i] != want[i] {
			t.Errorf("params[%d] = %q, want %q", i, params[i], want[i])
		}
	}
}

func TestFingerprintSameTemplateSharesKey(t *testing.T) {
	a, pa, err := Fingerprint(`SELECT COUNT(*) FROM customer, orders WHERE o_custkey = c_custkey AND c_mktsegment = 'building'`)
	if err != nil {
		t.Fatal(err)
	}
	b, pb, err := Fingerprint("select count(*)  from customer,orders\nwhere o_custkey=c_custkey and c_mktsegment='machinery'")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same template yields different fingerprints:\n%q\n%q", a, b)
	}
	if ParamKey(pa) == ParamKey(pb) {
		t.Errorf("different literals share a param key: %q", ParamKey(pa))
	}
}

func TestFingerprintCollapsesInList(t *testing.T) {
	a, pa, err := Fingerprint(`SELECT COUNT(*) FROM customer WHERE SUBSTRING(c_phone, 1, 2) IN ('20', '40', '22')`)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Fingerprint(`SELECT COUNT(*) FROM customer WHERE SUBSTRING(c_phone, 1, 2) IN ('30')`)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("IN-lists of different arity yield different fingerprints:\n%q\n%q", a, b)
	}
	// SUBSTRING args, then the list arity marker, then the elements.
	want := []string{"1", "2", "#3", "'20'", "'40'", "'22'"}
	if len(pa) != len(want) {
		t.Fatalf("params = %v, want %v", pa, want)
	}
	for i := range want {
		if pa[i] != want[i] {
			t.Errorf("params[%d] = %q, want %q", i, pa[i], want[i])
		}
	}
}

func TestFingerprintAdjacentInListsDoNotCollide(t *testing.T) {
	// Same total literal multiset split differently across two IN-lists:
	// fingerprints match (shared template) but the parameter vectors must
	// not — a collision here would make the plan cache serve one query
	// the other's bound plan.
	a, pa, err := Fingerprint(`SELECT COUNT(*) FROM orders WHERE o_orderkey IN (1, 2) AND o_custkey IN (3)`)
	if err != nil {
		t.Fatal(err)
	}
	b, pb, err := Fingerprint(`SELECT COUNT(*) FROM orders WHERE o_orderkey IN (1) AND o_custkey IN (2, 3)`)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("templates should match:\n%q\n%q", a, b)
	}
	if ParamKey(pa) == ParamKey(pb) {
		t.Errorf("param keys collide across different list splits: %q", ParamKey(pa))
	}
}

func TestFingerprintDistinguishesTemplates(t *testing.T) {
	a, _, err := Fingerprint(`SELECT c_custkey FROM customer ORDER BY c_acctbal DESC LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Fingerprint(`SELECT c_custkey FROM customer ORDER BY c_acctbal LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Errorf("ASC and DESC templates collide: %q", a)
	}
}

func TestFingerprintColumnInListNotCollapsed(t *testing.T) {
	fp, _, err := Fingerprint(`SELECT COUNT(*) FROM orders WHERE o_orderkey IN (1, o_custkey)`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fp, "o_custkey") {
		t.Errorf("expression IN-list lost its column ref: %q", fp)
	}
}

func TestFingerprintLexError(t *testing.T) {
	if _, _, err := Fingerprint(`SELECT 'unterminated`); err == nil {
		t.Fatal("want lex error, got nil")
	}
}

// slotValues collects, by slot, the values of the literals Parse built for
// sel: one per scalar slot, the items of a list slot.
func slotValues(sel *Select) map[int][]value.Value {
	out := map[int][]value.Value{}
	lit := func(e Expr) (int, value.Value, bool) {
		switch l := e.(type) {
		case *IntLit:
			return l.Slot, value.NewInt(l.V), true
		case *FloatLit:
			return l.Slot, value.NewFloat(l.V), true
		case *StringLit:
			return l.Slot, value.NewString(l.V), true
		}
		return 0, value.Null, false
	}
	var walk func(Expr)
	walk = func(e Expr) {
		if s, v, ok := lit(e); ok {
			if s > 0 {
				out[s] = append(out[s], v)
			}
			return
		}
		switch x := e.(type) {
		case *BinaryExpr:
			walk(x.Left)
			walk(x.Right)
		case *NotExpr:
			walk(x.Inner)
		case *InExpr:
			walk(x.Expr)
			for _, it := range x.List {
				if x.Slot > 0 {
					_, v, _ := lit(it)
					out[x.Slot] = append(out[x.Slot], v)
				} else {
					walk(it)
				}
			}
		case *BetweenExpr:
			walk(x.Expr)
			walk(x.Lo)
			walk(x.Hi)
		case *LikeExpr:
			walk(x.Expr)
			out[x.Slot] = append(out[x.Slot], value.NewString(x.Pattern))
		case *FuncExpr:
			for _, a := range x.Args {
				walk(a)
			}
		case *AggExpr:
			walk(x.Arg)
		}
	}
	for _, it := range sel.Items {
		walk(it.Expr)
	}
	walk(sel.Where)
	for _, g := range sel.GroupBy {
		walk(g)
	}
	for _, o := range sel.OrderBy {
		walk(o.Expr)
	}
	if sel.LimitSlot > 0 {
		out[sel.LimitSlot] = append(out[sel.LimitSlot], value.NewInt(sel.Limit))
	}
	if sel.OffsetSlot > 0 {
		out[sel.OffsetSlot] = append(out[sel.OffsetSlot], value.NewInt(sel.Offset))
	}
	return out
}

// fingerprintSeeds seed FuzzFingerprintMatchesParse and the golden corpus.
var fingerprintSeeds = []string{
	`SELECT c_name AS nameé1 FROM customer WHERE c_custkey = 5`,
	`SELECT c_name AS nameé2 FROM customer WHERE c_custkey = 5`,
	`SELECT a FROM t WHERE x = -5`,
	`SELECT a FROM t WHERE x = - 5`,
	`SELECT a FROM t WHERE x = 5 - 3`,
	`SELECT a FROM t WHERE x = 5.0 AND y > -2.5`,
	`SELECT a FROM t WHERE x = 'a''b'`,
	`SELECT a FROM t WHERE x IN (1,2,3) LIMIT 3 OFFSET 2`,
	`SELECT a FROM t WHERE x IN (1, y, 'z') AND z NOT IN ('p')`,
	`SELECT a FROM t WHERE x IN (-1, 2) OR x = -(4)`,
	`SELECT SUBSTRING(p, 1, 2), COUNT(*) FROM t WHERE p LIKE 'ab%' GROUP BY SUBSTRING(p, 1, 2) ORDER BY 1 LIMIT 0`,
	`SELECT a FROM t JOIN u ON t.k = u.k AND u.v = 'x' WHERE t.w BETWEEN 3 AND 9.5`,
	`SELECT a FROM t WHERE x ın (1, 2)`,
}

// FuzzFingerprintMatchesParse: for every statement Parse accepts,
// Fingerprint's params pair one-to-one with the parser's slots — a list
// slot with its "#n" marker and n items — and each param's ParamValue is
// the literal Parse built there. A plan bound to another statement of the
// template reads its literals by exactly this pairing.
func FuzzFingerprintMatchesParse(f *testing.F) {
	for _, sql := range fingerprintSeeds {
		f.Add(sql)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		sel, err := Parse(sql)
		if err != nil {
			return
		}
		_, params, err := Fingerprint(sql)
		if err != nil {
			t.Fatalf("Parse accepts %q, Fingerprint fails: %v", sql, err)
		}
		lits := slotValues(sel)
		i := 0
		for s, slot := range sel.Slots {
			want := lits[s+1]
			var got []value.Value
			if slot.Kind == SlotList {
				if i >= len(params) || params[i] != "#"+strconv.Itoa(len(want)) {
					t.Fatalf("%q: slot %d is a list of %d, params %q from %d", sql, s+1, len(want), params, i)
				}
				i++
				for range want {
					if i >= len(params) {
						t.Fatalf("%q: params %q end inside list slot %d", sql, params, s+1)
					}
					v, ok := ParamValue(params[i], false)
					if !ok {
						t.Fatalf("%q: list param %q does not convert", sql, params[i])
					}
					got = append(got, v)
					i++
				}
			} else {
				if i >= len(params) {
					t.Fatalf("%q: %d slots, params %q", sql, len(sel.Slots), params)
				}
				v, ok := ParamValue(params[i], slot.Neg)
				if !ok {
					t.Fatalf("%q: param %q (slot %+v) does not convert", sql, params[i], slot)
				}
				got = append(got, v)
				i++
			}
			if len(got) != len(want) {
				t.Fatalf("%q: slot %d holds %d literals in the AST, %d params", sql, s+1, len(want), len(got))
			}
			for k := range got {
				if g, w := got[k], want[k]; g.K != w.K || g.I != w.I || g.S != w.S {
					t.Fatalf("%q: slot %d item %d: param gives %v (%s), Parse built %v (%s)", sql, s+1, k, g, g.K, w, w.K)
				}
			}
		}
		if i != len(params) {
			t.Fatalf("%q: %d slots pair with %d of params %q", sql, len(sel.Slots), i, params)
		}
		if len(lits) != len(sel.Slots) {
			t.Fatalf("%q: the AST holds literals at %d slots, Slots lists %d", sql, len(lits), len(sel.Slots))
		}
	})
}
