package value

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "NULL", KindInt: "INT", KindFloat: "FLOAT",
		KindString: "STRING", KindBool: "BOOL", Kind(99): "Kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if v := NewInt(7); v.K != KindInt || v.I != 7 {
		t.Errorf("NewInt: %+v", v)
	}
	if v := NewFloat(2.5); v.K != KindFloat || v.Float() != 2.5 {
		t.Errorf("NewFloat: %+v", v)
	}
	if v := NewString("x"); v.K != KindString || v.S != "x" {
		t.Errorf("NewString: %+v", v)
	}
	if v := NewBool(true); !v.Bool() {
		t.Errorf("NewBool(true).Bool() = false")
	}
	if v := NewBool(false); v.Bool() {
		t.Errorf("NewBool(false).Bool() = true")
	}
	if !Null.IsNull() || NewInt(0).IsNull() {
		t.Error("IsNull misbehaves")
	}
}

func TestAsFloatCoercion(t *testing.T) {
	if f, ok := NewInt(3).AsFloat(); !ok || f != 3 {
		t.Errorf("int AsFloat = %v, %v", f, ok)
	}
	if f, ok := NewFloat(1.5).AsFloat(); !ok || f != 1.5 {
		t.Errorf("float AsFloat = %v, %v", f, ok)
	}
	if _, ok := NewString("x").AsFloat(); ok {
		t.Error("string AsFloat should fail")
	}
	if _, ok := Null.AsFloat(); ok {
		t.Error("null AsFloat should fail")
	}
}

func TestCompareBasics(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewInt(2), NewFloat(2.5), -1}, // mixed numeric
		{NewFloat(2.5), NewInt(2), 1},
		{NewString("a"), NewString("b"), -1},
		{NewString("b"), NewString("b"), 0},
		{Null, NewInt(1), -1}, // null sorts first
		{NewInt(1), Null, 1},
		{Null, Null, 0},
		{NewBool(false), NewBool(true), -1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestEqualNullSemantics(t *testing.T) {
	if Null.Equal(Null) {
		t.Error("NULL = NULL must be false (SQL semantics)")
	}
	if Null.Equal(NewInt(0)) || NewInt(0).Equal(Null) {
		t.Error("NULL = x must be false")
	}
	if !NewInt(5).Equal(NewFloat(5)) {
		t.Error("5 = 5.0 should hold across numeric kinds")
	}
}

func TestCompareAntisymmetryProperty(t *testing.T) {
	gen := func(i int64, f float64, s string, pick uint8) Value {
		switch pick % 4 {
		case 0:
			return NewInt(i)
		case 1:
			return NewFloat(f)
		case 2:
			return NewString(s)
		default:
			return Null
		}
	}
	prop := func(i1, i2 int64, f1, f2 float64, s1, s2 string, p1, p2 uint8) bool {
		if math.IsNaN(f1) || math.IsNaN(f2) {
			return true
		}
		a, b := gen(i1, f1, s1, p1), gen(i2, f2, s2, p2)
		return a.Compare(b) == -b.Compare(a)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareReflexiveProperty(t *testing.T) {
	prop := func(i int64, f float64, s string, p uint8) bool {
		if math.IsNaN(f) {
			return true
		}
		var v Value
		switch p % 4 {
		case 0:
			v = NewInt(i)
		case 1:
			v = NewFloat(f)
		case 2:
			v = NewString(s)
		default:
			v = Null
		}
		return v.Compare(v) == 0
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyDistinguishesValuesProperty(t *testing.T) {
	// equal keys must mean Compare == 0 for same-kind values
	prop := func(a, b int64) bool {
		ka, kb := NewInt(a).Key(), NewInt(b).Key()
		return (ka == kb) == (a == b)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
	propS := func(a, b string) bool {
		ka, kb := NewString(a).Key(), NewString(b).Key()
		return (ka == kb) == (a == b)
	}
	if err := quick.Check(propS, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyKindsDisjoint(t *testing.T) {
	// the int 1 and the string "1" must not collide
	vals := []Value{NewInt(1), NewFloat(1), NewString("1"), NewBool(true), Null}
	seen := map[string]Value{}
	for _, v := range vals {
		if prev, dup := seen[v.Key()]; dup {
			t.Errorf("key collision between %v(%s) and %v(%s)", prev, prev.K, v, v.K)
		}
		seen[v.Key()] = v
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "NULL"},
		{NewInt(-3), "-3"},
		{NewFloat(2.5), "2.5"},
		{NewString("hi"), "hi"},
		{NewBool(true), "true"},
		{NewBool(false), "false"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%v.String() = %q, want %q", c.v.K, got, c.want)
		}
	}
}

func TestRowCloneIndependence(t *testing.T) {
	r := Row{NewInt(1), NewString("a")}
	c := r.Clone()
	c[0] = NewInt(99)
	if r[0].I != 1 {
		t.Error("Clone must not alias the original row")
	}
}

func TestRowKeySelectsColumns(t *testing.T) {
	a := Row{NewInt(1), NewString("x"), NewFloat(2)}
	b := Row{NewInt(1), NewString("y"), NewFloat(2)}
	if a.Key([]int{0, 2}) != b.Key([]int{0, 2}) {
		t.Error("keys over identical column subsets should match")
	}
	if a.Key([]int{0, 1}) == b.Key([]int{0, 1}) {
		t.Error("keys over differing column subsets should differ")
	}
}

func TestRowString(t *testing.T) {
	r := Row{NewInt(1), NewString("a")}
	if got := r.String(); got != "1, a" {
		t.Errorf("Row.String() = %q", got)
	}
}

// layoutFloats are the floats whose bits a one-payload Value must keep:
// both zeros, two NaN payloads (quiet, and signalling with its sign set),
// both infinities, the smallest subnormal and two ordinary values.
var layoutFloats = []struct {
	bits uint64
	key  string // Key() as recorded when floats had a field of their own
	str  string
}{
	{0x8000000000000000, "\x00f-0p-1074", "-0"},
	{0x0000000000000000, "\x00f0p-1074", "0"},
	{0x7ff8000000000001, "\x00fNaN", "NaN"},
	{0xfff4000000000abc, "\x00fNaN", "NaN"},
	{0x7ff0000000000000, "\x00f+Inf", "+Inf"},
	{0xfff0000000000000, "\x00f-Inf", "-Inf"},
	{0x0000000000000001, "\x00f1p-1074", "5e-324"},
	{0x4004000000000000, "\x00f5629499534213120p-51", "2.5"},
	{0xfe37e43c8800759c, "\x00f-6724873095247260p+944", "-1e+300"},
}

// TestValueLayout: a Value is 32 bytes — a kind, one 8-byte payload, a
// string — and a float's IEEE bits live in that payload: NewFloat/Float
// round-trip every bit pattern, NaN payloads and the sign of zero
// included, and Key, String and Compare answer as they did when the float
// had a field of its own.
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
	for _, c := range layoutFloats {
		f := math.Float64frombits(c.bits)
		v := NewFloat(f)
		if v.K != KindFloat || math.Float64bits(v.Float()) != c.bits || uint64(v.I) != c.bits {
			t.Errorf("NewFloat(%#x) = %#v, Float bits %#x", c.bits, v, math.Float64bits(v.Float()))
		}
		if af, ok := v.AsFloat(); !ok || math.Float64bits(af) != c.bits {
			t.Errorf("NewFloat(%#x).AsFloat() = %#x, %v", c.bits, math.Float64bits(af), ok)
		}
		if v.Key() != c.key || v.String() != c.str {
			t.Errorf("NewFloat(%#x): Key %q String %q, want %q %q", c.bits, v.Key(), v.String(), c.key, c.str)
		}
		for _, d := range layoutFloats {
			g := math.Float64frombits(d.bits)
			want := 0 // NaN is neither below nor above anything: Compare says 0
			if f < g {
				want = -1
			} else if f > g {
				want = 1
			}
			if got := v.Compare(NewFloat(g)); got != want {
				t.Errorf("Compare(%#x, %#x) = %d, want %d", c.bits, d.bits, got, want)
			}
		}
		if c.bits == 0 || c.bits == 0x8000000000000000 {
			if v.Compare(NewInt(0)) != 0 || NewInt(0).Compare(v) != 0 {
				t.Errorf("%#x does not compare equal to int 0", c.bits)
			}
		}
	}
}
