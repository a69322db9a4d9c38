// Package value defines the runtime datum representation shared by the row
// and column storage engines and the executors: a small tagged union plus
// row/comparison helpers.
package value

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates runtime value kinds.
type Kind int

const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "STRING"
	case KindBool:
		return "BOOL"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Value is one datum, 32 bytes: a kind, one 8-byte payload and a string.
// The zero Value is NULL.
type Value struct {
	K Kind
	I int64  // KindInt, KindBool (0 or 1), KindFloat (IEEE bits; read with Float)
	S string // KindString
}

// Null is the SQL NULL value.
var Null = Value{K: KindNull}

// NewInt returns an integer value.
func NewInt(v int64) Value { return Value{K: KindInt, I: v} }

// NewFloat returns a float value.
func NewFloat(v float64) Value { return Value{K: KindFloat, I: int64(math.Float64bits(v))} }

// NewString returns a string value.
func NewString(v string) Value { return Value{K: KindString, S: v} }

// NewBool returns a boolean value.
func NewBool(v bool) Value {
	if v {
		return Value{K: KindBool, I: 1}
	}
	return Value{K: KindBool, I: 0}
}

// Float returns the float a KindFloat value holds (meaningless for others).
func (v Value) Float() float64 { return math.Float64frombits(uint64(v.I)) }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// Bool returns the truth value of a KindBool value (false for others).
func (v Value) Bool() bool { return v.K == KindBool && v.I != 0 }

// AsFloat coerces numeric values to float64 for arithmetic.
func (v Value) AsFloat() (float64, bool) {
	switch v.K {
	case KindInt:
		return float64(v.I), true
	case KindFloat:
		return v.Float(), true
	default:
		return 0, false
	}
}

// String renders the value the way EXPLAIN/test output wants it.
func (v Value) String() string {
	switch v.K {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case KindString:
		return v.S
	case KindBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	default:
		return "?"
	}
}

// Compare orders two values: -1 if v<o, 0 if equal, +1 if v>o. NULL sorts
// first. Mixed numeric kinds compare numerically; otherwise kinds compare
// by kind order (a stable total order sufficient for sorting).
func (v Value) Compare(o Value) int {
	if v.K == KindNull || o.K == KindNull {
		switch {
		case v.K == KindNull && o.K == KindNull:
			return 0
		case v.K == KindNull:
			return -1
		default:
			return 1
		}
	}
	if vf, ok := v.AsFloat(); ok {
		if of, ok2 := o.AsFloat(); ok2 {
			switch {
			case vf < of:
				return -1
			case vf > of:
				return 1
			default:
				return 0
			}
		}
	}
	if v.K != o.K {
		if v.K < o.K {
			return -1
		}
		return 1
	}
	switch v.K {
	case KindString:
		return strings.Compare(v.S, o.S)
	case KindBool:
		switch {
		case v.I < o.I:
			return -1
		case v.I > o.I:
			return 1
		default:
			return 0
		}
	default:
		return 0
	}
}

// Equal reports SQL equality (NULL != NULL).
func (v Value) Equal(o Value) bool {
	if v.K == KindNull || o.K == KindNull {
		return false
	}
	return v.Compare(o) == 0
}

// Key renders kind and payload as a string: two values render alike exactly
// when they have the same kind and payload (every NaN renders alike). The
// executor's hash tables key on the values themselves (exec/hashkey.go);
// this rendering fixes the emit order of parallel aggregates and
// fingerprints rows in differentials.
func (v Value) Key() string {
	switch v.K {
	case KindNull:
		return "\x00n"
	case KindInt:
		return "\x00i" + strconv.FormatInt(v.I, 10)
	case KindFloat:
		return "\x00f" + strconv.FormatFloat(v.Float(), 'b', -1, 64)
	case KindString:
		return "\x00s" + v.S
	case KindBool:
		return "\x00b" + strconv.FormatInt(v.I, 10)
	default:
		return "\x00?"
	}
}

// Row is a tuple of values.
type Row []Value

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Key concatenates the keys of selected columns. The concatenation is not
// injective for strings that contain its separators ("\x1f\x00"), so it is
// an ordering and fingerprinting aid, not an identity.
func (r Row) Key(cols []int) string {
	var b strings.Builder
	for _, c := range cols {
		b.WriteString(r[c].Key())
		b.WriteByte('\x1f')
	}
	return b.String()
}

// String renders the row as a comma-separated list.
func (r Row) String() string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return strings.Join(parts, ", ")
}
