package exec

import (
	"fmt"
	"strings"
	"unicode/utf8"

	"htapxplain/internal/sqlparser"
	"htapxplain/internal/value"
)

// Evaluator computes an expression over one row. A literal reads its slot
// of p, the literal vector the execution runs under (nil or unbound: the
// literal the expression was compiled from).
type Evaluator func(row value.Row, p *Params) (value.Value, error)

// ColumnEval is the evaluator of column i of its row.
func ColumnEval(i int) Evaluator {
	return func(row value.Row, _ *Params) (value.Value, error) { return row[i], nil }
}

// Compile translates an AST expression into an Evaluator bound to the
// given schema. Aggregates are rejected here; the aggregation operators
// handle them.
func Compile(e sqlparser.Expr, s Schema) (Evaluator, error) {
	if lit, ok := LitOf(e); ok {
		if lit.Slot == 0 {
			return func(value.Row, *Params) (value.Value, error) { return lit.V, nil }, nil
		}
		return func(_ value.Row, p *Params) (value.Value, error) { return lit.bind(p), nil }, nil
	}
	switch x := e.(type) {
	case *sqlparser.ColumnRef:
		idx, err := s.Resolve(x)
		if err != nil {
			return nil, err
		}
		return ColumnEval(idx), nil
	case *sqlparser.BinaryExpr:
		return compileBinary(x, s)
	case *sqlparser.NotExpr:
		inner, err := Compile(x.Inner, s)
		if err != nil {
			return nil, err
		}
		return func(row value.Row, p *Params) (value.Value, error) {
			v, err := inner(row, p)
			if err != nil {
				return value.Null, err
			}
			if v.IsNull() {
				return value.Null, nil
			}
			return value.NewBool(!v.Bool()), nil
		}, nil
	case *sqlparser.InExpr:
		return compileIn(x, s)
	case *sqlparser.BetweenExpr:
		ev, err := Compile(x.Expr, s)
		if err != nil {
			return nil, err
		}
		lo, err := Compile(x.Lo, s)
		if err != nil {
			return nil, err
		}
		hi, err := Compile(x.Hi, s)
		if err != nil {
			return nil, err
		}
		return func(row value.Row, p *Params) (value.Value, error) {
			v, err := ev(row, p)
			if err != nil {
				return value.Null, err
			}
			l, err := lo(row, p)
			if err != nil {
				return value.Null, err
			}
			h, err := hi(row, p)
			if err != nil {
				return value.Null, err
			}
			if v.IsNull() || l.IsNull() || h.IsNull() {
				return value.Null, nil
			}
			return value.NewBool(v.Compare(l) >= 0 && v.Compare(h) <= 0), nil
		}, nil
	case *sqlparser.LikeExpr:
		ev, err := Compile(x.Expr, s)
		if err != nil {
			return nil, err
		}
		planned, slot := compileLike(x.Pattern), x.Slot
		return func(row value.Row, p *Params) (value.Value, error) {
			v, err := ev(row, p)
			if err != nil {
				return value.Null, err
			}
			if v.IsNull() {
				return value.Null, nil
			}
			// a bound vector compiled its pattern when it was bound
			return value.NewBool(p.pattern(slot, &planned).match(v.String())), nil
		}, nil
	case *sqlparser.FuncExpr:
		return compileFunc(x, s)
	case *sqlparser.AggExpr:
		return nil, fmt.Errorf("exec: aggregate %s outside aggregation context", x)
	default:
		return nil, fmt.Errorf("exec: unsupported expression %T", e)
	}
}

func compileBinary(x *sqlparser.BinaryExpr, s Schema) (Evaluator, error) {
	left, err := Compile(x.Left, s)
	if err != nil {
		return nil, err
	}
	right, err := Compile(x.Right, s)
	if err != nil {
		return nil, err
	}
	op := x.Op
	switch op {
	case sqlparser.OpAnd:
		return func(row value.Row, p *Params) (value.Value, error) {
			l, err := left(row, p)
			if err != nil {
				return value.Null, err
			}
			if !l.IsNull() && !l.Bool() {
				return value.NewBool(false), nil
			}
			r, err := right(row, p)
			if err != nil {
				return value.Null, err
			}
			if !r.IsNull() && !r.Bool() {
				return value.NewBool(false), nil
			}
			if l.IsNull() || r.IsNull() {
				return value.Null, nil
			}
			return value.NewBool(true), nil
		}, nil
	case sqlparser.OpOr:
		return func(row value.Row, p *Params) (value.Value, error) {
			l, err := left(row, p)
			if err != nil {
				return value.Null, err
			}
			if !l.IsNull() && l.Bool() {
				return value.NewBool(true), nil
			}
			r, err := right(row, p)
			if err != nil {
				return value.Null, err
			}
			if !r.IsNull() && r.Bool() {
				return value.NewBool(true), nil
			}
			if l.IsNull() || r.IsNull() {
				return value.Null, nil
			}
			return value.NewBool(false), nil
		}, nil
	case sqlparser.OpAdd, sqlparser.OpSub, sqlparser.OpMul, sqlparser.OpDiv:
		return func(row value.Row, p *Params) (value.Value, error) {
			l, err := left(row, p)
			if err != nil {
				return value.Null, err
			}
			r, err := right(row, p)
			if err != nil {
				return value.Null, err
			}
			if l.IsNull() || r.IsNull() {
				return value.Null, nil
			}
			lf, ok1 := l.AsFloat()
			rf, ok2 := r.AsFloat()
			if !ok1 || !ok2 {
				return value.Null, fmt.Errorf("exec: arithmetic on non-numeric values %s, %s", l.K, r.K)
			}
			var out float64
			switch op {
			case sqlparser.OpAdd:
				out = lf + rf
			case sqlparser.OpSub:
				out = lf - rf
			case sqlparser.OpMul:
				out = lf * rf
			case sqlparser.OpDiv:
				if rf == 0 {
					return value.Null, nil // SQL-ish: division by zero yields NULL here
				}
				out = lf / rf
			}
			if l.K == value.KindInt && r.K == value.KindInt && op != sqlparser.OpDiv {
				return value.NewInt(int64(out)), nil
			}
			return value.NewFloat(out), nil
		}, nil
	default: // comparisons
		return func(row value.Row, p *Params) (value.Value, error) {
			l, err := left(row, p)
			if err != nil {
				return value.Null, err
			}
			r, err := right(row, p)
			if err != nil {
				return value.Null, err
			}
			if l.IsNull() || r.IsNull() {
				return value.Null, nil
			}
			return value.NewBool(compareHolds(op, l.Compare(r))), nil
		}, nil
	}
}

// compareHolds reports whether comparison op holds for a value.Compare
// result c.
func compareHolds(op sqlparser.BinOp, c int) bool {
	switch op {
	case sqlparser.OpEq:
		return c == 0
	case sqlparser.OpNe:
		return c != 0
	case sqlparser.OpLt:
		return c < 0
	case sqlparser.OpLe:
		return c <= 0
	case sqlparser.OpGt:
		return c > 0
	case sqlparser.OpGe:
		return c >= 0
	}
	return false
}

func compileIn(x *sqlparser.InExpr, s Schema) (Evaluator, error) {
	ev, err := Compile(x.Expr, s)
	if err != nil {
		return nil, err
	}
	not := x.Not
	if x.Slot > 0 {
		// a literal-only list is one slot: its bound values, of any count
		lits, _ := LitsOf(x.List, x.Slot)
		return func(row value.Row, p *Params) (value.Value, error) {
			v, err := ev(row, p)
			if err != nil || v.IsNull() {
				return value.Null, err
			}
			for _, it := range lits.bind(p, nil) {
				if v.Equal(it) {
					return value.NewBool(!not), nil
				}
			}
			return value.NewBool(not), nil
		}, nil
	}
	items := make([]Evaluator, len(x.List))
	for i, it := range x.List {
		iev, err := Compile(it, s)
		if err != nil {
			return nil, err
		}
		items[i] = iev
	}
	return func(row value.Row, p *Params) (value.Value, error) {
		v, err := ev(row, p)
		if err != nil {
			return value.Null, err
		}
		if v.IsNull() {
			return value.Null, nil
		}
		for _, iev := range items {
			iv, err := iev(row, p)
			if err != nil {
				return value.Null, err
			}
			if v.Equal(iv) {
				return value.NewBool(!not), nil
			}
		}
		return value.NewBool(not), nil
	}, nil
}

func compileFunc(x *sqlparser.FuncExpr, s Schema) (Evaluator, error) {
	args := make([]Evaluator, len(x.Args))
	for i, a := range x.Args {
		ev, err := Compile(a, s)
		if err != nil {
			return nil, err
		}
		args[i] = ev
	}
	switch x.Name {
	case "SUBSTRING", "SUBSTR":
		if len(args) != 3 {
			return nil, fmt.Errorf("exec: %s requires 3 arguments, got %d", x.Name, len(args))
		}
		return func(row value.Row, p *Params) (value.Value, error) {
			var vs [3]value.Value // on the stack: a call allocates nothing
			for i, ev := range args {
				v, err := ev(row, p)
				if err != nil {
					return value.Null, err
				}
				vs[i] = v
			}
			if vs[0].IsNull() || vs[1].IsNull() || vs[2].IsNull() {
				return value.Null, nil
			}
			str := vs[0].String()
			start := int(vs[1].I) // SQL is 1-based
			length := int(vs[2].I)
			if start < 1 {
				start = 1
			}
			if start > len(str) {
				return value.NewString(""), nil
			}
			end := start - 1 + length
			if end > len(str) {
				end = len(str)
			}
			return value.NewString(str[start-1 : end]), nil
		}, nil
	case "UPPER":
		return unaryFunc(x.Name, args, func(v value.Value) value.Value { return value.NewString(strings.ToUpper(v.String())) })
	case "LOWER":
		return unaryFunc(x.Name, args, func(v value.Value) value.Value { return value.NewString(strings.ToLower(v.String())) })
	case "LENGTH":
		return unaryFunc(x.Name, args, func(v value.Value) value.Value { return value.NewInt(int64(len(v.String()))) })
	default:
		return nil, fmt.Errorf("exec: unsupported function %s", x.Name)
	}
}

// unaryFunc is a one-argument function: NULL for a NULL argument, f of it
// otherwise.
func unaryFunc(name string, args []Evaluator, f func(value.Value) value.Value) (Evaluator, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("exec: %s requires 1 argument", name)
	}
	arg := args[0]
	return func(row value.Row, p *Params) (value.Value, error) {
		v, err := arg(row, p)
		if err != nil || v.IsNull() {
			return value.Null, err
		}
		return f(v), nil
	}, nil
}

// likePattern is a LIKE pattern compiled once: a pattern whose only
// wildcards are a leading and/or trailing run of % is an equality, prefix,
// suffix or substring test on its literal middle; any other pattern runs
// likeMatch. The row evaluator and the scan's LIKE kernel both match
// through it.
type likePattern struct {
	kind likeKind
	lit  string // the literal middle (likeMatch: the whole pattern)
}

type likeKind uint8

const (
	likeGeneral likeKind = iota
	likeEqual
	likePrefix
	likeSuffix
	likeContains
)

func compileLike(pattern string) likePattern {
	trimmed := strings.TrimLeft(pattern, "%")
	mid := strings.TrimRight(trimmed, "%")
	lead, trail := len(trimmed) < len(pattern), len(mid) < len(trimmed)
	// a literal that is not valid UTF-8 could match from inside a
	// character, where likeMatch never starts one
	if strings.ContainsAny(mid, "%_") || !utf8.ValidString(mid) {
		return likePattern{kind: likeGeneral, lit: pattern}
	}
	switch {
	case lead && trail:
		return likePattern{kind: likeContains, lit: mid}
	case lead:
		return likePattern{kind: likeSuffix, lit: mid}
	case trail:
		return likePattern{kind: likePrefix, lit: mid}
	}
	return likePattern{kind: likeEqual, lit: mid}
}

func (p *likePattern) match(s string) bool {
	switch p.kind {
	case likeEqual:
		return s == p.lit
	case likePrefix:
		return strings.HasPrefix(s, p.lit)
	case likeSuffix:
		return strings.HasSuffix(s, p.lit)
	case likeContains:
		return strings.Contains(s, p.lit)
	}
	return likeMatch(s, p.lit)
}

// likeMatch implements SQL LIKE with % and _ wildcards (case-sensitive;
// the generated data is all lower case). _ matches one UTF-8 character;
// a byte that does not start a valid encoding counts as one. A % or _ in
// the pattern is always a wildcard, even where s holds the same byte.
func likeMatch(s, pattern string) bool {
	// iterative match with backtracking on %; positions in s stay on
	// character boundaries
	si, pi := 0, 0
	star, match := -1, 0
	for si < len(s) {
		if pi < len(pattern) && pattern[pi] == '%' {
			star = pi
			match = si
			pi++
		} else if pi < len(pattern) && pattern[pi] == '_' {
			si += charLen(s, si)
			pi++
		} else if pi < len(pattern) && pattern[pi] == s[si] {
			si++
			pi++
		} else if star >= 0 {
			pi = star + 1
			match += charLen(s, match)
			si = match
		} else {
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

// charLen is the byte length of the UTF-8 character starting at s[i].
func charLen(s string, i int) int {
	if s[i] < utf8.RuneSelf {
		return 1
	}
	_, n := utf8.DecodeRuneInString(s[i:])
	return n
}

// Truthy evaluates a predicate evaluator to a boolean (NULL → false).
func Truthy(ev Evaluator, row value.Row, p *Params) (bool, error) {
	v, err := ev(row, p)
	if err != nil {
		return false, err
	}
	return !v.IsNull() && v.Bool(), nil
}
