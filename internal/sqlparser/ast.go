// Package sqlparser implements a lexer, AST, and recursive-descent parser
// for the SQL subset the paper's workloads use: single-block SELECT queries
// with inner joins (comma-style or JOIN ... ON), conjunctive/disjunctive
// predicates, IN lists, BETWEEN, LIKE, SUBSTRING and arithmetic, aggregate
// functions, GROUP BY, ORDER BY, LIMIT and OFFSET — plus the DML subset of
// the TP write path: multi-row INSERT ... VALUES, UPDATE ... SET ... WHERE
// and DELETE FROM ... WHERE (see ParseStatement).
package sqlparser

import (
	"fmt"
	"strings"
)

// Expr is any SQL expression node.
type Expr interface {
	fmt.Stringer
	exprNode()
}

// ColumnRef references a column, optionally qualified by table name.
type ColumnRef struct {
	Table  string // may be empty
	Column string
}

func (c *ColumnRef) exprNode() {}
func (c *ColumnRef) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Column
	}
	return c.Column
}

// A Slot is one literal position of a statement, in source order: what
// Fingerprint strips as one param, or — for a literal-only IN list — as the
// list's "#n" marker and its n params. A plan executed under a bound
// literal vector (exec.Params) reads each position's value from the vector
// instead of from the statement it was built from.
type Slot struct {
	Kind SlotKind
	// Neg marks a number the parser folded a unary minus into: its param
	// is the magnitude.
	Neg bool
}

// SlotKind is what a slot's param may be.
type SlotKind uint8

const (
	SlotValue   SlotKind = iota // an int, float or string literal
	SlotList                    // a literal-only IN list, of any length
	SlotCount                   // LIMIT or OFFSET: a non-negative integer
	SlotPattern                 // a LIKE pattern: a string
)

// IntLit is an integer literal. Slot, on every literal node, is the
// literal's position in its statement's Slots counted from 1; 0 marks a
// literal the statement does not spell (the 0 of a folded unary minus) or
// an item of a literal-only IN list, whose slot is the list's.
type IntLit struct {
	V    int64
	Slot int
}

func (l *IntLit) exprNode()      {}
func (l *IntLit) String() string { return fmt.Sprintf("%d", l.V) }

// FloatLit is a floating-point literal.
type FloatLit struct {
	V    float64
	Slot int
}

func (l *FloatLit) exprNode()      {}
func (l *FloatLit) String() string { return fmt.Sprintf("%g", l.V) }

// StringLit is a single-quoted string literal.
type StringLit struct {
	V    string
	Slot int
}

func (l *StringLit) exprNode() {}

// String renders the literal back to valid SQL: embedded quotes come out
// doubled, the same escape the lexer folds on the way in.
func (l *StringLit) String() string { return "'" + strings.ReplaceAll(l.V, "'", "''") + "'" }

// BinOp enumerates binary operators.
type BinOp int

const (
	OpEq BinOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpAdd
	OpSub
	OpMul
	OpDiv
)

func (op BinOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpAnd:
		return "AND"
	case OpOr:
		return "OR"
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	default:
		return "?"
	}
}

// IsComparison reports whether op is a comparison operator.
func (op BinOp) IsComparison() bool { return op >= OpEq && op <= OpGe }

// BinaryExpr is a binary operation.
type BinaryExpr struct {
	Op          BinOp
	Left, Right Expr
}

func (b *BinaryExpr) exprNode() {}
func (b *BinaryExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", b.Left, b.Op, b.Right)
}

// NotExpr negates a boolean expression.
type NotExpr struct{ Inner Expr }

func (n *NotExpr) exprNode()      {}
func (n *NotExpr) String() string { return "NOT " + n.Inner.String() }

// InExpr is `expr [NOT] IN (list...)`. A list of bare literals is one
// slot (SlotList) whatever its length; its items carry no slot of their
// own.
type InExpr struct {
	Expr Expr
	List []Expr
	Not  bool
	Slot int
}

func (e *InExpr) exprNode() {}
func (e *InExpr) String() string {
	items := make([]string, len(e.List))
	for i, it := range e.List {
		items[i] = it.String()
	}
	not := ""
	if e.Not {
		not = " NOT"
	}
	return fmt.Sprintf("%s%s IN (%s)", e.Expr, not, strings.Join(items, ", "))
}

// BetweenExpr is `expr BETWEEN lo AND hi`.
type BetweenExpr struct {
	Expr, Lo, Hi Expr
}

func (e *BetweenExpr) exprNode() {}
func (e *BetweenExpr) String() string {
	return fmt.Sprintf("%s BETWEEN %s AND %s", e.Expr, e.Lo, e.Hi)
}

// LikeExpr is `expr LIKE 'pattern'` (% and _ wildcards).
type LikeExpr struct {
	Expr    Expr
	Pattern string
	Slot    int
}

func (e *LikeExpr) exprNode()      {}
func (e *LikeExpr) String() string { return fmt.Sprintf("%s LIKE '%s'", e.Expr, e.Pattern) }

// FuncExpr is a scalar function call, e.g. SUBSTRING(c_phone, 1, 2).
type FuncExpr struct {
	Name string // upper-cased
	Args []Expr
}

func (e *FuncExpr) exprNode() {}
func (e *FuncExpr) String() string {
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", e.Name, strings.Join(args, ", "))
}

// AggFunc enumerates aggregate functions.
type AggFunc int

const (
	AggCount AggFunc = iota
	AggSum
	AggAvg
	AggMin
	AggMax
)

func (a AggFunc) String() string {
	switch a {
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	default:
		return "?"
	}
}

// AggExpr is an aggregate call in the select list. Arg == nil means
// COUNT(*).
type AggExpr struct {
	Func AggFunc
	Arg  Expr // nil for COUNT(*)
}

func (e *AggExpr) exprNode() {}
func (e *AggExpr) String() string {
	if e.Arg == nil {
		return e.Func.String() + "(*)"
	}
	return fmt.Sprintf("%s(%s)", e.Func, e.Arg)
}

// SelectItem is one projected item with an optional alias.
type SelectItem struct {
	Expr  Expr
	Alias string
	Star  bool // SELECT *
}

func (s SelectItem) String() string {
	if s.Star {
		return "*"
	}
	out := s.Expr.String()
	if s.Alias != "" {
		out += " AS " + s.Alias
	}
	return out
}

// TableRef names one table in the FROM list (optional alias).
type TableRef struct {
	Name  string
	Alias string
}

func (t TableRef) String() string {
	if t.Alias != "" {
		return t.Name + " " + t.Alias
	}
	return t.Name
}

// Binding returns the name the table is referred to by in expressions.
func (t TableRef) Binding() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// OrderItem is one ORDER BY term.
type OrderItem struct {
	Expr Expr
	Desc bool
}

func (o OrderItem) String() string {
	s := o.Expr.String()
	if o.Desc {
		s += " DESC"
	}
	return s
}

// Select is a parsed single-block SELECT statement.
type Select struct {
	Items   []SelectItem
	From    []TableRef
	Where   Expr // nil if absent; JOIN ... ON conditions are folded in
	GroupBy []Expr
	OrderBy []OrderItem
	Limit   int64 // -1 if absent
	Offset  int64 // 0 if absent

	// LimitSlot and OffsetSlot are the slots of LIMIT and OFFSET (0 when
	// absent); Slots lists every slot of the statement, in source order.
	LimitSlot, OffsetSlot int
	Slots                 []Slot
}

// HasAggregate reports whether any select item is an aggregate.
func (s *Select) HasAggregate() bool {
	for _, it := range s.Items {
		if _, ok := it.Expr.(*AggExpr); ok {
			return true
		}
	}
	return false
}

// String reconstructs SQL text (normalized) for logging and prompts.
func (s *Select) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(it.String())
	}
	b.WriteString(" FROM ")
	for i, t := range s.From {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.String())
	}
	if s.Where != nil {
		b.WriteString(" WHERE ")
		b.WriteString(s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g.String())
		}
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.String())
		}
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", s.Limit)
		if s.Offset > 0 {
			fmt.Fprintf(&b, " OFFSET %d", s.Offset)
		}
	}
	return b.String()
}

// Conjuncts splits an expression on top-level ANDs.
func Conjuncts(e Expr) []Expr { return AppendConjuncts(nil, e) }

// AppendConjuncts appends the conjuncts of e to dst.
func AppendConjuncts(dst []Expr, e Expr) []Expr {
	if e == nil {
		return dst
	}
	if b, ok := e.(*BinaryExpr); ok && b.Op == OpAnd {
		return AppendConjuncts(AppendConjuncts(dst, b.Left), b.Right)
	}
	return append(dst, e)
}

// AndAll joins expressions with AND (nil for empty input).
func AndAll(exprs []Expr) Expr {
	var out Expr
	for _, e := range exprs {
		if out == nil {
			out = e
		} else {
			out = &BinaryExpr{Op: OpAnd, Left: out, Right: e}
		}
	}
	return out
}

// ColumnsIn collects every column reference in an expression tree.
func ColumnsIn(e Expr) []*ColumnRef {
	var out []*ColumnRef
	var walk func(Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case nil:
		case *ColumnRef:
			out = append(out, x)
		case *BinaryExpr:
			walk(x.Left)
			walk(x.Right)
		case *NotExpr:
			walk(x.Inner)
		case *InExpr:
			walk(x.Expr)
			for _, it := range x.List {
				walk(it)
			}
		case *BetweenExpr:
			walk(x.Expr)
			walk(x.Lo)
			walk(x.Hi)
		case *LikeExpr:
			walk(x.Expr)
		case *FuncExpr:
			for _, a := range x.Args {
				walk(a)
			}
		case *AggExpr:
			if x.Arg != nil {
				walk(x.Arg)
			}
		}
	}
	walk(e)
	return out
}

// A Tie is two slots a plan needs equal literals in. The planner matched
// two expressions by their text — a select item to its GROUP BY term, an
// ORDER BY aggregate to its select item — and the text spells literals, so
// the match holds for a literal vector only if it holds the two slots'
// literals equal. No vector holds a tie naming slot 0.
type Tie [2]int

// AppendTies appends to ties what keeps a and b, two expressions the planner
// found spelled the same, spelled the same under any literal vector: a tie
// for each pair of slots in the same place. If a and b differ in anything
// but their literals, their spelling is equal only by way of the literals,
// and it appends {0, 0}.
func AppendTies(ties []Tie, a, b Expr) []Tie {
	if !tieSlots(&ties, a, b) {
		ties = append(ties, Tie{})
	}
	return ties
}

// tieSlots appends the ties of a and b, reporting false when they differ
// in anything but their literals.
func tieSlots(ties *[]Tie, a, b Expr) bool {
	tie := func(s, t int) bool {
		switch {
		case s == t:
			// the same slot, or two literals the statement does not spell:
			// no vector moves them
		case s == 0 || t == 0:
			return false
		default:
			*ties = append(*ties, Tie{s, t})
		}
		return true
	}
	all := func(as, bs []Expr) bool {
		if len(as) != len(bs) {
			return false
		}
		for i := range as {
			if !tieSlots(ties, as[i], bs[i]) {
				return false
			}
		}
		return true
	}
	switch x := a.(type) {
	case *ColumnRef:
		y, ok := b.(*ColumnRef)
		return ok && strings.EqualFold(x.Table, y.Table) && strings.EqualFold(x.Column, y.Column)
	case *IntLit, *FloatLit, *StringLit:
		s, _ := litSlot(a)
		t, ok := litSlot(b)
		return ok && tie(s, t)
	case *BinaryExpr:
		y, ok := b.(*BinaryExpr)
		return ok && x.Op == y.Op && tieSlots(ties, x.Left, y.Left) && tieSlots(ties, x.Right, y.Right)
	case *NotExpr:
		y, ok := b.(*NotExpr)
		return ok && tieSlots(ties, x.Inner, y.Inner)
	case *InExpr:
		y, ok := b.(*InExpr)
		if !ok || x.Not != y.Not || !tieSlots(ties, x.Expr, y.Expr) {
			return false
		}
		if x.Slot > 0 || y.Slot > 0 {
			// a literal-only list is one slot, its length included
			return tie(x.Slot, y.Slot)
		}
		return all(x.List, y.List)
	case *BetweenExpr:
		y, ok := b.(*BetweenExpr)
		return ok && all([]Expr{x.Expr, x.Lo, x.Hi}, []Expr{y.Expr, y.Lo, y.Hi})
	case *LikeExpr:
		y, ok := b.(*LikeExpr)
		return ok && tie(x.Slot, y.Slot) && tieSlots(ties, x.Expr, y.Expr)
	case *FuncExpr:
		y, ok := b.(*FuncExpr)
		return ok && strings.EqualFold(x.Name, y.Name) && all(x.Args, y.Args)
	case *AggExpr:
		y, ok := b.(*AggExpr)
		if !ok || x.Func != y.Func || (x.Arg == nil) != (y.Arg == nil) {
			return false
		}
		return x.Arg == nil || tieSlots(ties, x.Arg, y.Arg)
	}
	return false
}

// litSlot is a literal's slot; false for any other expression.
func litSlot(e Expr) (int, bool) {
	switch l := e.(type) {
	case *IntLit:
		return l.Slot, true
	case *FloatLit:
		return l.Slot, true
	case *StringLit:
		return l.Slot, true
	}
	return 0, false
}
