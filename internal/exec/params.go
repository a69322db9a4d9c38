package exec

import (
	"slices"
	"strconv"

	"htapxplain/internal/sqlparser"
	"htapxplain/internal/value"
)

// Params is a literal vector bound to a plan: the literals of one
// statement of the plan's template (the same fingerprint), slot by slot
// (sqlparser.Slot). An execution with a vector bound reads every literal
// the plan holds from it instead — evaluators on each call, kernels and
// access paths once at Open — so one plan serves every statement of its
// template. With none bound, a plan runs its own literals.
type Params struct {
	vals []value.Value
	// ends[i] is where slot i+1's values end in vals; nil when every slot
	// holds one value.
	ends []int32
	// short holds a vector of up to two values — a point read's — so
	// binding one allocates nothing.
	short [2]value.Value
	// pats[i] is slot i+1's LIKE matcher, compiled when the vector is
	// bound; nil when the statement has no pattern. patShort backs it for
	// a statement of up to len(patShort) slots.
	pats     []likePattern
	patShort [8]likePattern
}

// pair fills p from a statement's Fingerprint params, paired with slots,
// the slots of the statement a plan was built from. It reports false when
// they do not pair — another literal count, or a param the slot's kind
// does not take — and the statement must then be planned for itself.
func (p *Params) pair(slots []sqlparser.Slot, params []string) bool {
	*p = Params{}
	p.vals = p.short[:0]
	if len(params) > len(p.short) {
		p.vals = make([]value.Value, 0, len(params))
	}
	for s, slot := range slots {
		if len(params) == 0 {
			return false
		}
		if slot.Kind == sqlparser.SlotList {
			marker := params[0]
			if len(marker) < 2 || marker[0] != '#' {
				return false
			}
			n, err := strconv.Atoi(marker[1:])
			if err != nil || n < 1 || n >= len(params) {
				return false
			}
			for _, it := range params[1 : 1+n] {
				v, ok := sqlparser.ParamValue(it, false)
				if !ok {
					return false
				}
				p.vals = append(p.vals, v)
			}
			params = params[1+n:]
			if p.ends == nil {
				p.ends = make([]int32, s, len(slots))
				for i := range p.ends {
					p.ends[i] = int32(i + 1)
				}
			}
		} else {
			v, ok := sqlparser.ParamValue(params[0], slot.Neg)
			switch slot.Kind {
			case sqlparser.SlotCount:
				ok = ok && v.K == value.KindInt && v.I >= 0
			case sqlparser.SlotPattern:
				ok = ok && v.K == value.KindString
				if ok {
					p.compilePattern(slots, s, v.S)
				}
			}
			if !ok {
				return false
			}
			p.vals = append(p.vals, v)
			params = params[1:]
		}
		if p.ends != nil {
			p.ends = append(p.ends, int32(len(p.vals)))
		}
	}
	return len(params) == 0
}

// compilePattern keeps the LIKE matcher of pattern, the value of slots[s].
func (p *Params) compilePattern(slots []sqlparser.Slot, s int, pattern string) {
	if p.pats == nil {
		p.pats = p.patShort[:0]
		if len(slots) > len(p.patShort) {
			p.pats = make([]likePattern, 0, len(slots))
		}
		p.pats = p.pats[:len(slots)]
	}
	p.pats[s] = compileLike(pattern)
}

func (p *Params) bound() bool { return p != nil && p.vals != nil }

// Value is slot's value in the bound vector: planned when no vector is
// bound or slot is 0, a literal the statement does not spell.
func (p *Params) Value(slot int, planned value.Value) value.Value {
	switch {
	case slot == 0 || !p.bound():
		return planned
	case p.ends == nil:
		return p.vals[slot-1]
	}
	return p.vals[p.ends[slot-1]-1]
}

// pattern is the matcher of LIKE pattern slot under the bound vector:
// planned when no vector is bound or slot is 0.
func (p *Params) pattern(slot int, planned *likePattern) *likePattern {
	if slot == 0 || !p.bound() {
		return planned
	}
	return &p.pats[slot-1]
}

// span is the values of a bound slot: one, or a list slot's.
func (p *Params) span(slot int) []value.Value {
	if p.ends == nil {
		return p.vals[slot-1 : slot]
	}
	var start int32
	if slot > 1 {
		start = p.ends[slot-2]
	}
	return p.vals[start:p.ends[slot-1]]
}

// Holds reports whether the bound vector holds every tie of a plan (see
// sqlparser.Tie): the two slots' values equal in kind and value, a list
// slot's item by item. An unbound execution runs the plan's own literals,
// which hold its ties.
func (p *Params) Holds(ties []sqlparser.Tie) bool {
	if !p.bound() {
		return true
	}
	for _, t := range ties {
		if t[0] == 0 || t[1] == 0 || !slices.EqualFunc(p.span(t[0]), p.span(t[1]), identical) {
			return false
		}
	}
	return true
}

// identical reports whether two literal values are the same literal: a
// stricter test than Equal, under which the int 1 and the float 1.0 — or
// 0.0 and -0.0 — differ.
func identical(a, b value.Value) bool {
	return a.K == b.K && a.I == b.I && a.S == b.S
}

// Lit is one literal a kernel or an access path is specialised on: its
// value in the statement the plan was built from, and the slot a bound
// vector holds it in (0: none).
type Lit struct {
	V    value.Value
	Slot int
}

// LitOf is the literal e; false for any other expression.
func LitOf(e sqlparser.Expr) (Lit, bool) {
	switch l := e.(type) {
	case *sqlparser.IntLit:
		return Lit{value.NewInt(l.V), l.Slot}, true
	case *sqlparser.FloatLit:
		return Lit{value.NewFloat(l.V), l.Slot}, true
	case *sqlparser.StringLit:
		return Lit{value.NewString(l.V), l.Slot}, true
	}
	return Lit{}, false
}

func (l Lit) bind(p *Params) value.Value { return p.Value(l.Slot, l.V) }

// Lits is a list of literals: an IN list, or an index scan's point keys.
// List, when set, is the slot of a literal-only IN list: a bound vector's
// list, of whatever length, stands for all of Values.
type Lits struct {
	Values []value.Value
	Slots  []int // Values[i]'s slot; nil when none has one
	List   int
}

// LitsOf is the list of the literals exprs sharing list slot list (0 for
// literals slotted one by one); false if one is not a literal.
func LitsOf(exprs []sqlparser.Expr, list int) (Lits, bool) {
	l := Lits{Values: make([]value.Value, len(exprs)), List: list}
	for i, e := range exprs {
		lit, ok := LitOf(e)
		if !ok {
			return Lits{}, false
		}
		l.Values[i] = lit.V
		if lit.Slot > 0 {
			if l.Slots == nil {
				l.Slots = make([]int, len(exprs))
			}
			l.Slots[i] = lit.Slot
		}
	}
	return l, true
}

// At is the literal Values[i], with its slot.
func (l *Lits) At(i int) Lit {
	lit := Lit{V: l.Values[i]}
	if l.Slots != nil {
		lit.Slot = l.Slots[i]
	}
	return lit
}

func (l *Lits) slotted() bool { return l.List > 0 || l.Slots != nil }

// bind returns the list under p. A list slotted item by item is assembled
// in *buf, which keeps the storage (a fresh slice when buf is nil).
func (l *Lits) bind(p *Params, buf *[]value.Value) []value.Value {
	switch {
	case !p.bound() || !l.slotted():
		return l.Values
	case l.List > 0:
		return p.span(l.List)
	}
	var out []value.Value
	if buf != nil {
		out = (*buf)[:0]
	}
	for i, v := range l.Values {
		out = append(out, p.Value(l.Slots[i], v))
	}
	if buf != nil {
		*buf = out
	}
	return out
}

// CountSlots names where a bound vector holds an operator's row counts. N
// is the sum of its slots' values — a scatter fragment keeps LIMIT+OFFSET
// rows, an index-order scan stops after as many — and Offset is its slot's
// value. With no vector bound, or no slot, the planned counts stand.
type CountSlots struct {
	N      [2]int
	Offset int
}

// bind returns the counts n and off under p.
func (c CountSlots) bind(p *Params, n, off int64) (int64, int64) {
	if !p.bound() {
		return n, off
	}
	if c.N != [2]int{} {
		n = 0
		for _, s := range c.N {
			n += p.Value(s, value.NewInt(0)).I
		}
	}
	return n, p.Value(c.Offset, value.NewInt(off)).I
}
