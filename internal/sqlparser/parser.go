package sqlparser

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse parses a single SELECT statement. A trailing semicolon is allowed.
func Parse(sql string) (*Select, error) {
	p, err := newParser(sql)
	if err != nil {
		return nil, err
	}
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if err := p.end(); err != nil {
		return nil, err
	}
	return sel, nil
}

// newParser lexes sql into a parser at its first token.
func newParser(sql string) (*parser, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	return &parser{toks: toks}, nil
}

// end accepts an optional trailing semicolon and then the end of input.
func (p *parser) end() error {
	p.acceptSymbol(";")
	if p.peek().kind != tkEOF {
		return p.errorf("unexpected trailing input %q", p.peek().text)
	}
	return nil
}

type parser struct {
	toks  []token
	pos   int
	slots []Slot
}

// slot numbers the next literal position of the statement.
func (p *parser) slot(kind SlotKind) int {
	p.slots = append(p.slots, Slot{Kind: kind})
	return len(p.slots)
}

// negate records a unary minus folded into the literal at slot s.
func (p *parser) negate(s int) {
	if s > 0 {
		p.slots[s-1].Neg = !p.slots[s-1].Neg
	}
}

// unslot clears a literal node's slot.
func unslot(e Expr) {
	switch l := e.(type) {
	case *IntLit:
		l.Slot = 0
	case *FloatLit:
		l.Slot = 0
	case *StringLit:
		l.Slot = 0
	}
}

func (p *parser) peek() token { return p.toks[p.pos] }

// next consumes the current token; it never advances past EOF, so error
// paths can always peek safely.
func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tkEOF {
		p.pos++
	}
	return t
}

func (p *parser) backup() { p.pos-- }
func (p *parser) atKeyword(kw string) bool {
	t := p.peek()
	return t.kind == tkKeyword && t.text == kw
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.atKeyword(kw) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected %s, found %q", kw, p.peek().text)
	}
	return nil
}

func (p *parser) acceptSymbol(sym string) bool {
	t := p.peek()
	if t.kind == tkSymbol && t.text == sym {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectSymbol(sym string) error {
	if !p.acceptSymbol(sym) {
		return p.errorf("expected %q, found %q", sym, p.peek().text)
	}
	return nil
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("sql: %s (near offset %d)", fmt.Sprintf(format, args...), p.peek().pos)
}

func (p *parser) parseSelect() (*Select, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	sel := &Select{Limit: -1}

	// select list
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if !p.acceptSymbol(",") {
			break
		}
	}

	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	var onConds []Expr
	for {
		tr, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		sel.From = append(sel.From, tr)
		if p.acceptSymbol(",") {
			continue
		}
		// [INNER] JOIN t ON cond — folded into the WHERE conjunction,
		// since both HTAP optimizers re-derive join order anyway.
		if p.acceptKeyword("INNER") {
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
		} else if !p.acceptKeyword("JOIN") {
			break
		}
		tr2, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		sel.From = append(sel.From, tr2)
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		onConds = append(onConds, cond)
		// allow chained JOINs or a following comma
		if p.acceptSymbol(",") {
			continue
		}
		for p.atKeyword("JOIN") || p.atKeyword("INNER") {
			if p.acceptKeyword("INNER") {
				if err := p.expectKeyword("JOIN"); err != nil {
					return nil, err
				}
			} else {
				p.next() // JOIN
			}
			trn, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			sel.From = append(sel.From, trn)
			if err := p.expectKeyword("ON"); err != nil {
				return nil, err
			}
			c, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			onConds = append(onConds, c)
		}
		break
	}

	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = w
	}
	if len(onConds) > 0 {
		all := append(onConds, Conjuncts(sel.Where)...)
		sel.Where = AndAll(all)
	}

	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}

	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}

	if p.acceptKeyword("LIMIT") {
		t := p.next()
		if t.kind != tkInt {
			return nil, p.errorf("LIMIT requires an integer, found %q", t.text)
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil || n < 0 {
			return nil, p.errorf("invalid LIMIT %q", t.text)
		}
		sel.Limit, sel.LimitSlot = n, p.slot(SlotCount)
		if p.acceptKeyword("OFFSET") {
			t := p.next()
			if t.kind != tkInt {
				return nil, p.errorf("OFFSET requires an integer, found %q", t.text)
			}
			off, err := strconv.ParseInt(t.text, 10, 64)
			if err != nil || off < 0 {
				return nil, p.errorf("invalid OFFSET %q", t.text)
			}
			sel.Offset, sel.OffsetSlot = off, p.slot(SlotCount)
		}
	}
	sel.Slots = p.slots
	return sel, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.acceptSymbol("*") {
		return SelectItem{Star: true}, nil
	}
	e, err := p.parseAdditive()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		t := p.next()
		if t.kind != tkIdent {
			return SelectItem{}, p.errorf("expected alias after AS, found %q", t.text)
		}
		item.Alias = t.text
	} else if p.peek().kind == tkIdent {
		item.Alias = p.next().text
	}
	return item, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	t := p.next()
	if t.kind != tkIdent {
		return TableRef{}, p.errorf("expected table name, found %q", t.text)
	}
	tr := TableRef{Name: t.text}
	if p.acceptKeyword("AS") {
		a := p.next()
		if a.kind != tkIdent {
			return TableRef{}, p.errorf("expected alias after AS, found %q", a.text)
		}
		tr.Alias = a.text
	} else if p.peek().kind == tkIdent {
		tr.Alias = p.next().text
	}
	return tr, nil
}

// Expression grammar (precedence low → high):
//   expr     := orExpr
//   orExpr   := andExpr (OR andExpr)*
//   andExpr  := notExpr (AND notExpr)*
//   notExpr  := [NOT] predicate
//   predicate:= additive [cmp additive | [NOT] IN (...) | BETWEEN a AND b | LIKE 's']
//   additive := multiplicative (('+'|'-') multiplicative)*
//   multiplicative := primary (('*'|'/') primary)*
//   primary  := literal | funcCall | aggCall | columnRef | '(' expr ')'

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: OpOr, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("AND") {
		p.next()
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: OpAnd, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		inner, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &NotExpr{Inner: inner}, nil
	}
	return p.parsePredicate()
}

func (p *parser) parsePredicate() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// comparison
	t := p.peek()
	if t.kind == tkSymbol {
		var op BinOp
		ok := true
		switch t.text {
		case "=":
			op = OpEq
		case "<>", "!=":
			op = OpNe
		case "<":
			op = OpLt
		case "<=":
			op = OpLe
		case ">":
			op = OpGt
		case ">=":
			op = OpGe
		default:
			ok = false
		}
		if ok {
			p.next()
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: op, Left: left, Right: right}, nil
		}
	}
	notIn := false
	if p.atKeyword("NOT") {
		// lookahead for NOT IN
		p.next()
		if p.atKeyword("IN") {
			notIn = true
		} else {
			p.backup()
			return left, nil
		}
	}
	if p.acceptKeyword("IN") {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var list []Expr
		first, bare := len(p.slots), true
		for {
			start := p.pos
			e, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			// a bare literal is one token; Fingerprint collapses a list of
			// nothing else into one param group
			if k := p.toks[start].kind; p.pos != start+1 || (k != tkInt && k != tkFloat && k != tkString) {
				bare = false
			}
			list = append(list, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		in := &InExpr{Expr: left, List: list, Not: notIn}
		if bare {
			// the items' slots become the list's one slot
			p.slots = p.slots[:first]
			in.Slot = p.slot(SlotList)
			for _, e := range list {
				unslot(e)
			}
		}
		return in, nil
	}
	if p.acceptKeyword("BETWEEN") {
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{Expr: left, Lo: lo, Hi: hi}, nil
	}
	if p.acceptKeyword("LIKE") {
		t := p.next()
		if t.kind != tkString {
			return nil, p.errorf("LIKE requires a string pattern, found %q", t.text)
		}
		return &LikeExpr{Expr: left, Pattern: t.text, Slot: p.slot(SlotPattern)}, nil
	}
	return left, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tkSymbol && (t.text == "+" || t.text == "-") {
			p.next()
			right, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			op := OpAdd
			if t.text == "-" {
				op = OpSub
			}
			left = &BinaryExpr{Op: op, Left: left, Right: right}
			continue
		}
		return left, nil
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tkSymbol && (t.text == "*" || t.text == "/") {
			p.next()
			right, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			op := OpMul
			if t.text == "/" {
				op = OpDiv
			}
			left = &BinaryExpr{Op: op, Left: left, Right: right}
			continue
		}
		return left, nil
	}
}

var aggNames = map[string]AggFunc{
	"COUNT": AggCount, "SUM": AggSum, "AVG": AggAvg, "MIN": AggMin, "MAX": AggMax,
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.next()
	switch t.kind {
	case tkInt:
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errorf("invalid integer %q", t.text)
		}
		return &IntLit{V: v, Slot: p.slot(SlotValue)}, nil
	case tkFloat:
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errorf("invalid float %q", t.text)
		}
		return &FloatLit{V: v, Slot: p.slot(SlotValue)}, nil
	case tkString:
		return &StringLit{V: t.text, Slot: p.slot(SlotValue)}, nil
	case tkKeyword:
		if agg, ok := aggNames[t.text]; ok {
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			if p.acceptSymbol("*") {
				if agg != AggCount {
					return nil, p.errorf("%s(*) is not valid", t.text)
				}
				if err := p.expectSymbol(")"); err != nil {
					return nil, err
				}
				return &AggExpr{Func: AggCount}, nil
			}
			if p.acceptKeyword("DISTINCT") {
				// no operator de-duplicates an aggregate's input, and
				// folding every row would be a wrong answer
				return nil, p.errorf("%s(DISTINCT ...) is not supported", t.text)
			}
			arg, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return &AggExpr{Func: agg, Arg: arg}, nil
		}
		return nil, p.errorf("unexpected keyword %q", t.text)
	case tkSymbol:
		if t.text == "(" {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		if t.text == "-" { // unary minus on numeric literal
			inner, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			switch lit := inner.(type) {
			case *IntLit:
				p.negate(lit.Slot)
				return &IntLit{V: -lit.V, Slot: lit.Slot}, nil
			case *FloatLit:
				p.negate(lit.Slot)
				return &FloatLit{V: -lit.V, Slot: lit.Slot}, nil
			default:
				return &BinaryExpr{Op: OpSub, Left: &IntLit{V: 0}, Right: inner}, nil
			}
		}
		return nil, p.errorf("unexpected symbol %q", t.text)
	case tkIdent:
		// function call?
		if p.acceptSymbol("(") {
			name := strings.ToUpper(t.text)
			var args []Expr
			if !p.acceptSymbol(")") {
				for {
					a, err := p.parseAdditive()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if !p.acceptSymbol(",") {
						break
					}
				}
				if err := p.expectSymbol(")"); err != nil {
					return nil, err
				}
			}
			return &FuncExpr{Name: name, Args: args}, nil
		}
		// qualified column?
		if p.acceptSymbol(".") {
			c := p.next()
			if c.kind != tkIdent {
				return nil, p.errorf("expected column after %q., found %q", t.text, c.text)
			}
			return &ColumnRef{Table: t.text, Column: c.text}, nil
		}
		return &ColumnRef{Column: t.text}, nil
	default:
		return nil, p.errorf("unexpected end of input")
	}
}
