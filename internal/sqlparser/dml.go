package sqlparser

import (
	"fmt"
	"strings"
)

// Statement is any parsed SQL statement: *Select, *Insert, *Update or
// *Delete.
type Statement interface {
	fmt.Stringer
	stmtNode()
}

func (s *Select) stmtNode() {}
func (s *Insert) stmtNode() {}
func (s *Update) stmtNode() {}
func (s *Delete) stmtNode() {}

// Insert is `INSERT INTO table [(col, ...)] VALUES (expr, ...), ...`.
// Value expressions must be constant (literals, possibly signed or
// arithmetic over literals); the executor rejects column references.
type Insert struct {
	Table string
	// Columns is the explicit column list, lower-cased; nil means the full
	// table schema in declaration order.
	Columns []string
	// Rows holds one expression list per VALUES tuple.
	Rows [][]Expr
}

func (s *Insert) String() string {
	var b strings.Builder
	b.WriteString("INSERT INTO ")
	b.WriteString(s.Table)
	if len(s.Columns) > 0 {
		b.WriteString(" (")
		b.WriteString(strings.Join(s.Columns, ", "))
		b.WriteString(")")
	}
	b.WriteString(" VALUES ")
	for i, row := range s.Rows {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteByte('(')
		for j, e := range row {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(e.String())
		}
		b.WriteByte(')')
	}
	return b.String()
}

// SetClause is one `column = expr` assignment of an UPDATE.
type SetClause struct {
	Column string
	Expr   Expr
}

// Update is `UPDATE table SET col = expr [, ...] [WHERE cond]`.
type Update struct {
	Table string
	Set   []SetClause
	Where Expr // nil updates every row
}

func (s *Update) String() string {
	var b strings.Builder
	b.WriteString("UPDATE ")
	b.WriteString(s.Table)
	b.WriteString(" SET ")
	for i, sc := range s.Set {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(sc.Column)
		b.WriteString(" = ")
		b.WriteString(sc.Expr.String())
	}
	if s.Where != nil {
		b.WriteString(" WHERE ")
		b.WriteString(s.Where.String())
	}
	return b.String()
}

// Delete is `DELETE FROM table [WHERE cond]`.
type Delete struct {
	Table string
	Where Expr // nil deletes every row
}

func (s *Delete) String() string {
	out := "DELETE FROM " + s.Table
	if s.Where != nil {
		out += " WHERE " + s.Where.String()
	}
	return out
}

// StatementKind classifies a SQL string by its first token alone — the
// gateway's admission fast path uses it to route DML around the read-only
// plan cache. It returns "select", "insert", "update", "delete", "begin",
// "commit", "rollback", or "" when the input starts with none of them.
func StatementKind(sql string) string {
	sc := scanner{src: sql}
	if kind, start, end := sc.next(); kind == tkIdent {
		return statementKinds[keyword(sql[start:end])]
	}
	return ""
}

var statementKinds = map[string]string{"SELECT": "select", "INSERT": "insert", "UPDATE": "update",
	"DELETE": "delete", "BEGIN": "begin", "COMMIT": "commit", "ROLLBACK": "rollback"}

// ParseStatement parses a single SQL statement of any supported kind. A
// trailing semicolon is allowed.
func ParseStatement(sql string) (Statement, error) {
	p, err := newParser(sql)
	if err != nil {
		return nil, err
	}
	return p.parseStatement()
}

// parseStatement parses the tokens as one statement of any kind.
func (p *parser) parseStatement() (Statement, error) {
	var stmt Statement
	var err error
	switch {
	case p.atKeyword("SELECT"):
		stmt, err = p.parseSelect()
	case p.atKeyword("INSERT"):
		stmt, err = p.parseInsert()
	case p.atKeyword("UPDATE"):
		stmt, err = p.parseUpdate()
	case p.atKeyword("DELETE"):
		stmt, err = p.parseDelete()
	default:
		return nil, p.errorf("expected SELECT, INSERT, UPDATE or DELETE, found %q", p.peek().text)
	}
	if err != nil {
		return nil, err
	}
	if err := p.end(); err != nil {
		return nil, err
	}
	return stmt, nil
}

func (p *parser) parseInsert() (*Insert, error) {
	if err := p.expectKeyword("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	t := p.next()
	if t.kind != tkIdent {
		return nil, p.errorf("expected table name after INSERT INTO, found %q", t.text)
	}
	ins := &Insert{Table: t.text}
	if p.acceptSymbol("(") {
		for {
			c := p.next()
			if c.kind != tkIdent {
				return nil, p.errorf("expected column name in INSERT column list, found %q", c.text)
			}
			ins.Columns = append(ins.Columns, c.text)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		if len(ins.Columns) > 0 && len(row) != len(ins.Columns) {
			return nil, p.errorf("INSERT tuple has %d values but %d columns were listed",
				len(row), len(ins.Columns))
		}
		if len(ins.Rows) > 0 && len(row) != len(ins.Rows[0]) {
			return nil, p.errorf("INSERT tuples differ in arity: %d values vs %d",
				len(row), len(ins.Rows[0]))
		}
		ins.Rows = append(ins.Rows, row)
		if !p.acceptSymbol(",") {
			break
		}
	}
	return ins, nil
}

func (p *parser) parseUpdate() (*Update, error) {
	if err := p.expectKeyword("UPDATE"); err != nil {
		return nil, err
	}
	t := p.next()
	if t.kind != tkIdent {
		return nil, p.errorf("expected table name after UPDATE, found %q", t.text)
	}
	upd := &Update{Table: t.text}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	for {
		c := p.next()
		if c.kind != tkIdent {
			return nil, p.errorf("expected column name in SET clause, found %q", c.text)
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		e, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		upd.Set = append(upd.Set, SetClause{Column: c.text, Expr: e})
		if !p.acceptSymbol(",") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		upd.Where = w
	}
	return upd, nil
}

func (p *parser) parseDelete() (*Delete, error) {
	if err := p.expectKeyword("DELETE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	t := p.next()
	if t.kind != tkIdent {
		return nil, p.errorf("expected table name after DELETE FROM, found %q", t.text)
	}
	del := &Delete{Table: t.text}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		del.Where = w
	}
	return del, nil
}
