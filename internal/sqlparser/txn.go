package sqlparser

// Transaction blocks: `BEGIN; <DML>; ...; COMMIT|ROLLBACK`. The block
// grammar is deliberately strict — structural mistakes (nested BEGIN, a
// terminator without a block, statements after the terminator) are parse
// errors rather than runtime surprises, so a malformed script is rejected
// before the gateway opens a transaction for it. Only DML may appear
// inside a block: reads run at their own snapshot through the query path,
// so a SELECT inside a block is rejected with a pointer there.

// Script is a parsed multi-statement submission: either a single
// statement (Explicit false) or the DML body of a BEGIN ... COMMIT /
// ROLLBACK transaction block. Stmts never contains block keywords — the
// terminator is captured in Commit.
type Script struct {
	// Stmts is the statement body in source order. A single-statement
	// script holds exactly that statement; a block holds its DML (possibly
	// none — `BEGIN; COMMIT` is a legal empty transaction).
	Stmts []Statement
	// Explicit is true when the input was a BEGIN block.
	Explicit bool
	// Commit reports how the block ended: true for COMMIT (and for
	// single-statement scripts, which autocommit), false for ROLLBACK.
	Commit bool
}

// ParseScript parses a submission that may be a transaction block. Input
// not starting with BEGIN is parsed as a single statement (a stray COMMIT
// or ROLLBACK gets a dedicated error); input starting with BEGIN must be
// a well-formed block whose statements are ';'-separated DML.
func ParseScript(sql string) (*Script, error) {
	p, err := newParser(sql)
	if err != nil {
		return nil, err
	}
	if !p.atKeyword("BEGIN") {
		switch {
		case p.atKeyword("COMMIT"):
			return nil, p.errorf("COMMIT without BEGIN: no transaction block is open")
		case p.atKeyword("ROLLBACK"):
			return nil, p.errorf("ROLLBACK without BEGIN: no transaction block is open")
		}
		stmt, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		return &Script{Stmts: []Statement{stmt}, Commit: true}, nil
	}
	p.next() // BEGIN
	sc := &Script{Explicit: true}
	if err := p.expectSymbol(";"); err != nil {
		return nil, err
	}
	for {
		// stray semicolons between statements are harmless
		for p.acceptSymbol(";") {
		}
		switch {
		case p.peek().kind == tkEOF:
			return nil, p.errorf("transaction block is missing COMMIT or ROLLBACK")
		case p.atKeyword("BEGIN"):
			return nil, p.errorf("nested BEGIN: transaction blocks cannot be nested")
		case p.atKeyword("COMMIT"), p.atKeyword("ROLLBACK"):
			sc.Commit = p.atKeyword("COMMIT")
			word := p.next().text
			for p.acceptSymbol(";") {
			}
			if p.peek().kind != tkEOF {
				return nil, p.errorf("statement after %s: the transaction block already ended", word)
			}
			return sc, nil
		case p.atKeyword("SELECT"):
			return nil, p.errorf("SELECT inside a transaction block is not supported; reads run at their own snapshot through the query path")
		}
		var stmt Statement
		var err error
		switch {
		case p.atKeyword("INSERT"):
			stmt, err = p.parseInsert()
		case p.atKeyword("UPDATE"):
			stmt, err = p.parseUpdate()
		case p.atKeyword("DELETE"):
			stmt, err = p.parseDelete()
		default:
			return nil, p.errorf("expected INSERT, UPDATE, DELETE, COMMIT or ROLLBACK in transaction block, found %q", p.peek().text)
		}
		if err != nil {
			return nil, err
		}
		sc.Stmts = append(sc.Stmts, stmt)
		// statements are ';'-separated; the terminator may follow directly
		if !p.acceptSymbol(";") && !p.atKeyword("COMMIT") && !p.atKeyword("ROLLBACK") {
			if p.peek().kind == tkEOF {
				return nil, p.errorf("transaction block is missing COMMIT or ROLLBACK")
			}
			return nil, p.errorf("expected %q, COMMIT or ROLLBACK after statement, found %q", ";", p.peek().text)
		}
	}
}
