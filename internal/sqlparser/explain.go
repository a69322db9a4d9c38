package sqlparser

// StripExplain detects and removes a leading `EXPLAIN [ANALYZE]` prefix.
// It returns the remaining statement text and which prefix was present.
// The prefix is matched by the keyword rule ahead of any statement kind;
// whether the wrapped statement is explainable is the caller's concern.
func StripExplain(sql string) (rest string, explain, analyze bool) {
	sc := scanner{src: sql}
	if kind, start, end := sc.next(); kind != tkIdent || !isWord(sql[start:end], "EXPLAIN") {
		return sql, false, false
	}
	kind, start, end := sc.next()
	if kind == tkIdent && isWord(sql[start:end], "ANALYZE") {
		_, start, _ = sc.next()
		return sql[start:], true, true
	}
	return sql[start:], true, false
}
