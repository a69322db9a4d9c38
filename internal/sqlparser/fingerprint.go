package sqlparser

import (
	"strconv"
	"strings"

	"htapxplain/internal/value"
)

// Fingerprint normalizes a query down to its parameterized template: every
// literal is replaced by '?', IN-lists collapse to a single placeholder,
// whitespace is canonicalized and words are lower-cased. Queries that
// differ only in literal values share a fingerprint, which is what a plan
// cache keys on (pg_stat_statements-style query normalization).
//
// This is the admission fast path of the serving gateway: it runs on every
// query before any cache lookup, so it is a single pass over the scanner's
// tokens with one output buffer, building no token list — several times
// cheaper than even one parse, let alone planning.
//
// The second return value is the stripped literals in source order (string
// literals still quoted; a collapsed list as its "#n" marker and its n
// items): one param per slot of the parsed statement (Select.Slots), which
// is what lets a plan built for one statement of the template execute any
// other with its literals bound (ParamValue converts each).
func Fingerprint(sql string) (fp string, params []string, err error) {
	var b strings.Builder
	b.Grow(len(sql))
	sc := scanner{src: sql}
	in := false  // the previous token was the word IN: a literal list may follow
	sep := false // the previous token was a word or a literal
	for {
		kind, start, end := sc.next()
		text := sql[start:end]
		switch kind {
		case tkEOF:
			return b.String(), params, nil
		case tkOpenString:
			return "", nil, errUnterminated(start)
		case tkIdent, tkInt, tkFloat, tkString:
			if sep {
				b.WriteByte(' ')
			}
			if kind == tkIdent {
				lower(&b, text)
			} else {
				params = append(params, text)
				b.WriteByte('?')
			}
			sep, in = true, kind == tkIdent && isWord(text, "IN")
			continue
		}
		// IN ('20','40','22') and IN ('30') share a template: a
		// literal-only list collapses to one placeholder.
		var ok bool
		if in && text == "(" {
			params, ok = literalList(&sc, params)
		}
		if ok {
			b.WriteString("(?)")
		} else {
			// Punctuation separates words on its own; literal glue like
			// "a,b" and "a , b" must normalize identically.
			b.WriteString(text)
		}
		sep, in = ok, false
	}
}

// literalList reads a comma-separated, non-empty list of literals and its
// ')' after the '(' sc has just read. On success it appends an arity
// marker ("#<n>", a spelling no SQL literal can take) followed by each
// literal to params and moves sc past ')'; otherwise it leaves sc as it
// was and returns params unchanged. The marker delimits the list's slot
// (exec.Context.Bind) across adjacent collapsed lists: without it, IN
// (1,2) … IN (3) and IN (1) … IN (2,3) would share both fingerprint and
// parameter vector, and a plan would bind one query's lists from the
// other's.
func literalList(sc *scanner, params []string) ([]string, bool) {
	look, out := *sc, append(params, "")
	for {
		kind, start, end := look.next()
		if kind != tkInt && kind != tkFloat && kind != tkString {
			return params, false
		}
		out = append(out, sc.src[start:end])
		kind, start, end = look.next()
		switch {
		case kind == tkSymbol && sc.src[start:end] == ")":
			out[len(params)] = "#" + strconv.Itoa(len(out)-len(params)-1)
			*sc = look
			return out, true
		case kind != tkSymbol || sc.src[start:end] != ",":
			return params, false
		}
	}
}

// lower writes s lower-cased (ASCII) without allocating.
func lower(b *strings.Builder, s string) {
	for k := 0; k < len(s); k++ {
		c := s[k]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		b.WriteByte(c)
	}
}

// ParamKey joins stripped literals into a single comparable cache key.
func ParamKey(params []string) string {
	return strings.Join(params, "\x00")
}

// ParamValue is the value of the literal Parse builds for the Fingerprint
// param p: an int, a float, or a string with its doubled quotes folded; neg
// negates a number as Parse folds a unary minus into it (Slot.Neg). It
// reports false for a param Parse builds no such literal from: a list
// marker, an integer out of range, or a negated string.
func ParamValue(p string, neg bool) (value.Value, bool) {
	switch {
	case p == "":
		return value.Value{}, false
	case p[0] == '\'':
		if neg || len(p) < 2 {
			return value.Value{}, false
		}
		return value.NewString(unquote(p)), true
	case strings.IndexByte(p, '.') >= 0:
		f, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return value.Value{}, false
		}
		if neg {
			f = -f
		}
		return value.NewFloat(f), true
	}
	i, err := strconv.ParseInt(p, 10, 64)
	if err != nil {
		return value.Value{}, false
	}
	if neg {
		i = -i
	}
	return value.NewInt(i), true
}
