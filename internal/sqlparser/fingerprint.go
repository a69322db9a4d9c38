package sqlparser

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"

	"htapxplain/internal/value"
)

// Fingerprint normalizes a query down to its parameterized template: every
// literal is replaced by '?', IN-lists collapse to a single placeholder,
// whitespace is canonicalized and words are lower-cased. Queries that
// differ only in literal values share a fingerprint, which is what a plan
// cache keys on (pg_stat_statements-style query normalization).
//
// This is the admission fast path of the serving gateway: it runs on every
// query before any cache lookup, so it is a single pass over the input
// bytes with one output buffer and no token materialization — several
// times cheaper than even one parse, let alone planning.
//
// The second return value is the stripped literals in source order (string
// literals still quoted; a collapsed list as its "#n" marker and its n
// items): one param per slot of the parsed statement (Select.Slots), which
// is what lets a plan built for one statement of the template execute any
// other with its literals bound (ParamValue converts each).
func Fingerprint(sql string) (fp string, params []string, err error) {
	var b strings.Builder
	b.Grow(len(sql))
	i, n := 0, len(sql)
	lastWasIn := false // previous word was IN: a literal list may follow
	needSep := false   // emit a separator before the next word/number
	sep := func() {
		if needSep {
			b.WriteByte(' ')
		}
		needSep = true
	}
	for i < n {
		c := sql[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '\'':
			j, err := scanString(sql, i)
			if err != nil {
				return "", nil, err
			}
			params = append(params, sql[i:j])
			sep()
			b.WriteByte('?')
			lastWasIn = false
			i = j
		case c >= '0' && c <= '9':
			j := scanNumber(sql, i)
			params = append(params, sql[i:j])
			sep()
			b.WriteByte('?')
			lastWasIn = false
			i = j
		case c >= utf8.RuneSelf || isIdentStart(rune(c)):
			// decode runes as the lexer does: read byte-wise, a digit
			// inside a non-ASCII identifier would pass for a literal
			r, size := utf8.DecodeRuneInString(sql[i:])
			if !isIdentStart(r) {
				b.WriteString(sql[i : i+size])
				needSep = false
				lastWasIn = false
				i += size
				continue
			}
			j := i + size
			for j < n {
				r, size := utf8.DecodeRuneInString(sql[j:])
				if !isIdentPart(r) {
					break
				}
				j += size
			}
			sep()
			lower(&b, sql[i:j])
			lastWasIn = j-i == 2 && (sql[i] == 'i' || sql[i] == 'I') && (sql[i+1] == 'n' || sql[i+1] == 'N')
			i = j
		case c == '(' && lastWasIn:
			// IN ('20','40','22') and IN ('30') share a template:
			// collapse a literal-only list to one placeholder.
			if end, ok := scanLiteralList(sql, i, &params); ok {
				b.WriteString("(?)")
				needSep = true
				i = end
			} else {
				b.WriteByte('(')
				needSep = false
				i++
			}
			lastWasIn = false
		default:
			// Punctuation separates words on its own; literal glue like
			// "a,b" and "a , b" must normalize identically.
			b.WriteByte(c)
			needSep = false
			lastWasIn = false
			i++
		}
	}
	return b.String(), params, nil
}

// scanString returns the index just past a quoted string starting at
// sql[i] == '\” (” escapes a quote), or an error if unterminated.
func scanString(sql string, i int) (int, error) {
	j := i + 1
	n := len(sql)
	for j < n {
		if sql[j] == '\'' {
			if j+1 < n && sql[j+1] == '\'' {
				j += 2
				continue
			}
			return j + 1, nil
		}
		j++
	}
	return 0, fmt.Errorf("sql: unterminated string literal at offset %d", i)
}

// scanNumber returns the index just past an integer or decimal literal.
func scanNumber(sql string, i int) int {
	n := len(sql)
	j := i
	for j < n && sql[j] >= '0' && sql[j] <= '9' {
		j++
	}
	if j < n && sql[j] == '.' && j+1 < n && sql[j+1] >= '0' && sql[j+1] <= '9' {
		j++
		for j < n && sql[j] >= '0' && sql[j] <= '9' {
			j++
		}
	}
	return j
}

// scanLiteralList tries to consume a parenthesized, comma-separated,
// non-empty list of literals starting at sql[i] == '('. On success it
// appends an arity marker ("#<n>", a spelling no SQL literal can take)
// followed by each literal to params, and returns the index just past
// ')'. The marker delimits the list's slot (exec.Context.Bind) across
// adjacent collapsed lists: without it, IN (1,2) … IN (3) and IN (1) …
// IN (2,3) would share both fingerprint and parameter vector, and a plan
// would bind one query's lists from the other's.
func scanLiteralList(sql string, i int, params *[]string) (int, bool) {
	j := i + 1
	n := len(sql)
	var found []string
	wantItem := true
	for j < n {
		c := sql[j]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			j++
		case c == ')':
			if wantItem || len(found) == 0 {
				return 0, false
			}
			*params = append(*params, "#"+strconv.Itoa(len(found)))
			*params = append(*params, found...)
			return j + 1, true
		case c == ',':
			if wantItem {
				return 0, false
			}
			wantItem = true
			j++
		case wantItem && c == '\'':
			end, err := scanString(sql, j)
			if err != nil {
				return 0, false
			}
			found = append(found, sql[j:end])
			wantItem = false
			j = end
		case wantItem && c >= '0' && c <= '9':
			end := scanNumber(sql, j)
			found = append(found, sql[j:end])
			wantItem = false
			j = end
		default:
			return 0, false
		}
	}
	return 0, false
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
		s := p[1 : len(p)-1]
		if strings.Contains(s, "''") {
			s = strings.ReplaceAll(s, "''", "'")
		}
		return value.NewString(s), true
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
