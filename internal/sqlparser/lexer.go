package sqlparser

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokenKind enumerates lexical token classes.
type tokenKind int

const (
	tkEOF tokenKind = iota
	tkIdent
	tkKeyword
	tkInt
	tkFloat
	tkString
	tkSymbol     // punctuation and operators
	tkOther      // a rune no token starts with; only lex rejects it
	tkOpenString // a string literal missing its closing quote
)

type token struct {
	kind tokenKind
	text string // keywords upper-cased; idents lower-cased; symbols literal
	pos  int    // byte offset in input
}

// keywords maps each keyword to itself: the spelling a keyword token
// carries, whatever case it was written in.
var keywords = map[string]string{}

func init() {
	for _, kw := range strings.Fields(`SELECT FROM WHERE GROUP BY ORDER LIMIT OFFSET AND OR NOT IN
		BETWEEN LIKE AS ASC DESC JOIN INNER ON COUNT SUM AVG MIN MAX DISTINCT
		INSERT INTO VALUES UPDATE SET DELETE BEGIN COMMIT ROLLBACK`) {
		keywords[kw] = kw
	}
}

// scanner reads SQL one token at a time as a kind and a byte span,
// without allocating. It is the only code that reads SQL bytes: lex,
// Fingerprint, StatementKind and StripExplain all read its tokens.
type scanner struct {
	src string
	pos int
}

// next skips whitespace (' ', '\t', '\n', '\r') and returns the kind and
// the span src[start:end] of the token that follows; at the end of the
// input it returns tkEOF with start == end == len(src). Words are UTF-8
// runes read through isIdentStart/isIdentPart and come back as tkIdent,
// keyword or not; a quoted string keeps its quotes and doubled quotes.
func (s *scanner) next() (kind tokenKind, start, end int) {
	src, i := s.src, s.pos
	for i < len(src) && (src[i] == ' ' || src[i] == '\t' || src[i] == '\n' || src[i] == '\r') {
		i++
	}
	start, end = i, i+1
	switch {
	case i == len(src):
		kind, end = tkEOF, i
	case src[i] == '\'':
		kind, end = tkOpenString, len(src)
		for j := i + 1; j < len(src); j++ {
			if src[j] == '\'' {
				if j+1 < len(src) && src[j+1] == '\'' {
					j++
					continue
				}
				kind, end = tkString, j+1
				break
			}
		}
	case isDigit(src[i]):
		kind, end = tkInt, digits(src, i)
		if end+1 < len(src) && src[end] == '.' && isDigit(src[end+1]) {
			kind, end = tkFloat, digits(src, end+1)
		}
	case src[i] >= utf8.RuneSelf || isIdentStart(rune(src[i])):
		r, size := utf8.DecodeRuneInString(src[i:])
		kind, end = tkOther, i+size
		if isIdentStart(r) {
			kind = tkIdent
			for end < len(src) {
				if c := src[end]; c < utf8.RuneSelf { // ASCII, without decoding
					if c != '_' && !isDigit(c) && (c|0x20 < 'a' || c|0x20 > 'z') {
						break
					}
					end++
					continue
				}
				r, size := utf8.DecodeRuneInString(src[end:])
				if !isIdentPart(r) {
					break
				}
				end += size
			}
		}
	case i+1 < len(src) && (src[i:i+2] == "<=" || src[i:i+2] == ">=" || src[i:i+2] == "<>" || src[i:i+2] == "!="):
		kind, end = tkSymbol, i+2
	case strings.IndexByte(",()=<>+-*/.;", src[i]) >= 0:
		kind = tkSymbol
	default:
		kind = tkOther
	}
	s.pos = end
	return kind, start, end
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// digits returns the index of the first non-digit at or after i.
func digits(s string, i int) int {
	for i < len(s) && isDigit(s[i]) {
		i++
	}
	return i
}

// keyword returns the keyword a word spells, or "" if it spells none. A
// keyword matches ASCII case-insensitively, as PostgreSQL's keyword lookup
// folds, so a word holding any other rune (ı, ſ) is an identifier to every
// reader.
func keyword(word string) string {
	var up [8]byte // the longest keywords, DISTINCT and ROLLBACK
	if len(word) > len(up) {
		return ""
	}
	for i := 0; i < len(word); i++ {
		up[i] = upper(word[i])
	}
	return keywords[string(up[:len(word)])]
}

// isWord reports whether word spells kw, an upper-case word, under the
// keyword rule.
func isWord(word, kw string) bool {
	if len(word) != len(kw) {
		return false
	}
	for i := 0; i < len(word); i++ {
		if upper(word[i]) != kw[i] {
			return false
		}
	}
	return true
}

func upper(c byte) byte {
	if c >= 'a' && c <= 'z' {
		c -= 'a' - 'A'
	}
	return c
}

// unquote is a string literal's value: its quotes dropped and its doubled
// quotes folded.
func unquote(lit string) string {
	s := lit[1 : len(lit)-1]
	if strings.Contains(s, "''") {
		s = strings.ReplaceAll(s, "''", "'")
	}
	return s
}

func errUnterminated(pos int) error {
	return fmt.Errorf("sql: unterminated string literal at offset %d", pos)
}

// lex tokenizes the input. It returns a descriptive error with byte offset
// on any unrecognized character or unterminated string.
func lex(input string) ([]token, error) {
	// workload SQL runs 4.4 to 6.3 bytes a token; the cap keeps a long
	// literal from reserving room for tokens it does not hold
	toks := make([]token, 0, min(len(input)/4, 64)+1)
	sc := scanner{src: input}
	for {
		kind, start, end := sc.next()
		text := input[start:end]
		switch kind {
		case tkOpenString:
			return nil, errUnterminated(start)
		case tkOther:
			r, _ := utf8.DecodeRuneInString(text)
			return nil, fmt.Errorf("sql: unexpected character %q at offset %d", r, start)
		case tkString:
			// a copy: a row stored from the literal must not keep the
			// whole statement's text alive
			text = strings.Clone(unquote(text))
		case tkIdent:
			if kw := keyword(text); kw != "" {
				kind, text = tkKeyword, kw
			} else {
				text = strings.ToLower(text)
			}
		}
		toks = append(toks, token{kind: kind, text: text, pos: start})
		if kind == tkEOF {
			return toks, nil
		}
	}
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
