// Package sql provides the lexer, AST, and recursive-descent parser for
// the SQL subset the reproduction needs: SELECT-FROM-WHERE-GROUP BY-ORDER
// BY with joins expressed as comma lists or INNER JOIN ... ON, scalar
// expressions (arithmetic, comparisons, BETWEEN, IN, LIKE, CASE, YEAR),
// aggregates, and — per Section 4 of the paper — the OPTION (USEPLAN n)
// extension that selects a specific plan by its number.
package sql

import (
	"fmt"
	"strings"
)

// TokenKind discriminates lexer tokens.
type TokenKind uint8

// Token kinds. Keywords are folded into TokKeyword with the upper-cased
// text in Token.Text.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokKeyword
	TokNumber
	TokString
	TokSymbol // punctuation and operators, Text holds the lexeme
)

// Token is one lexical element with its position for error messages.
type Token struct {
	Kind TokenKind
	Text string
	Pos  int // byte offset in the input
}

// keywords maps each upper-cased keyword to itself, so a lookup hands
// back the interned constant instead of a fresh string.
var keywords = map[string]string{}

// maxKeywordLen bounds the stack buffer words are upper-cased into for
// the keyword lookup; longer words are identifiers.
const maxKeywordLen = 8

func init() {
	for _, kw := range []string{
		"SELECT", "FROM", "WHERE", "GROUP", "BY", "ORDER", "HAVING", "AS",
		"AND", "OR", "NOT", "BETWEEN", "IN", "LIKE", "CASE", "WHEN", "THEN",
		"ELSE", "END", "ASC", "DESC", "DATE", "OPTION", "USEPLAN", "INNER",
		"JOIN", "ON", "NULL", "TRUE", "FALSE", "DISTINCT",
	} {
		if len(kw) > maxKeywordLen {
			panic("sql: keyword longer than maxKeywordLen: " + kw)
		}
		keywords[kw] = kw
	}
}

// Lexer splits SQL text into tokens. Every token's Text is a substring
// of the input or an interned constant, except a string literal with an
// escaped quote, so lexing allocates nothing per token.
type Lexer struct {
	src string
	pos int
}

// Next returns the next token. Errors (unterminated strings, stray bytes)
// are returned rather than panicking so the engine can report bad queries.
func (l *Lexer) Next() (Token, error) {
	l.skipSpace()
	start := l.pos
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Pos: start}, nil
	}
	c := l.src[l.pos]
	switch {
	case isIdentStart(c):
		return l.lexWord(start), nil
	case c >= '0' && c <= '9':
		return l.lexNumber(start), nil
	case c == '\'':
		return l.lexString(start)
	}
	// Two-character operators first.
	if l.pos+1 < len(l.src) {
		switch two := l.src[l.pos : l.pos+2]; two {
		case "<=", ">=", "<>":
			l.pos += 2
			return Token{Kind: TokSymbol, Text: two, Pos: start}, nil
		case "!=":
			l.pos += 2
			return Token{Kind: TokSymbol, Text: "<>", Pos: start}, nil
		}
	}
	switch c {
	case '(', ')', ',', '*', '+', '-', '/', '=', '<', '>', '.', ';', '%':
		l.pos++
		return Token{Kind: TokSymbol, Text: l.src[start:l.pos], Pos: start}, nil
	}
	return Token{}, fmt.Errorf("sql: unexpected character %q at offset %d", c, start)
}

func (l *Lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		// -- line comments
		if c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		return
	}
}

func (l *Lexer) lexWord(start int) Token {
	for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
		l.pos++
	}
	word := l.src[start:l.pos]
	if len(word) <= maxKeywordLen {
		var upper [maxKeywordLen]byte
		for i := 0; i < len(word); i++ {
			c := word[i]
			if c >= 'a' && c <= 'z' {
				c -= 'a' - 'A'
			}
			upper[i] = c
		}
		if kw, ok := keywords[string(upper[:len(word)])]; ok {
			return Token{Kind: TokKeyword, Text: kw, Pos: start}
		}
	}
	return Token{Kind: TokIdent, Text: word, Pos: start}
}

func (l *Lexer) lexNumber(start int) Token {
	seenDot := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c >= '0' && c <= '9' {
			l.pos++
			continue
		}
		if c == '.' && !seenDot {
			seenDot = true
			l.pos++
			continue
		}
		break
	}
	return Token{Kind: TokNumber, Text: l.src[start:l.pos], Pos: start}
}

// lexString reads a quoted literal. Its text is a substring of the
// input unless it contains a doubled quote, which unescapes into a
// fresh string.
func (l *Lexer) lexString(start int) (Token, error) {
	l.pos++ // opening quote
	for i := l.pos; i < len(l.src); i++ {
		if l.src[i] != '\'' {
			continue
		}
		if i+1 < len(l.src) && l.src[i+1] == '\'' {
			return l.lexEscapedString(start)
		}
		text := l.src[l.pos:i]
		l.pos = i + 1
		return Token{Kind: TokString, Text: text, Pos: start}, nil
	}
	return Token{}, fmt.Errorf("sql: unterminated string literal at offset %d", start)
}

// lexEscapedString is lexString for a literal holding a doubled quote,
// which unescapes to one quote.
func (l *Lexer) lexEscapedString(start int) (Token, error) {
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				sb.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			return Token{Kind: TokString, Text: sb.String(), Pos: start}, nil
		}
		sb.WriteByte(c)
		l.pos++
	}
	return Token{}, fmt.Errorf("sql: unterminated string literal at offset %d", start)
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}
