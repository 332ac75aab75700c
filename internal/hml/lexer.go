package hml

import (
	"slices"
	"strings"
	"unicode/utf8"
)

// Lexer converts HML source text into a token stream. Tokenization is
// context-sensitive: inside text-bearing tags (TITLE, H1–H3, TEXT, B, I, U)
// the lexer emits raw character data until the next tag; inside media tags it
// emits attribute/value pairs; elsewhere it emits tags and bare words.
// Token literals are substrings of the source, except a quoted value that
// holds a backslash escape.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
	// textMode is a stack of booleans tracking whether the innermost open
	// tag bears text.
	textMode []bool
	// pending queues an open tag's attribute tokens, returned from head on;
	// both reset when it drains, so its capacity serves every tag.
	pending []Token
	head    int
	err     error
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

func (l *Lexer) pos() Pos { return Pos{Line: l.line, Col: l.col} }

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) skipSpace() {
	for l.off < len(l.src) && isSpace(l.src[l.off]) {
		l.advance()
	}
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func isNameByte(c byte) bool {
	return c == '_' || 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || '0' <= c && c <= '9'
}

// isWordByte reports whether c may appear in an unquoted word: words are ASCII.
func isWordByte(c byte) bool {
	return isNameByte(c) || c == '-' || c == '.' || c == '/' || c == ':' || c == ','
}

func (l *Lexer) inText() bool {
	return len(l.textMode) > 0 && l.textMode[len(l.textMode)-1]
}

// Next returns the next token. After an error it keeps returning TokEOF; the
// error is available from Err.
func (l *Lexer) Next() Token {
	if l.head < len(l.pending) {
		t := l.pending[l.head]
		if l.head++; l.head == len(l.pending) {
			l.pending, l.head = l.pending[:0], 0
		}
		return t
	}
	if l.err != nil {
		return Token{Kind: TokEOF, Pos: l.pos()}
	}
	if l.inText() {
		return l.lexCharData()
	}
	l.skipSpace()
	if l.off >= len(l.src) {
		return Token{Kind: TokEOF, Pos: l.pos()}
	}
	if l.peek() == '<' {
		return l.lexTag()
	}
	t, val := l.lexAttrOrWord()
	if val.Kind != TokEOF {
		l.pending = append(l.pending, val)
	}
	return t
}

// Err reports the first lexical error encountered.
func (l *Lexer) Err() error { return l.err }

func (l *Lexer) fail(pos Pos, format string, args ...interface{}) Token {
	if l.err == nil {
		l.err = errAt(pos, format, args...)
	}
	return Token{Kind: TokEOF, Pos: pos}
}

// lexTag handles "<KW", "</KW>" and the closing ">" of an open tag.
func (l *Lexer) lexTag() Token {
	pos := l.pos()
	l.advance() // consume '<'
	closing := false
	if l.peek() == '/' {
		l.advance()
		closing = true
	}
	start := l.off
	for l.off < len(l.src) && isNameByte(l.src[l.off]) {
		l.advance()
	}
	name := strings.ToUpper(l.src[start:l.off])
	if name == "" {
		return l.fail(pos, "empty tag name")
	}
	kw := Keyword(name)
	if !tagKeywords[kw] {
		return l.fail(pos, "unknown tag %q", name)
	}
	if closing {
		l.skipSpace()
		if l.peek() != '>' {
			return l.fail(l.pos(), "expected '>' to close </%s", name)
		}
		l.advance()
		if len(l.textMode) > 0 {
			l.textMode = l.textMode[:len(l.textMode)-1]
		}
		return Token{Kind: TokClose, Lit: name, Pos: pos}
	}
	// Open tag: emit TokOpen, then scan inline attributes until '>'.
	open := Token{Kind: TokOpen, Lit: name, Pos: pos}
	for {
		l.skipSpace()
		if l.off >= len(l.src) {
			return l.fail(l.pos(), "unterminated <%s tag", name)
		}
		if l.peek() == '>' {
			l.advance()
			break
		}
		t, val := l.lexAttrOrWord()
		if t.Kind == TokEOF {
			return t // error already recorded
		}
		if cap(l.pending) < 24 { // room for 11 attributes, more than any lesson's tag has
			l.pending = slices.Grow(l.pending, 24)
		}
		l.pending = append(l.pending, t)
		if val.Kind != TokEOF {
			l.pending = append(l.pending, val)
		}
	}
	l.pending = append(l.pending, Token{Kind: TokGT, Pos: l.pos()})
	if !voidTags[kw] { // void tags have no body and no close tag
		l.textMode = append(l.textMode, textBearing[kw])
	}
	return open
}

// lexAttrOrWord scans either KW= value, returning the key and its value, or
// a bare word / quoted string, returning it and a TokEOF value.
func (l *Lexer) lexAttrOrWord() (t, val Token) {
	if l.peek() == '"' {
		return l.lexQuoted(TokValue), Token{}
	}
	word := l.lexWord(TokWord)
	if word.Kind == TokEOF {
		return word, Token{}
	}
	// An '=' immediately after (possibly with spaces) makes this an
	// attribute key; the paper's examples write both "SOURCE=x" and
	// "SOURCE= x".
	save := l.off
	saveLine, saveCol := l.line, l.col
	l.skipSpace()
	if l.peek() == '=' {
		l.advance()
		l.skipSpace()
		val := l.lexWord(TokValue)
		if val.Kind == TokEOF {
			return val, Token{}
		}
		// ToUpper returns an all-upper-case key itself.
		return Token{Kind: TokAttr, Lit: strings.ToUpper(word.Lit), Pos: word.Pos}, val
	}
	l.off, l.line, l.col = save, saveLine, saveCol
	return word, Token{}
}

// lexWord scans a quoted string or an unquoted word as a token of kind. A
// missing word fails on the character found instead, or as a missing value.
func (l *Lexer) lexWord(kind TokenKind) Token {
	pos := l.pos()
	if l.peek() == '"' {
		return l.lexQuoted(TokValue)
	}
	start := l.off
	for l.off < len(l.src) && isWordByte(l.src[l.off]) {
		l.advance()
	}
	if l.off > start {
		return Token{Kind: kind, Lit: l.src[start:l.off], Pos: pos}
	}
	if r, _ := utf8.DecodeRuneInString(l.src[l.off:]); r >= utf8.RuneSelf {
		return l.fail(pos, "unexpected character %q (quote non-ASCII values)", r)
	}
	if kind == TokValue {
		return l.fail(pos, "expected attribute value")
	}
	return l.fail(pos, "unexpected character %q", string(l.peek()))
}

// lexQuoted scans a quoted literal, in place unless it holds an escape.
func (l *Lexer) lexQuoted(kind TokenKind) Token {
	pos := l.pos()
	l.advance() // opening quote
	start, escaped := l.off, false
	for {
		if l.off >= len(l.src) {
			return l.fail(pos, "unterminated string literal")
		}
		c := l.advance()
		if c == '"' {
			break
		}
		if c == '\\' && l.off < len(l.src) {
			escaped = true
			l.advance()
		}
	}
	lit := l.src[start : l.off-1]
	if escaped { // every backslash in lit escapes the byte after it
		var b strings.Builder
		for i := 0; i < len(lit); i++ {
			if lit[i] == '\\' {
				i++
			}
			b.WriteByte(lit[i])
		}
		lit = b.String()
	}
	return Token{Kind: kind, Lit: lit, Pos: pos}
}

// lexCharData scans raw text until the next '<'.
func (l *Lexer) lexCharData() Token {
	pos := l.pos()
	start := l.off
	for l.off < len(l.src) && l.peek() != '<' {
		l.advance()
	}
	text := l.src[start:l.off]
	if text == "" {
		if l.off >= len(l.src) {
			return l.fail(pos, "unterminated text content")
		}
		return l.lexTag()
	}
	return Token{Kind: TokCharData, Lit: text, Pos: pos}
}
