// Package hml implements the paper's hypermedia markup language: an
// HTML-like language extended with timing primitives (STARTIME, DURATION),
// synchronized audio+video groups (AU_VI) and timed hyperlinks (HLINK ... AT),
// exactly as specified by the BNF grammar of Figure 1.
//
// The package provides a lexer, a recursive-descent parser producing an AST,
// a semantic validator, and a canonical serializer such that
// Parse(Serialize(doc)) round-trips. It is only the markup: the times and
// regions a document's media resolve to are computed by package scenario.
package hml

import "fmt"

// Keyword names every tag and attribute keyword of the language (Table 1 of
// the paper, plus the attribute keywords that appear in the grammar).
type Keyword string

// Tag keywords.
const (
	KwTitle  Keyword = "TITLE"
	KwH1     Keyword = "H1"
	KwH2     Keyword = "H2"
	KwH3     Keyword = "H3"
	KwPar    Keyword = "PAR"
	KwSep    Keyword = "SEP"
	KwText   Keyword = "TEXT"
	KwImg    Keyword = "IMG"
	KwAu     Keyword = "AU"
	KwVi     Keyword = "VI"
	KwAuVi   Keyword = "AU_VI"
	KwHLink  Keyword = "HLINK"
	KwBold   Keyword = "B"
	KwItalic Keyword = "I"
	KwUnder  Keyword = "U"
)

// Attribute keywords.
const (
	KwSource   Keyword = "SOURCE"
	KwID       Keyword = "ID"
	KwStartime Keyword = "STARTIME"
	KwDuration Keyword = "DURATION"
	KwHeight   Keyword = "HEIGHT"
	KwWidth    Keyword = "WIDTH"
	KwWhere    Keyword = "WHERE"
	KwNote     Keyword = "NOTE"
	KwAt       Keyword = "AT"
	KwHost     Keyword = "HOST"
	KwAfter    Keyword = "AFTER"
	KwHref     Keyword = "HREF"
	KwKind     Keyword = "KIND"
)

// tagKeywords is the set of keywords that open a tag (<KW ...> ... </KW> or
// a void tag such as <PAR>).
var tagKeywords = map[Keyword]bool{
	KwTitle: true, KwH1: true, KwH2: true, KwH3: true,
	KwPar: true, KwSep: true, KwText: true,
	KwImg: true, KwAu: true, KwVi: true, KwAuVi: true,
	KwHLink: true, KwBold: true, KwItalic: true, KwUnder: true,
}

// voidTags never take a closing tag.
var voidTags = map[Keyword]bool{KwPar: true, KwSep: true}

// textBearing tags enclose raw character data (with optional inline style
// tags) rather than attribute lists.
var textBearing = map[Keyword]bool{
	KwTitle: true, KwH1: true, KwH2: true, KwH3: true,
	KwText: true, KwBold: true, KwItalic: true, KwUnder: true,
}

// TokenKind classifies lexer output.
type TokenKind int

// Token kinds produced by the lexer.
const (
	TokEOF      TokenKind = iota
	TokOpen               // <KW   (Lit = keyword)
	TokClose              // </KW> (Lit = keyword)
	TokGT                 // > terminating an open tag
	TokAttr               // KW=   (Lit = keyword)
	TokValue              // attribute value, quoted or bare (Lit = unquoted text)
	TokWord               // bare word inside a tag body (used by HLINK targets)
	TokCharData           // raw text inside a text-bearing tag
)

func (k TokenKind) String() string {
	switch k {
	case TokEOF:
		return "EOF"
	case TokOpen:
		return "open-tag"
	case TokClose:
		return "close-tag"
	case TokGT:
		return "'>'"
	case TokAttr:
		return "attribute"
	case TokValue:
		return "value"
	case TokWord:
		return "word"
	case TokCharData:
		return "text"
	default:
		return "unknown"
	}
}

// Token is one lexical unit with its source position.
type Token struct {
	Kind TokenKind
	Lit  string
	Pos  Pos
}

func (t Token) String() string {
	if t.Lit == "" {
		return t.Kind.String()
	}
	return fmt.Sprintf("%s(%q)", t.Kind, t.Lit)
}

// Pos is a line/column source position (both 1-based).
type Pos struct {
	Line, Col int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// SyntaxError reports a lexical or syntactic error with its position.
type SyntaxError struct {
	Pos Pos
	Msg string
}

func (e *SyntaxError) Error() string { return fmt.Sprintf("hml: %s: %s", e.Pos, e.Msg) }

func errAt(pos Pos, format string, args ...interface{}) error {
	return &SyntaxError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}
