package hml

import (
	"strings"
	"testing"
	"unsafe"
)

// tokens lexes the whole input, returning all tokens up to EOF.
func tokens(src string) ([]Token, error) {
	l := NewLexer(src)
	var out []Token
	for {
		t := l.Next()
		if t.Kind == TokEOF {
			break
		}
		out = append(out, t)
	}
	return out, l.Err()
}

func kinds(ts []Token) []TokenKind {
	out := make([]TokenKind, len(ts))
	for i, t := range ts {
		out[i] = t.Kind
	}
	return out
}

func TestLexSimpleTitle(t *testing.T) {
	ts, err := tokens(`<TITLE>Hello</TITLE>`)
	if err != nil {
		t.Fatal(err)
	}
	want := []TokenKind{TokOpen, TokGT, TokCharData, TokClose}
	got := kinds(ts)
	if len(got) != len(want) {
		t.Fatalf("tokens = %v", ts)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d = %v, want %v (all: %v)", i, got[i], want[i], ts)
		}
	}
	if ts[2].Lit != "Hello" {
		t.Fatalf("chardata = %q", ts[2].Lit)
	}
}

func TestLexAttributesInTag(t *testing.T) {
	ts, err := tokens(`<IMG SOURCE=img/x ID=y STARTIME=5> </IMG>`)
	if err != nil {
		t.Fatal(err)
	}
	// Open, attr, value, attr, value, attr, value, GT, close.
	want := []TokenKind{TokOpen, TokAttr, TokValue, TokAttr, TokValue, TokAttr, TokValue, TokGT, TokClose}
	got := kinds(ts)
	if len(got) != len(want) {
		t.Fatalf("tokens = %v", ts)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d = %v, want %v (all: %v)", i, got[i], want[i], ts)
		}
	}
	if ts[1].Lit != "SOURCE" || ts[2].Lit != "img/x" {
		t.Fatalf("first attr = %v %v", ts[1], ts[2])
	}
}

func TestLexAttributesInBody(t *testing.T) {
	ts, err := tokens(`<IMG> SOURCE= img/x NOTE="hello world" </IMG>`)
	if err != nil {
		t.Fatal(err)
	}
	want := []TokenKind{TokOpen, TokGT, TokAttr, TokValue, TokAttr, TokValue, TokClose}
	got := kinds(ts)
	if len(got) != len(want) {
		t.Fatalf("tokens = %v", ts)
	}
	if ts[5].Lit != "hello world" {
		t.Fatalf("quoted value = %q", ts[5].Lit)
	}
}

func TestLexQuotedEscapes(t *testing.T) {
	ts, err := tokens(`<IMG NOTE="say \"hi\" \\ done"> </IMG>`)
	if err != nil {
		t.Fatal(err)
	}
	var got string
	for i, tok := range ts {
		if tok.Kind == TokAttr && tok.Lit == "NOTE" {
			got = ts[i+1].Lit
		}
	}
	if got != `say "hi" \ done` {
		t.Fatalf("escaped value = %q", got)
	}
}

func TestLexCaseInsensitiveTags(t *testing.T) {
	ts, err := tokens(`<title>x</title>`)
	if err != nil {
		t.Fatal(err)
	}
	if ts[0].Lit != "TITLE" {
		t.Fatalf("tag name = %q, want TITLE", ts[0].Lit)
	}
}

func TestLexInlineStyleWithinText(t *testing.T) {
	ts, err := tokens(`<TEXT>a <B>b</B> c</TEXT>`)
	if err != nil {
		t.Fatal(err)
	}
	want := []TokenKind{TokOpen, TokGT, TokCharData, TokOpen, TokGT, TokCharData, TokClose, TokCharData, TokClose}
	got := kinds(ts)
	if len(got) != len(want) {
		t.Fatalf("tokens = %v", ts)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLexErrors(t *testing.T) {
	cases := map[string]string{
		"unknown tag":        `<BOGUS>x</BOGUS>`,
		"empty tag":          `<>`,
		"unterminated tag":   `<IMG SOURCE=x`,
		"unterminated quote": `<IMG NOTE="oops> </IMG>`,
		"bad close":          `</TITLE x>`,
		"unterminated text":  `<TEXT>hello`,
	}
	for name, src := range cases {
		if _, err := tokens(src); err == nil {
			t.Errorf("%s: no error for %q", name, src)
		}
	}
}

// TestLexNonASCIIValues holds words to ASCII: a quoted value may hold any
// text, and an unquoted one that does not fails on its first non-ASCII
// character, named whole.
func TestLexNonASCIIValues(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{`<IMG SOURCE="img/café" ID=x> </IMG>`, "img/café"},
		{`<IMG SOURCE="caü" ID=x> </IMG>`, "caü"},
		{`<IMG SOURCE=img/café ID=x> </IMG>`, `hml: 1:20: unexpected character 'é' (quote non-ASCII values)`},
		{`<IMG SOURCE=caü ID=x> </IMG>`, `hml: 1:15: unexpected character 'ü' (quote non-ASCII values)`},
	} {
		ts, err := tokens(c.src)
		if err != nil {
			if err.Error() != c.want {
				t.Errorf("%s: error %q, want %q", c.src, err, c.want)
			}
			continue
		}
		if len(ts) < 3 || ts[2].Lit != c.want {
			t.Errorf("%s: tokens %v, want SOURCE %q", c.src, ts, c.want)
		}
	}
	// Serialize quotes what a word cannot hold, so the text parses back.
	d := MustParse("<TITLE>t</TITLE>\n<IMG SOURCE=\"img/café\" ID=\"caü\"> </IMG>")
	d2, err := Parse(Serialize(d))
	if err != nil {
		t.Fatal(err)
	}
	if m := d2.Sentences[0].Items[0].(*Image).Media; m.Source != "img/café" || m.ID != "caü" {
		t.Fatalf("round trip = %q %q", m.Source, m.ID)
	}
}

// TestLexQuotedInPlace keeps an unescaped quoted value a substring of the
// source, and unescapes one with a backslash into a string of its own.
func TestLexQuotedInPlace(t *testing.T) {
	src := `<IMG NOTE="plain words" WHERE="a\"b"> </IMG>`
	ts, err := tokens(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := ts[2].Lit; got != "plain words" || unsafe.StringData(got) != unsafe.StringData(src[11:]) {
		t.Errorf("NOTE = %q, not the source's own bytes", got)
	}
	if got := ts[4].Lit; got != `a"b` {
		t.Errorf("WHERE = %q, want %q", got, `a"b`)
	}
}

func TestLexErrorPositionsAreTracked(t *testing.T) {
	_, err := tokens("<TITLE>ok</TITLE>\n<BOGUS>")
	if err == nil {
		t.Fatal("expected error")
	}
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if se.Pos.Line != 2 {
		t.Fatalf("error line = %d, want 2", se.Pos.Line)
	}
	if !strings.Contains(se.Error(), "2:") {
		t.Fatalf("error text lacks position: %q", se.Error())
	}
}

func TestLexPARIsVoid(t *testing.T) {
	ts, err := tokens(`<PAR><TEXT>x</TEXT>`)
	if err != nil {
		t.Fatal(err)
	}
	// PAR must not push text mode: the following <TEXT> is a tag, not data.
	if ts[2].Kind != TokOpen || ts[2].Lit != "TEXT" {
		t.Fatalf("after <PAR>: %v", ts[2])
	}
}

func TestLexWindowsNewlines(t *testing.T) {
	ts, err := tokens("<TITLE>x</TITLE>\r\n<TEXT>y</TEXT>\r\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) == 0 {
		t.Fatal("no tokens")
	}
}

func TestTokenKindStrings(t *testing.T) {
	for k := TokEOF; k <= TokCharData; k++ {
		if k.String() == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if TokenKind(99).String() != "unknown" {
		t.Fatal("out-of-range kind must be unknown")
	}
}

func TestTokenString(t *testing.T) {
	tok := Token{Kind: TokOpen, Lit: "IMG"}
	if !strings.Contains(tok.String(), "IMG") {
		t.Fatalf("Token.String = %q", tok.String())
	}
	eof := Token{Kind: TokEOF}
	if eof.String() != "EOF" {
		t.Fatalf("EOF token = %q", eof.String())
	}
}
