package hml

import (
	"strconv"
	"strings"
)

// Parser builds a Document AST from HML source following the Figure 1 BNF:
//
//	<Hdocument>  ::= TITLE STRING END_TITLE <HSentence>
//	<HSentence>  ::= empty | <Headings> <Main> <Separator> <HSentence>
//	<Main>       ::= <Par> <Body>
//	<Body>       ::= empty | (<Document>|<Image>|<Audio>|<Video>|
//	                          <Audio_Video>|<HyperLink>) <Body>
type Parser struct {
	lex *Lexer
	tok Token
}

// Parse parses a complete HML document.
func Parse(src string) (*Document, error) {
	p := &Parser{lex: NewLexer(src)}
	p.next()
	doc, err := p.parseDocument()
	if err != nil {
		return nil, err
	}
	if lerr := p.lex.Err(); lerr != nil {
		return nil, lerr
	}
	return doc, nil
}

// MustParse parses src and panics on error; for tests and fixtures.
func MustParse(src string) *Document {
	d, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return d
}

func (p *Parser) next() { p.tok = p.lex.Next() }

func (p *Parser) expect(kind TokenKind, what string) (Token, error) {
	if p.tok.Kind != kind {
		return Token{}, errAt(p.tok.Pos, "expected %s, found %s", what, p.tok)
	}
	t := p.tok
	p.next()
	return t, nil
}

func (p *Parser) expectOpen(kw Keyword) error {
	if p.tok.Kind != TokOpen || p.tok.Lit != string(kw) {
		return errAt(p.tok.Pos, "expected <%s>, found %s", kw, p.tok)
	}
	p.next()
	_, err := p.expect(TokGT, "'>'")
	return err
}

func (p *Parser) parseDocument() (*Document, error) {
	doc := &Document{}
	if err := p.expectOpen(KwTitle); err != nil {
		return nil, err
	}
	title, err := p.parseRawText(KwTitle)
	if err != nil {
		return nil, err
	}
	doc.Title = strings.TrimSpace(title)
	var buf [8]*Sentence
	sentences := buf[:0]
	for p.tok.Kind != TokEOF {
		s, err := p.parseSentence()
		if err != nil {
			return nil, err
		}
		sentences = append(sentences, s)
	}
	doc.Sentences = append([]*Sentence(nil), sentences...)
	return doc, nil
}

// parseRawText returns the character data up to the closing tag of kw: at
// most one token from the lexer, so a substring of the source.
func (p *Parser) parseRawText(kw Keyword) (string, error) {
	var text string
	for {
		switch p.tok.Kind {
		case TokCharData:
			text += p.tok.Lit
			p.next()
		case TokClose:
			if p.tok.Lit == string(kw) {
				p.next()
				return text, nil
			}
			return "", errAt(p.tok.Pos, "unexpected </%s> inside <%s>", p.tok.Lit, kw)
		case TokEOF:
			return "", errAt(p.tok.Pos, "unterminated <%s>", kw)
		default:
			return "", errAt(p.tok.Pos, "unexpected %s inside <%s>", p.tok, kw)
		}
	}
}

func (p *Parser) parseSentence() (*Sentence, error) {
	s := &Sentence{}
	// <Headings>
	if p.tok.Kind == TokOpen {
		switch Keyword(p.tok.Lit) {
		case KwH1, KwH2, KwH3:
			level := int(p.tok.Lit[1] - '0')
			kw := Keyword(p.tok.Lit)
			p.next()
			if _, err := p.expect(TokGT, "'>'"); err != nil {
				return nil, err
			}
			text, err := p.parseRawText(kw)
			if err != nil {
				return nil, err
			}
			s.Heading = &Heading{Level: level, Text: strings.TrimSpace(text)}
		}
	}
	// <Par>
	if p.tok.Kind == TokOpen && Keyword(p.tok.Lit) == KwPar {
		p.next()
		if _, err := p.expect(TokGT, "'>'"); err != nil {
			return nil, err
		}
		s.Par = true
	}
	// <Body>
	var buf [8]Item
	items := buf[:0]
	for p.tok.Kind == TokOpen {
		kw := Keyword(p.tok.Lit)
		var it Item
		var err error
		switch kw {
		case KwText:
			it, err = p.parseText()
		case KwImg:
			img := &Image{}
			img.Media, err = p.parseMedia(kw)
			it = img
		case KwAu:
			au := &Audio{}
			au.Media, err = p.parseMedia(kw)
			it = au
		case KwVi:
			vi := &Video{}
			vi.Media, err = p.parseMedia(kw)
			it = vi
		case KwAuVi:
			it, err = p.parseAudioVideo()
		case KwHLink:
			it, err = p.parseLink()
		default:
			// Heading, PAR or SEP starts the next sentence part.
		}
		if err != nil {
			return nil, err
		}
		if it == nil {
			break
		}
		items = append(items, it)
	}
	s.Items = append([]Item(nil), items...)
	// <Separator>
	if p.tok.Kind == TokOpen && Keyword(p.tok.Lit) == KwSep {
		p.next()
		if _, err := p.expect(TokGT, "'>'"); err != nil {
			return nil, err
		}
		s.Separator = true
	}
	if s.Heading == nil && !s.Par && len(s.Items) == 0 && !s.Separator {
		return nil, errAt(p.tok.Pos, "expected sentence content, found %s", p.tok)
	}
	return s, nil
}

func (p *Parser) parseText() (*Text, error) {
	if err := p.expectOpen(KwText); err != nil {
		return nil, err
	}
	var buf [8]Span
	spans, err := p.parseSpans(buf[:0], 0, KwText)
	if err != nil {
		return nil, err
	}
	return &Text{Spans: append([]Span(nil), spans...)}, nil
}

// parseSpans appends the styled spans until the closing tag of kw to spans.
func (p *Parser) parseSpans(spans []Span, style Style, kw Keyword) ([]Span, error) {
	for {
		switch p.tok.Kind {
		case TokCharData:
			spans = append(spans, Span{Style: style, Text: p.tok.Lit})
			p.next()
		case TokOpen:
			inner := Keyword(p.tok.Lit)
			var bit Style
			switch inner {
			case KwBold:
				bit = StyleBold
			case KwItalic:
				bit = StyleItalic
			case KwUnder:
				bit = StyleUnderline
			default:
				return nil, errAt(p.tok.Pos, "tag <%s> not allowed inside <%s>", inner, kw)
			}
			p.next()
			if _, err := p.expect(TokGT, "'>'"); err != nil {
				return nil, err
			}
			var err error
			if spans, err = p.parseSpans(spans, style|bit, inner); err != nil {
				return nil, err
			}
		case TokClose:
			if p.tok.Lit != string(kw) {
				return nil, errAt(p.tok.Pos, "expected </%s>, found </%s>", kw, p.tok.Lit)
			}
			p.next()
			return spans, nil
		case TokEOF:
			return nil, errAt(p.tok.Pos, "unterminated <%s>", kw)
		default:
			return nil, errAt(p.tok.Pos, "unexpected %s inside <%s>", p.tok, kw)
		}
	}
}

// attrSet accumulates the attribute list of a media or link tag.
type attrSet struct {
	attrs  []attr
	words  []string
	atWord string // value following a bare AT word (HLINK form)
}

type attr struct {
	key Keyword
	val string
}

// parseAttrs reads attribute/value pairs and bare words until </kw>,
// appending the pairs to attrs: its callers pass an array on their stack,
// so a list that fits costs no allocation. The language permits
// attributes both inside the open tag (<IMG SOURCE=x>) and in the body
// (<IMG> SOURCE=x </IMG>); the lexer flattens the two forms into the same
// token sequence.
func (p *Parser) parseAttrs(kw Keyword, attrs []attr) (as attrSet, err error) {
	as.attrs = attrs
	if p.tok.Kind != TokOpen || p.tok.Lit != string(kw) {
		return as, errAt(p.tok.Pos, "expected <%s>, found %s", kw, p.tok)
	}
	p.next()
	sawGT := false
	for {
		switch p.tok.Kind {
		case TokGT:
			sawGT = true
			p.next()
		case TokAttr:
			key := Keyword(p.tok.Lit)
			p.next()
			v, err := p.expect(TokValue, "attribute value")
			if err != nil {
				return as, err
			}
			as.attrs = append(as.attrs, attr{key: key, val: v.Lit})
		case TokWord:
			if strings.EqualFold(p.tok.Lit, string(KwAt)) {
				p.next()
				if p.tok.Kind != TokWord && p.tok.Kind != TokValue {
					return as, errAt(p.tok.Pos, "AT requires a time value")
				}
				as.atWord = p.tok.Lit
				p.next()
				continue
			}
			as.words = append(as.words, p.tok.Lit)
			p.next()
		case TokValue:
			as.words = append(as.words, p.tok.Lit)
			p.next()
		case TokClose:
			if p.tok.Lit != string(kw) {
				return as, errAt(p.tok.Pos, "expected </%s>, found </%s>", kw, p.tok.Lit)
			}
			if !sawGT {
				return as, errAt(p.tok.Pos, "malformed <%s> tag", kw)
			}
			p.next()
			return as, nil
		case TokEOF:
			return as, errAt(p.tok.Pos, "unterminated <%s>", kw)
		default:
			return as, errAt(p.tok.Pos, "unexpected %s inside <%s>", p.tok, kw)
		}
	}
}

// get returns the i-th occurrence (0-based) of key.
func (as *attrSet) get(key Keyword, i int) (string, bool) {
	n := 0
	for _, a := range as.attrs {
		if a.key == key {
			if n == i {
				return a.val, true
			}
			n++
		}
	}
	return "", false
}

func (as *attrSet) count(key Keyword) int {
	n := 0
	for _, a := range as.attrs {
		if a.key == key {
			n++
		}
	}
	return n
}

// fillMedia populates a Media from the idx-th SOURCE/ID/STARTIME occurrence
// (AU_VI repeats those keywords for its two halves).
func (as *attrSet) fillMedia(m *Media, idx int) error {
	if v, ok := as.get(KwSource, idx); ok {
		m.Source = v
	}
	if v, ok := as.get(KwID, idx); ok {
		m.ID = v
	}
	if v, ok := as.get(KwStartime, idx); ok {
		d, err := ParseTime(v)
		if err != nil {
			return err
		}
		m.Start = d
	}
	if v, ok := as.get(KwDuration, idx); ok {
		d, err := ParseTime(v)
		if err != nil {
			return err
		}
		m.Duration = d
	}
	if v, ok := as.get(KwAfter, 0); ok {
		m.After = v
	}
	if v, ok := as.get(KwNote, 0); ok {
		m.Note = v
	}
	if v, ok := as.get(KwWhere, 0); ok {
		m.Where = v
	}
	if v, ok := as.get(KwWidth, 0); ok {
		n, err := strconv.Atoi(v)
		if err != nil {
			return errAt(Pos{}, "bad WIDTH %q", v)
		}
		m.Width = n
	}
	if v, ok := as.get(KwHeight, 0); ok {
		n, err := strconv.Atoi(v)
		if err != nil {
			return errAt(Pos{}, "bad HEIGHT %q", v)
		}
		m.Height = n
	}
	return nil
}

// parseMedia reads a single-media element: an IMG, AU or VI.
func (p *Parser) parseMedia(kw Keyword) (m Media, err error) {
	var buf [16]attr
	as, err := p.parseAttrs(kw, buf[:0])
	if err == nil {
		err = as.fillMedia(&m, 0)
	}
	return m, err
}

// parseAudioVideo handles the synchronized group. The grammar gives it two
// SOURCEs, two IDs and two STARTIMEs (audio first, then video); a single
// occurrence applies to both halves.
func (p *Parser) parseAudioVideo() (*AudioVideo, error) {
	var buf [16]attr
	as, err := p.parseAttrs(KwAuVi, buf[:0])
	if err != nil {
		return nil, err
	}
	av := &AudioVideo{}
	if err := as.fillMedia(&av.Audio, 0); err != nil {
		return nil, err
	}
	vidIdx := 0
	if as.count(KwSource) > 1 || as.count(KwID) > 1 || as.count(KwStartime) > 1 {
		vidIdx = 1
	}
	if err := as.fillMedia(&av.Video, vidIdx); err != nil {
		return nil, err
	}
	if as.count(KwDuration) > 1 {
		if v, ok := as.get(KwDuration, 1); ok {
			d, err := ParseTime(v)
			if err != nil {
				return nil, err
			}
			av.Video.Duration = d
		}
	}
	// The two media "should start and stop playing at the same time": a
	// missing half inherits the other's timing.
	if as.count(KwStartime) == 1 {
		av.Video.Start = av.Audio.Start
	}
	if as.count(KwDuration) == 1 {
		av.Video.Duration = av.Audio.Duration
	}
	return av, nil
}

func (p *Parser) parseLink() (*Link, error) {
	var buf [16]attr
	as, err := p.parseAttrs(KwHLink, buf[:0])
	if err != nil {
		return nil, err
	}
	l := &Link{}
	if v, ok := as.get(KwHref, 0); ok {
		l.Target = v
	}
	if v, ok := as.get(KwHost, 0); ok {
		l.Host = v
	}
	if v, ok := as.get(KwNote, 0); ok {
		l.Note = v
	}
	if v, ok := as.get(KwKind, 0); ok {
		switch strings.ToUpper(v) {
		case "SEQ", "SEQUENTIAL":
			l.Kind = Sequential
		case "EXP", "EXPLORATIONAL":
			l.Kind = Explorational
		default:
			return nil, errAt(Pos{}, "bad KIND %q (want SEQ or EXP)", v)
		}
	}
	if v, ok := as.get(KwAt, 0); ok {
		d, err := ParseTime(v)
		if err != nil {
			return nil, err
		}
		l.At, l.HasAt = d, true
	}
	if as.atWord != "" {
		d, err := ParseTime(as.atWord)
		if err != nil {
			return nil, err
		}
		l.At, l.HasAt = d, true
	}
	// Bare-word form: "<HLINK> AT 30 lesson2.hml </HLINK>" — the first
	// remaining word is the target.
	if l.Target == "" && len(as.words) > 0 {
		l.Target = as.words[0]
		if len(as.words) > 1 && l.Host == "" {
			// "<HLINK> doc host </HLINK>" — second word names the host.
			l.Host = as.words[1]
		}
	}
	if l.Target == "" {
		return nil, errAt(Pos{}, "HLINK requires a target document")
	}
	// A timed link preserves the author's sequence by construction.
	if l.HasAt {
		l.Kind = Sequential
	}
	return l, nil
}
