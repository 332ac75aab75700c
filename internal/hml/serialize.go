package hml

import (
	"fmt"
	"strings"
)

// Serialize renders a Document to canonical HML text. The output parses back
// to an equivalent Document (see TestRoundTrip), which is what lets servers
// store documents as AST and ship them as markup, per the paper ("the
// representation of a document by the markup language is actually a text
// file").
func Serialize(d *Document) string {
	var b strings.Builder
	fmt.Fprintf(&b, "<TITLE>%s</TITLE>\n", escape(d.Title))
	for _, s := range d.Sentences {
		writeSentence(&b, s)
	}
	return b.String()
}

func escape(s string) string {
	return strings.NewReplacer("<", "&lt;", ">", "&gt;").Replace(s)
}

func quoteVal(s string) string {
	if s == "" {
		return `""`
	}
	for i := 0; i < len(s); i++ {
		if !isWordByte(s[i]) {
			return `"` + strings.NewReplacer(`\`, `\\`, `"`, `\"`).Replace(s) + `"`
		}
	}
	return s
}

func writeSentence(b *strings.Builder, s *Sentence) {
	if s.Heading != nil {
		fmt.Fprintf(b, "<H%d>%s</H%d>\n", s.Heading.Level, escape(s.Heading.Text), s.Heading.Level)
	}
	if s.Par {
		b.WriteString("<PAR>\n")
	}
	for _, it := range s.Items {
		writeItem(b, it)
	}
	if s.Separator {
		b.WriteString("<SEP>\n")
	}
}

func writeItem(b *strings.Builder, it Item) {
	switch v := it.(type) {
	case *Text:
		b.WriteString("<TEXT>")
		writeSpans(b, v.Spans)
		b.WriteString("</TEXT>\n")
	case *Image:
		writeMedia(b, KwImg, v.Media)
	case *Audio:
		writeMedia(b, KwAu, v.Media)
	case *Video:
		writeMedia(b, KwVi, v.Media)
	case *AudioVideo:
		b.WriteString("<AU_VI>")
		fmt.Fprintf(b, " SOURCE=%s SOURCE=%s ID=%s ID=%s STARTIME=%s STARTIME=%s DURATION=%s DURATION=%s",
			quoteVal(v.Audio.Source), quoteVal(v.Video.Source),
			quoteVal(v.Audio.ID), quoteVal(v.Video.ID),
			FormatTime(v.Audio.Start), FormatTime(v.Video.Start),
			FormatTime(v.Audio.Duration), FormatTime(v.Video.Duration))
		if v.Audio.After != "" {
			fmt.Fprintf(b, " AFTER=%s", quoteVal(v.Audio.After))
		}
		writeLayoutAttrs(b, v.Audio)
		b.WriteString(" </AU_VI>\n")
	case *Link:
		b.WriteString("<HLINK>")
		fmt.Fprintf(b, " HREF=%s", quoteVal(v.Target))
		if v.Host != "" {
			fmt.Fprintf(b, " HOST=%s", quoteVal(v.Host))
		}
		if v.HasAt {
			fmt.Fprintf(b, " AT=%s", FormatTime(v.At))
		}
		if v.Kind == Sequential {
			b.WriteString(" KIND=SEQ")
		}
		if v.Note != "" {
			fmt.Fprintf(b, " NOTE=%s", quoteVal(v.Note))
		}
		b.WriteString(" </HLINK>\n")
	}
}

// writeMedia writes a single-media element: an IMG, AU or VI.
func writeMedia(b *strings.Builder, kw Keyword, m Media) {
	b.WriteString("<" + string(kw) + ">")
	if m.Source != "" {
		fmt.Fprintf(b, " SOURCE=%s", quoteVal(m.Source))
	}
	if m.ID != "" {
		fmt.Fprintf(b, " ID=%s", quoteVal(m.ID))
	}
	if m.After != "" {
		fmt.Fprintf(b, " AFTER=%s", quoteVal(m.After))
	}
	fmt.Fprintf(b, " STARTIME=%s", FormatTime(m.Start))
	if m.Duration != 0 {
		fmt.Fprintf(b, " DURATION=%s", FormatTime(m.Duration))
	}
	writeLayoutAttrs(b, m)
	b.WriteString(" </" + string(kw) + ">\n")
}

// writeLayoutAttrs writes the attributes after a media element's timing; an
// AU_VI's apply to both its halves.
func writeLayoutAttrs(b *strings.Builder, m Media) {
	if m.Width != 0 {
		fmt.Fprintf(b, " WIDTH=%d", m.Width)
	}
	if m.Height != 0 {
		fmt.Fprintf(b, " HEIGHT=%d", m.Height)
	}
	if m.Where != "" {
		fmt.Fprintf(b, " WHERE=%s", quoteVal(m.Where))
	}
	if m.Note != "" {
		fmt.Fprintf(b, " NOTE=%s", quoteVal(m.Note))
	}
}

func writeSpans(b *strings.Builder, spans []Span) {
	for _, sp := range spans {
		open, close := styleTags(sp.Style)
		b.WriteString(open)
		b.WriteString(escape(sp.Text))
		b.WriteString(close)
	}
}

// styleTags opens a style's tags in B, I, U order and closes them
// inside-out.
func styleTags(s Style) (open, close string) {
	for _, t := range [...]struct {
		bit Style
		tag string
	}{{StyleBold, "B"}, {StyleItalic, "I"}, {StyleUnderline, "U"}} {
		if s.Has(t.bit) {
			open += "<" + t.tag + ">"
			close = "</" + t.tag + ">" + close
		}
	}
	return open, close
}
