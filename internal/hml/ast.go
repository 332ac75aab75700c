package hml

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Document is the root of an HML document: a title followed by a sequence of
// "hyper-sentences" (grammar production <Hdocument>).
type Document struct {
	// Title is the mandatory document title.
	Title string
	// Sentences are the document's content blocks in source order.
	Sentences []*Sentence
	// Name optionally records where the document came from (file name or
	// database key); it is not part of the language.
	Name string
}

// Sentence is one <HSentence>: an optional heading, an optional paragraph
// break, a body of items, and an optional trailing separator.
type Sentence struct {
	Heading   *Heading
	Par       bool
	Items     []Item
	Separator bool
}

// Heading is an H1, H2 or H3 heading.
type Heading struct {
	Level int // 1, 2 or 3
	Text  string
}

// Item is any element that may appear in a sentence body: Text, Image,
// Audio, Video, AudioVideo or Link.
type Item interface {
	itemNode()
}

// Style is a bitmask of inline text styles.
type Style uint8

// Inline style bits.
const (
	StyleBold Style = 1 << iota
	StyleItalic
	StyleUnderline
)

// Has reports whether s contains all bits of q.
func (s Style) Has(q Style) bool { return s&q == q }

func (s Style) String() string {
	var parts []string
	if s.Has(StyleBold) {
		parts = append(parts, "bold")
	}
	if s.Has(StyleItalic) {
		parts = append(parts, "italic")
	}
	if s.Has(StyleUnderline) {
		parts = append(parts, "underline")
	}
	if len(parts) == 0 {
		return "plain"
	}
	return strings.Join(parts, "+")
}

// Span is a run of text with a single style combination.
type Span struct {
	Style Style
	Text  string
}

// Text is a <TEXT> element: styled character content.
type Text struct {
	Spans []Span
}

func (*Text) itemNode() {}

// Plain returns the text content with styling stripped.
func (t *Text) Plain() string {
	if len(t.Spans) == 1 {
		return t.Spans[0].Text
	}
	n := 0
	for _, s := range t.Spans {
		n += len(s.Text)
	}
	var b strings.Builder
	b.Grow(n)
	for _, s := range t.Spans {
		b.WriteString(s.Text)
	}
	return b.String()
}

// Media carries the shared attributes of every inline media element
// (grammar productions <Source>, <Id>, <TimeOption> and the layout options).
type Media struct {
	// Source names where the media data lives (the SOURCE retrieval
	// options of the paper; in this implementation a media-server key).
	Source string
	// ID is the unique component identification key used to demultiplex
	// arriving streams.
	ID string
	// Start is the media's relative playout start time (STARTIME). When
	// After is set, Start is an offset added to the referenced media's end
	// time (an extension toward the Amsterdam model's relative timing —
	// the paper's "more complicated presentational features").
	Start time.Duration
	// After names another media component this one starts after ("" =
	// absolute timing).
	After string
	// Duration is the playout duration (DURATION); zero means "until the
	// presentation ends" for stills and "intrinsic length" for streams.
	Duration time.Duration
	// Width and Height are display dimensions (images/video); zero means
	// natural size.
	Width, Height int
	// Where places the media on the display ("x,y").
	Where string
	// Note is an annotation.
	Note string
}

// Image is an <IMG> element.
type Image struct{ Media }

func (*Image) itemNode() {}

// Audio is an <AU> element.
type Audio struct{ Media }

func (*Audio) itemNode() {}

// Video is a <VI> element.
type Video struct{ Media }

func (*Video) itemNode() {}

// AudioVideo is an <AU_VI> synchronized group: an audio stream and a video
// stream that "should start and stop playing at the same time".
type AudioVideo struct {
	Audio Media
	Video Media
}

func (*AudioVideo) itemNode() {}

// LinkKind distinguishes the two hyperlink categories of the paper.
type LinkKind int

// Link kinds.
const (
	// Explorational links override the logical sequence to reach related
	// information.
	Explorational LinkKind = iota
	// Sequential links preserve the author's logical sequence.
	Sequential
)

func (k LinkKind) String() string {
	if k == Sequential {
		return "sequential"
	}
	return "explorational"
}

// Link is an <HLINK> element.
type Link struct {
	Kind LinkKind
	// Target is the linked document (file name / database key).
	Target string
	// Host optionally names another multimedia server holding the target.
	Host string
	// At, when HasAt is set, auto-activates the link once the given
	// scenario-relative time elapses (the AT keyword).
	At    time.Duration
	HasAt bool
	Note  string
}

func (*Link) itemNode() {}

// Items returns every item of the document in source order.
func (d *Document) Items() []Item {
	var out []Item
	for _, s := range d.Sentences {
		out = append(out, s.Items...)
	}
	return out
}

// ParseTime parses the language's time values: Go duration syntax ("1m30s",
// "250ms") or a bare number of seconds ("30", "2.5").
func ParseTime(s string) (time.Duration, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, fmt.Errorf("hml: empty time value")
	}
	if secs, err := strconv.ParseFloat(s, 64); err == nil {
		// Round to the nearest nanosecond so decimal fractions such as
		// "41.611" survive the float multiplication exactly.
		return time.Duration(math.Round(secs * float64(time.Second))), nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		// Built, not formatted: s must not escape the parser's stack buffers.
		return 0, errors.New("hml: bad time value " + strconv.Quote(s))
	}
	return d, nil
}

// FormatTime renders a duration in the canonical serialized form (seconds
// with millisecond precision, trailing zeros trimmed).
func FormatTime(d time.Duration) string {
	secs := float64(d) / float64(time.Second)
	s := strconv.FormatFloat(secs, 'f', 3, 64)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		s = "0"
	}
	return s
}
