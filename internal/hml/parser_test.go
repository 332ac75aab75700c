package hml

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestParseTitleOnlyFails(t *testing.T) {
	// A document is a title plus at least zero sentences; title alone is
	// legal per the grammar (<HSentence> ::= empty).
	d, err := Parse(`<TITLE>only</TITLE>`)
	if err != nil {
		t.Fatal(err)
	}
	if d.Title != "only" || len(d.Sentences) != 0 {
		t.Fatalf("doc = %+v", d)
	}
}

func TestParseMissingTitle(t *testing.T) {
	if _, err := Parse(`<TEXT>x</TEXT>`); err == nil {
		t.Fatal("expected error for missing title")
	}
}

func TestParseHeadingLevels(t *testing.T) {
	d := MustParse(GrammarCorpus()["headings"])
	if len(d.Sentences) != 3 {
		t.Fatalf("sentences = %d, want 3", len(d.Sentences))
	}
	for i, s := range d.Sentences {
		if s.Heading == nil || s.Heading.Level != i+1 {
			t.Fatalf("sentence %d heading = %+v", i, s.Heading)
		}
	}
}

func TestParseStyledText(t *testing.T) {
	d := MustParse(GrammarCorpus()["styles"])
	txt := d.Sentences[0].Items[0].(*Text)
	var styles []Style
	for _, sp := range txt.Spans {
		styles = append(styles, sp.Style)
	}
	want := []Style{0, StyleBold, 0, StyleItalic, 0, StyleUnderline, 0, StyleBold | StyleItalic, 0}
	if !reflect.DeepEqual(styles, want) {
		t.Fatalf("styles = %v, want %v", styles, want)
	}
	if !strings.Contains(txt.Plain(), "plain bold italic under both tail") {
		t.Fatalf("plain = %q", txt.Plain())
	}
}

func TestParseImageAttributes(t *testing.T) {
	d := MustParse(GrammarCorpus()["image"])
	img := d.Sentences[0].Items[0].(*Image)
	if img.Source != "img/x" || img.ID != "x" {
		t.Fatalf("source/id = %q/%q", img.Source, img.ID)
	}
	if img.Start != 0 || img.Duration != 5*time.Second {
		t.Fatalf("timing = %v/%v", img.Start, img.Duration)
	}
	if img.Width != 100 || img.Height != 50 {
		t.Fatalf("dims = %dx%d", img.Width, img.Height)
	}
	if img.Where != "10,20" || img.Note != "an image" {
		t.Fatalf("where/note = %q/%q", img.Where, img.Note)
	}
}

func TestParseFractionalSeconds(t *testing.T) {
	d := MustParse(GrammarCorpus()["audio"])
	au := d.Sentences[0].Items[0].(*Audio)
	if au.Start != 2500*time.Millisecond {
		t.Fatalf("start = %v, want 2.5s", au.Start)
	}
}

func TestParseGoDurationSyntax(t *testing.T) {
	d := MustParse(`<TITLE>t</TITLE><VI SOURCE=v ID=v STARTIME=1m30s DURATION=250ms> </VI>`)
	vi := d.Sentences[0].Items[0].(*Video)
	if vi.Start != 90*time.Second || vi.Duration != 250*time.Millisecond {
		t.Fatalf("timing = %v/%v", vi.Start, vi.Duration)
	}
}

func TestParseAudioVideoTwoTimings(t *testing.T) {
	d := MustParse(GrammarCorpus()["auvi"])
	av := d.Sentences[0].Items[0].(*AudioVideo)
	if av.Audio.Source != "au/a" || av.Video.Source != "vi/v" {
		t.Fatalf("sources = %q/%q", av.Audio.Source, av.Video.Source)
	}
	if av.Audio.ID != "a" || av.Video.ID != "v" {
		t.Fatalf("ids = %q/%q", av.Audio.ID, av.Video.ID)
	}
	if av.Audio.Start != 3*time.Second || av.Video.Start != 3*time.Second {
		t.Fatalf("starts = %v/%v", av.Audio.Start, av.Video.Start)
	}
	if av.Audio.Duration != 9*time.Second || av.Video.Duration != 9*time.Second {
		t.Fatalf("durations = %v/%v", av.Audio.Duration, av.Video.Duration)
	}
}

func TestParseAudioVideoSingleTimingInherited(t *testing.T) {
	d := MustParse(GrammarCorpus()["auvi-single"])
	av := d.Sentences[0].Items[0].(*AudioVideo)
	if av.Video.Start != av.Audio.Start || av.Video.Duration != av.Audio.Duration {
		t.Fatalf("video did not inherit timing: %+v", av)
	}
	if av.Audio.Start != 4*time.Second || av.Audio.Duration != 8*time.Second {
		t.Fatalf("audio timing = %v/%v", av.Audio.Start, av.Audio.Duration)
	}
}

func TestParseLinksAllForms(t *testing.T) {
	d := MustParse(GrammarCorpus()["links"])
	links := d.Links()
	if len(links) != 4 {
		t.Fatalf("links = %d, want 4", len(links))
	}
	if links[0].Target != "other.hml" || links[0].Kind != Explorational || links[0].Note != "explore" {
		t.Fatalf("link0 = %+v", links[0])
	}
	if links[1].Kind != Sequential {
		t.Fatalf("link1 kind = %v", links[1].Kind)
	}
	if !links[2].HasAt || links[2].At != 15*time.Second {
		t.Fatalf("link2 = %+v", links[2])
	}
	if links[2].Kind != Sequential {
		t.Fatal("timed links must be sequential")
	}
	if links[3].Host != "server-b" {
		t.Fatalf("link3 host = %q", links[3].Host)
	}
}

func TestParseBareWordLinkForm(t *testing.T) {
	d := MustParse(GrammarCorpus()["links-bareword"])
	links := d.Links()
	if len(links) != 2 {
		t.Fatalf("links = %d", len(links))
	}
	if !links[0].HasAt || links[0].At != 30*time.Second || links[0].Target != "next.hml" {
		t.Fatalf("bare AT link = %+v", links[0])
	}
	if links[1].Target != "other.hml" || links[1].Host != "server-b" {
		t.Fatalf("bare host link = %+v", links[1])
	}
}

func TestParseLinkWithoutTargetFails(t *testing.T) {
	if _, err := Parse(`<TITLE>t</TITLE><HLINK NOTE=x> </HLINK>`); err == nil {
		t.Fatal("expected error for targetless HLINK")
	}
}

func TestParseBadKind(t *testing.T) {
	if _, err := Parse(`<TITLE>t</TITLE><HLINK HREF=x KIND=WRONG> </HLINK>`); err == nil {
		t.Fatal("expected error for bad KIND")
	}
}

func TestParseBadTime(t *testing.T) {
	if _, err := Parse(`<TITLE>t</TITLE><AU SOURCE=a ID=a STARTIME=xyz> </AU>`); err == nil {
		t.Fatal("expected error for bad STARTIME")
	}
}

func TestParseBadDimensions(t *testing.T) {
	if _, err := Parse(`<TITLE>t</TITLE><IMG SOURCE=a ID=a WIDTH=abc> </IMG>`); err == nil {
		t.Fatal("expected error for bad WIDTH")
	}
}

func TestParseFigure2Scenario(t *testing.T) {
	d := Figure2()
	if err := Validate(d); err != nil {
		t.Fatalf("figure 2 document invalid: %v", err)
	}
	ft := Figure2Times
	var i1, i2 *Image
	var av *AudioVideo
	var a2 *Audio
	for _, it := range d.Items() {
		switch v := it.(type) {
		case *Image:
			if v.ID == "I1" {
				i1 = v
			} else if v.ID == "I2" {
				i2 = v
			}
		case *AudioVideo:
			av = v
		case *Audio:
			a2 = v
		}
	}
	if i1 == nil || i1.Start != ft.I1Start || i1.Duration != ft.I1Dur {
		t.Fatalf("I1 = %+v", i1)
	}
	if i2 == nil || i2.Start != ft.I2Start || i2.Duration != ft.I2Dur {
		t.Fatalf("I2 = %+v", i2)
	}
	if av == nil || av.Audio.Start != ft.AVStart || av.Video.Duration != ft.AVDur {
		t.Fatalf("AV = %+v", av)
	}
	if a2 == nil || a2.Start != ft.A2Start || a2.Duration != ft.A2Dur {
		t.Fatalf("A2 = %+v", a2)
	}
	var tl []*Link
	for _, l := range d.Links() {
		if l.HasAt {
			tl = append(tl, l)
		}
	}
	if len(tl) != 1 || tl[0].At != ft.LinkAt {
		t.Fatalf("timed links = %+v", tl)
	}
}

func TestParseWholeGrammarCorpus(t *testing.T) {
	for name, src := range GrammarCorpus() {
		if _, err := Parse(src); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestParseLessonGenerator(t *testing.T) {
	src := LessonSource("algo", 5, 30*time.Second)
	d, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(d); err != nil {
		t.Fatal(err)
	}
	st := Statistics(d)
	if st.Images != 5 || st.SyncGroups != 5 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestParseErrorsPropagate(t *testing.T) {
	bad := []string{
		`<TITLE>t</TITLE><TEXT>a<IMG></IMG></TEXT>`, // media inside text
		`<TITLE>t</TITLE><IMG> </AU>`,               // mismatched close
		`<TITLE>t`,                                  // unterminated title
		`<TITLE>t</TITLE><H1>h</H1>`,                // heading with no body is fine...
	}
	for i, src := range bad[:3] {
		if _, err := Parse(src); err == nil {
			t.Errorf("case %d: no error for %q", i, src)
		}
	}
	// Heading-only sentence is legal (empty body).
	if _, err := Parse(bad[3]); err != nil {
		t.Errorf("heading-only: %v", err)
	}
}

func TestMustParsePanicsOnError(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse did not panic")
		}
	}()
	MustParse(`<BROKEN`)
}

func TestParseTimeFormats(t *testing.T) {
	cases := map[string]time.Duration{
		"0":     0,
		"30":    30 * time.Second,
		"2.5":   2500 * time.Millisecond,
		"1m30s": 90 * time.Second,
		"250ms": 250 * time.Millisecond,
		" 5 ":   5 * time.Second,
	}
	for in, want := range cases {
		got, err := ParseTime(in)
		if err != nil {
			t.Errorf("ParseTime(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("ParseTime(%q) = %v, want %v", in, got, want)
		}
	}
	for _, bad := range []string{"", "abc", "12x"} {
		if _, err := ParseTime(bad); err == nil {
			t.Errorf("ParseTime(%q): no error", bad)
		}
	}
}

func TestFormatTimeTrimsZeros(t *testing.T) {
	cases := map[time.Duration]string{
		0:                       "0",
		time.Second:             "1",
		2500 * time.Millisecond: "2.5",
		90 * time.Second:        "90",
		250 * time.Millisecond:  "0.25",
	}
	for in, want := range cases {
		if got := FormatTime(in); got != want {
			t.Errorf("FormatTime(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestFormatParseTimeRoundTrip(t *testing.T) {
	for _, d := range []time.Duration{0, time.Millisecond, 123 * time.Millisecond, time.Second, 12345 * time.Millisecond, time.Hour} {
		got, err := ParseTime(FormatTime(d))
		if err != nil {
			t.Fatalf("round-trip %v: %v", d, err)
		}
		if got != d {
			t.Errorf("round-trip %v → %q → %v", d, FormatTime(d), got)
		}
	}
}

// Property: the parser never panics, whatever bytes arrive; it returns a
// document or an error.
func TestQuickParserTotality(t *testing.T) {
	f := func(raw []byte) bool {
		defer func() {
			if recover() != nil {
				t.Fatalf("parser panicked on %q", raw)
			}
		}()
		_, _ = Parse(string(raw))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: tag-soup built from the language's own tokens never panics and,
// when it parses, re-serializes without panicking either.
func TestQuickTagSoup(t *testing.T) {
	atoms := []string{
		"<TITLE>", "</TITLE>", "<TEXT>", "</TEXT>", "<B>", "</B>",
		"<IMG", "</IMG>", "<AU_VI", "</AU_VI>", "<HLINK", "</HLINK>",
		">", "SOURCE=x", "ID=y", "STARTIME=1", "DURATION=", "AFTER=", "words",
		"\"quoted\"", "<PAR>", "<SEP>", "<H1>", "</H1>",
	}
	f := func(picks []uint8) bool {
		var b strings.Builder
		for _, p := range picks {
			b.WriteString(atoms[int(p)%len(atoms)])
			b.WriteByte(' ')
		}
		doc, err := Parse(b.String())
		if err == nil && doc != nil {
			_ = Serialize(doc)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
