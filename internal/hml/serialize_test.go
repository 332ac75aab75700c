package hml

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestRoundTripCorpus(t *testing.T) {
	for name, src := range GrammarCorpus() {
		d1, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		out := Serialize(d1)
		d2, err := Parse(out)
		if err != nil {
			t.Fatalf("%s: reparse: %v\n--- serialized ---\n%s", name, err, out)
		}
		// Compare semantically relevant structure.
		if d1.Title != d2.Title {
			t.Errorf("%s: title %q != %q", name, d1.Title, d2.Title)
		}
		s1, s2 := Statistics(d1), Statistics(d2)
		if s1 != s2 {
			t.Errorf("%s: stats changed: %+v vs %+v", name, s1, s2)
		}
		it1, it2 := d1.Items(), d2.Items()
		if len(it1) != len(it2) {
			t.Fatalf("%s: item count %d != %d", name, len(it1), len(it2))
		}
		for i := range it1 {
			if !itemsEquivalent(it1[i], it2[i]) {
				t.Errorf("%s: item %d differs:\n  %#v\n  %#v", name, i, it1[i], it2[i])
			}
		}
	}
}

// itemsEquivalent compares items ignoring text-span splitting differences.
func itemsEquivalent(a, b Item) bool {
	switch va := a.(type) {
	case *Text:
		vb, ok := b.(*Text)
		return ok && va.Plain() == vb.Plain()
	default:
		return reflect.DeepEqual(a, b)
	}
}

func TestSerializeIdempotent(t *testing.T) {
	d := Figure2()
	s1 := Serialize(d)
	d2 := MustParse(s1)
	s2 := Serialize(d2)
	if s1 != s2 {
		t.Fatalf("serialization not idempotent:\n%s\n---\n%s", s1, s2)
	}
}

func TestSerializeQuoting(t *testing.T) {
	d := &Document{
		Title: "quoting",
		Sentences: []*Sentence{{
			Items: []Item{&Image{Media{Source: "a b", ID: "x", Note: `with "quotes" and \slash`, Duration: time.Second}}},
		}},
	}
	out := Serialize(d)
	d2, err := Parse(out)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, out)
	}
	img := d2.Sentences[0].Items[0].(*Image)
	if img.Source != "a b" || img.Note != `with "quotes" and \slash` {
		t.Fatalf("quoting lost: %+v", img)
	}
}

func TestSerializeEscapesAngleBrackets(t *testing.T) {
	d := &Document{Title: "a < b > c"}
	out := Serialize(d)
	if strings.Contains(strings.TrimPrefix(out, "<TITLE>"), "<b") {
		t.Fatalf("unescaped: %q", out)
	}
	d2, err := Parse(out)
	if err != nil {
		t.Fatal(err)
	}
	// The escape is one-way (entities are not decoded on parse), but the
	// document must remain parseable.
	if d2.Title == "" {
		t.Fatal("title lost")
	}
}

func TestStyleString(t *testing.T) {
	cases := map[Style]string{
		0:                                        "plain",
		StyleBold:                                "bold",
		StyleBold | StyleItalic:                  "bold+italic",
		StyleUnderline:                           "underline",
		StyleBold | StyleItalic | StyleUnderline: "bold+italic+underline",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", s, got, want)
		}
	}
}

func TestLinkKindString(t *testing.T) {
	if Sequential.String() != "sequential" || Explorational.String() != "explorational" {
		t.Fatal("LinkKind strings wrong")
	}
}

// Property: serializing a randomly generated valid document and re-parsing
// preserves media timing exactly.
func TestQuickRoundTripMediaTiming(t *testing.T) {
	f := func(startsMS []uint16, dursMS []uint16) bool {
		n := len(startsMS)
		if len(dursMS) < n {
			n = len(dursMS)
		}
		if n > 20 {
			n = 20
		}
		d := &Document{Title: "gen"}
		s := &Sentence{}
		for i := 0; i < n; i++ {
			m := Media{
				Source:   "src",
				ID:       "m" + string(rune('a'+i%26)) + string(rune('0'+i/26)),
				Start:    time.Duration(startsMS[i]) * time.Millisecond,
				Duration: time.Duration(dursMS[i])*time.Millisecond + time.Millisecond,
			}
			s.Items = append(s.Items, &Video{m})
		}
		d.Sentences = []*Sentence{s}
		d2, err := Parse(Serialize(d))
		if err != nil {
			return false
		}
		it2 := d2.Items()
		if len(it2) != n {
			return false
		}
		for i := 0; i < n; i++ {
			v1 := s.Items[i].(*Video)
			v2, ok := it2[i].(*Video)
			if !ok || v1.Start != v2.Start || v1.Duration != v2.Duration {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHMLSerialize(b *testing.B) {
	doc := Figure2()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Serialize(doc)
	}
}
