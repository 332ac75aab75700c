package hml

import (
	"strings"
	"testing"
	"time"
)

func validDoc() *Document {
	return MustParse(Figure2Source)
}

func TestValidateAcceptsCorpus(t *testing.T) {
	for name, src := range GrammarCorpus() {
		d := MustParse(src)
		// The tiny corpus entries without SOURCE on links etc. are still
		// valid; only check the ones with media.
		if err := Validate(d); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestValidateMissingTitle(t *testing.T) {
	d := validDoc()
	d.Title = "   "
	err := Validate(d)
	if err == nil || !strings.Contains(err.Error(), "title") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateDuplicateIDs(t *testing.T) {
	d := MustParse(`<TITLE>t</TITLE>
<IMG SOURCE=a ID=x STARTIME=0 DURATION=1> </IMG>
<IMG SOURCE=b ID=x STARTIME=1 DURATION=1> </IMG>`)
	err := Validate(d)
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateMissingID(t *testing.T) {
	d := MustParse(`<TITLE>t</TITLE><IMG SOURCE=a STARTIME=0> </IMG>`)
	err := Validate(d)
	if err == nil || !strings.Contains(err.Error(), "missing ID") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateMissingSource(t *testing.T) {
	d := MustParse(`<TITLE>t</TITLE><AU ID=a STARTIME=0 DURATION=5> </AU>`)
	err := Validate(d)
	if err == nil || !strings.Contains(err.Error(), "SOURCE") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateStreamNeedsDuration(t *testing.T) {
	d := MustParse(`<TITLE>t</TITLE><VI SOURCE=v ID=v STARTIME=0> </VI>`)
	err := Validate(d)
	if err == nil || !strings.Contains(err.Error(), "DURATION") {
		t.Fatalf("err = %v", err)
	}
	// An image with no duration (open-ended still) is fine.
	d2 := MustParse(`<TITLE>t</TITLE><IMG SOURCE=i ID=i STARTIME=0> </IMG>`)
	if err := Validate(d2); err != nil {
		t.Fatalf("open-ended image rejected: %v", err)
	}
}

func TestValidateAuViMismatchedTiming(t *testing.T) {
	d := validDoc()
	for _, it := range d.Items() {
		if av, ok := it.(*AudioVideo); ok {
			av.Video.Duration += time.Second
		}
	}
	err := Validate(d)
	if err == nil || !strings.Contains(err.Error(), "different durations") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateNegativeTimes(t *testing.T) {
	d := validDoc()
	for _, it := range d.Items() {
		if img, ok := it.(*Image); ok {
			img.Start = -time.Second
			break
		}
	}
	err := Validate(d)
	if err == nil || !strings.Contains(err.Error(), "negative STARTIME") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateLinkTarget(t *testing.T) {
	d := validDoc()
	d.Links()[0].Target = ""
	err := Validate(d)
	if err == nil || !strings.Contains(err.Error(), "hyperlink") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateAggregatesMultipleProblems(t *testing.T) {
	d := MustParse(`<TITLE>t</TITLE>
<IMG ID=x STARTIME=0> </IMG>
<IMG ID=x STARTIME=0> </IMG>`)
	err := Validate(d)
	ve, ok := err.(*ValidationError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if len(ve.Problems) < 3 { // two missing sources + one duplicate id
		t.Fatalf("problems = %v", ve.Problems)
	}
}

func TestStatisticsCounts(t *testing.T) {
	st := Statistics(Figure2())
	// The <SEP> closes the first sentence, so the trailing links form a
	// second one.
	want := Stats{
		Sentences: 2, Headings: 1, Texts: 1,
		Images: 2, Audios: 1, Videos: 0, SyncGroups: 1,
		Links: 2, TimedLinks: 1,
		Chars: st.Chars, // free-form
	}
	if st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
	if st.Chars == 0 {
		t.Fatal("no text chars counted")
	}
}

func TestValidateAfterReferences(t *testing.T) {
	// Forward reference is fine.
	d := MustParse(`<TITLE>t</TITLE>
<IMG SOURCE=a ID=x AFTER=y DURATION=1> </IMG>
<IMG SOURCE=b ID=y STARTIME=0 DURATION=1> </IMG>`)
	if err := Validate(d); err != nil {
		t.Fatalf("forward AFTER rejected: %v", err)
	}
	// Unknown target.
	d2 := MustParse(`<TITLE>t</TITLE><IMG SOURCE=a ID=x AFTER=ghost> </IMG>`)
	if err := Validate(d2); err == nil || !strings.Contains(err.Error(), "unknown media") {
		t.Fatalf("err = %v", err)
	}
	// Self reference.
	d3 := MustParse(`<TITLE>t</TITLE><IMG SOURCE=a ID=x AFTER=x> </IMG>`)
	if err := Validate(d3); err == nil || !strings.Contains(err.Error(), "itself") {
		t.Fatalf("err = %v", err)
	}
}

func TestAfterSurvivesSerialization(t *testing.T) {
	d := MustParse(GrammarCorpus()["after-chain"])
	d2 := MustParse(Serialize(d))
	var found bool
	for _, it := range d2.Items() {
		if img, ok := it.(*Image); ok && img.ID == "rb" {
			found = true
			if img.After != "ra" {
				t.Fatalf("AFTER lost: %+v", img.Media)
			}
		}
	}
	if !found {
		t.Fatal("rb missing after round trip")
	}
}
