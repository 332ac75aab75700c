package scenario

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func mustParse(t *testing.T, src string) *Scenario {
	t.Helper()
	sc, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestParseWhere(t *testing.T) {
	x, y, err := ParseWhere("10, 20")
	if err != nil || x != 10 || y != 20 {
		t.Fatalf("ParseWhere = %d,%d,%v", x, y, err)
	}
	for _, bad := range []string{"", "10", "a,b", "1,2,3"} {
		if _, _, err := ParseWhere(bad); err == nil {
			t.Errorf("ParseWhere(%q) accepted", bad)
		}
	}
}

func TestRegionBasics(t *testing.T) {
	a := Region{X: 0, Y: 0, W: 100, H: 100}
	b := Region{X: 50, Y: 50, W: 100, H: 100}
	c := Region{X: 100, Y: 0, W: 10, H: 10}
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Fatal("overlap not detected")
	}
	if a.Overlaps(c) { // touching edges do not overlap
		t.Fatal("edge touch counted as overlap")
	}
	if !(Region{W: 0, H: 5}).Empty() || (Region{W: 1, H: 1}).Empty() {
		t.Fatal("Empty wrong")
	}
	if a.String() == "" {
		t.Fatal("String empty")
	}
}

func TestRegionOfDefaults(t *testing.T) {
	r, err := RegionOf(&Stream{})
	if err != nil || r != (Region{W: 320, H: 240}) {
		t.Fatalf("default region = %v, %v", r, err)
	}
	r, err = RegionOf(&Stream{Where: "5,6", Width: 10, Height: 20})
	if err != nil || r != (Region{X: 5, Y: 6, W: 10, H: 20}) {
		t.Fatalf("region = %v, %v", r, err)
	}
	if _, err := RegionOf(&Stream{Where: "oops"}); err == nil {
		t.Fatal("bad WHERE accepted")
	}
}

const layoutDoc = `<TITLE>layout</TITLE>
<IMG SOURCE=a ID=bg STARTIME=0 WHERE="0,0" WIDTH=640 HEIGHT=480> </IMG>
<IMG SOURCE=b ID=inset STARTIME=2 DURATION=6 WHERE="400,300" WIDTH=200 HEIGHT=150> </IMG>
<VI SOURCE=c ID=clip STARTIME=10 DURATION=5 WHERE="700,0" WIDTH=320 HEIGHT=240> </VI>`

func TestBuildLayoutAndCanvas(t *testing.T) {
	l, err := BuildLayout(mustParse(t, layoutDoc))
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Placements) != 3 {
		t.Fatalf("placements = %d", len(l.Placements))
	}
	// Canvas spans 0..1020 x 0..480.
	if l.Canvas != (Region{X: 0, Y: 0, W: 1020, H: 480}) {
		t.Fatalf("canvas = %v", l.Canvas)
	}
}

func TestLayoutConflicts(t *testing.T) {
	l, err := BuildLayout(mustParse(t, layoutDoc))
	if err != nil {
		t.Fatal(err)
	}
	// bg overlaps inset spatially and both are visible from t=2s; clip is
	// spatially disjoint.
	cons := l.Conflicts()
	if len(cons) != 1 {
		t.Fatalf("conflicts = %+v", cons)
	}
	if cons[0].A != "bg" || cons[0].B != "inset" || cons[0].From != 2*time.Second {
		t.Fatalf("conflict = %+v", cons[0])
	}
}

func TestLayoutNoTemporalOverlapNoConflict(t *testing.T) {
	l, err := BuildLayout(mustParse(t, `<TITLE>t</TITLE>
<IMG SOURCE=a ID=p STARTIME=0 DURATION=5 WHERE="0,0" WIDTH=100 HEIGHT=100> </IMG>
<IMG SOURCE=b ID=q STARTIME=5 DURATION=5 WHERE="0,0" WIDTH=100 HEIGHT=100> </IMG>`))
	if err != nil {
		t.Fatal(err)
	}
	if cons := l.Conflicts(); len(cons) != 0 {
		t.Fatalf("sequential placements flagged: %+v", cons)
	}
}

func TestVisibleAt(t *testing.T) {
	l, _ := BuildLayout(mustParse(t, layoutDoc))
	ids := func(t0 time.Duration) []string {
		var out []string
		for _, p := range l.VisibleAt(t0) {
			out = append(out, p.ID)
		}
		return out
	}
	if got := ids(0); len(got) != 1 || got[0] != "bg" {
		t.Fatalf("t=0: %v", got)
	}
	if got := ids(3 * time.Second); len(got) != 2 {
		t.Fatalf("t=3: %v", got)
	}
	if got := ids(12 * time.Second); len(got) != 2 || got[1] != "clip" {
		t.Fatalf("t=12: %v", got)
	}
}

func TestRenderScreen(t *testing.T) {
	l, _ := BuildLayout(mustParse(t, layoutDoc))
	out := l.RenderScreen(3*time.Second, 64, 16)
	if !strings.Contains(out, "bg") || !strings.Contains(out, "inse") {
		t.Fatalf("labels missing:\n%s", out)
	}
	if strings.Contains(out, "clip") {
		t.Fatalf("future clip drawn:\n%s", out)
	}
	out12 := l.RenderScreen(12*time.Second, 64, 16)
	if !strings.Contains(out12, "clip") {
		t.Fatalf("clip missing at t=12:\n%s", out12)
	}
	// Degenerate sizes are clamped, empty layouts render a default canvas.
	empty := &Layout{}
	if s := empty.RenderScreen(0, 1, 1); !strings.Contains(s, "desktop") {
		t.Fatalf("empty render: %q", s)
	}
}

func TestBuildLayoutBadWhere(t *testing.T) {
	_, err := BuildLayout(mustParse(t, `<TITLE>t</TITLE>
<IMG SOURCE=a ID=x WHERE="nope"> </IMG>`))
	if err == nil {
		t.Fatal("bad WHERE accepted")
	}
}

// Property: Overlaps is symmetric and a region always overlaps itself when
// non-empty.
func TestQuickOverlapSymmetry(t *testing.T) {
	f := func(ax, ay int8, aw, ah uint8, bx, by int8, bw, bh uint8) bool {
		a := Region{X: int(ax), Y: int(ay), W: int(aw) + 1, H: int(ah) + 1}
		b := Region{X: int(bx), Y: int(by), W: int(bw) + 1, H: int(bh) + 1}
		if a.Overlaps(b) != b.Overlaps(a) {
			return false
		}
		return a.Overlaps(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLayoutResolvesAfterTiming(t *testing.T) {
	l, err := BuildLayout(mustParse(t, `<TITLE>t</TITLE>
<IMG SOURCE=a ID=first STARTIME=0 DURATION=5 WHERE="0,0" WIDTH=100 HEIGHT=100> </IMG>
<IMG SOURCE=b ID=second AFTER=first DURATION=5 WHERE="0,0" WIDTH=100 HEIGHT=100> </IMG>`))
	if err != nil {
		t.Fatal(err)
	}
	// Same region, but sequential via AFTER: no conflict.
	if cons := l.Conflicts(); len(cons) != 0 {
		t.Fatalf("AFTER-sequenced placements flagged: %+v", cons)
	}
	// The second placement's resolved window is 5–10s.
	for _, p := range l.Placements {
		if p.ID == "second" && (p.Start != 5*time.Second || p.End() != 10*time.Second) {
			t.Fatalf("second = %+v", p)
		}
	}
}

func TestLayoutAfterCycleRejected(t *testing.T) {
	_, err := Parse(`<TITLE>t</TITLE>
<IMG SOURCE=a ID=p AFTER=q DURATION=1> </IMG>
<IMG SOURCE=b ID=q AFTER=p DURATION=1> </IMG>`)
	if err == nil {
		t.Fatal("cycle accepted by the scenario build")
	}
}
