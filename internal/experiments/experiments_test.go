package experiments

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// row extracts a rendered table's data rows as trimmed cell slices, which is
// crude but keeps the assertions against exactly what the harness prints.
func rows(t *testing.T, s string) [][]string {
	t.Helper()
	var out [][]string
	lines := strings.Split(strings.TrimSpace(s), "\n")
	dataStart := 0
	for i, l := range lines {
		if strings.HasPrefix(l, "---") {
			dataStart = i + 1
			break
		}
	}
	for _, l := range lines[dataStart:] {
		out = append(out, strings.Fields(l))
	}
	return out
}

func numAt(t *testing.T, cells []string, i int) float64 {
	t.Helper()
	v := strings.TrimSuffix(strings.TrimSuffix(cells[i], "ms"), "%")
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		t.Fatalf("cell %d = %q: %v", i, cells[i], err)
	}
	return f
}

func TestF1GrammarCorpusAllRoundTrip(t *testing.T) {
	tb, err := F1Grammar()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rows(t, tb.String())); n < 10 {
		t.Fatalf("corpus rows = %d", n)
	}
	if strings.Contains(tb.String(), "CHANGED") {
		t.Fatalf("round trip changed structure:\n%s", tb)
	}
}

func TestF2TimelineMatchesFigure(t *testing.T) {
	chart, tb, err := F2Timeline()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(chart, "I1") || !strings.Contains(chart, "link") {
		t.Fatalf("chart:\n%s", chart)
	}
	if n := len(rows(t, tb.String())); n != 5 {
		t.Fatalf("schedule rows = %d", n)
	}
}

func TestF3EndToEndCleanLAN(t *testing.T) {
	_, res, err := F3EndToEnd(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.QualityScore() < 0.9 {
		t.Fatalf("clean LAN quality = %v", res.QualityScore())
	}
}

func TestF4ProtocolFullCoverage(t *testing.T) {
	if _, err := F4Protocol(); err != nil {
		t.Fatal(err)
	}
}

func TestF5StackShape(t *testing.T) {
	_, split, err := F5StackSplit(1)
	if err != nil {
		t.Fatal(err)
	}
	// Video dominates bytes; audio < video; control is a small fraction;
	// feedback non-zero; stills present.
	if split.VideoBytes <= split.AudioBytes {
		t.Fatalf("video %d ≤ audio %d", split.VideoBytes, split.AudioBytes)
	}
	if split.StillBytes == 0 || split.FeedbackBytes == 0 {
		t.Fatalf("stills %d feedback %d", split.StillBytes, split.FeedbackBytes)
	}
	total := split.ControlBytes + split.StillBytes + split.AVBytes
	if float64(split.ControlBytes)/float64(total) > 0.1 {
		t.Fatalf("control share = %d/%d", split.ControlBytes, total)
	}
}

func TestE1WindowAbsorbsJitter(t *testing.T) {
	tb, err := E1TimeWindow(1, false)
	if err != nil {
		t.Fatal(err)
	}
	rs := rows(t, tb.String())
	// Build map window→jitter→gaps.
	gaps := map[string]map[string]float64{}
	for _, r := range rs {
		w, j := r[0], r[1]
		if gaps[w] == nil {
			gaps[w] = map[string]float64{}
		}
		gaps[w][j] = numAt(t, r, 2)
	}
	// At a 400ms surge: a large window must beat a tiny one decisively.
	small := gaps["80.0ms"]["400.0ms"]
	large := gaps["1000.0ms"]["400.0ms"]
	if small < 100 || large >= small/4 {
		t.Fatalf("window did not absorb the surge: 80ms→%v gaps, 1000ms→%v gaps\n%s", small, large, tb)
	}
	// Gaps shrink monotonically with window at the 800ms surge.
	prev := -1.0
	for _, w := range []string{"80.0ms", "250.0ms", "500.0ms", "1000.0ms"} {
		g := gaps[w]["800.0ms"]
		if prev >= 0 && g > prev {
			t.Fatalf("gaps not decreasing with window at 800ms surge\n%s", tb)
		}
		prev = g
	}
	// With no surge even a small window is gap-free.
	if g := gaps["250.0ms"]["0.0ms"]; g > 20 {
		t.Fatalf("clean network gaps = %v\n%s", g, tb)
	}
}

func TestE2SkewControlBoundsSkew(t *testing.T) {
	tb, err := E2SkewControl(1)
	if err != nil {
		t.Fatal(err)
	}
	rs := rows(t, tb.String())
	if len(rs) != 2 {
		t.Fatalf("rows:\n%s", tb)
	}
	offP95, onP95 := numAt(t, rs[0], 1+1), numAt(t, rs[1], 1+1)
	if onP95 >= offP95 {
		t.Fatalf("skew control did not help: off p95=%v on p95=%v\n%s", offP95, onP95, tb)
	}
	onDrops := numAt(t, rs[1], 4)
	if onDrops == 0 {
		t.Fatalf("control on but no drops\n%s", tb)
	}
}

func TestE3GradingReducesLoss(t *testing.T) {
	tb, err := E3Grading(1)
	if err != nil {
		t.Fatal(err)
	}
	rs := rows(t, tb.String())
	offLoss, onLoss := numAt(t, rs[0], 1), numAt(t, rs[1], 1)
	if onLoss >= offLoss {
		t.Fatalf("grading did not reduce loss: off=%v on=%v\n%s", offLoss, onLoss, tb)
	}
	// Degrades happen only with grading on, and hit video first.
	if deg := numAt(t, rs[1], 3); deg == 0 {
		t.Fatalf("no degrades with grading on\n%s", tb)
	}
	if rs[1][4] != "v" {
		t.Fatalf("first degrade = %q, want v\n%s", rs[1][4], tb)
	}
	if deg := numAt(t, rs[0], 3); deg != 0 {
		t.Fatalf("degrades with grading off\n%s", tb)
	}
}

func TestE4CombinedBeatsBaseline(t *testing.T) {
	tb, err := E4Combined(1)
	if err != nil {
		t.Fatal(err)
	}
	rs := rows(t, tb.String())
	if len(rs) != 4 {
		t.Fatalf("rows:\n%s", tb)
	}
	// Rows in order: off/off, off/on, on/off, on/on.
	baseline := numAt(t, rs[0], 2)
	combined := numAt(t, rs[3], 2)
	if combined <= baseline {
		t.Fatalf("combined (%v) did not beat baseline (%v)\n%s", combined, baseline, tb)
	}
}

func TestE5PremiumIsServedUnderOverload(t *testing.T) {
	tb, err := E5Admission(1)
	if err != nil {
		t.Fatal(err)
	}
	rs := rows(t, tb.String())
	// At 2.0× load: premium rejection rate must be far below economy's.
	var ecoAdm, ecoRej, premAdm, premRej float64
	for _, r := range rs {
		if r[0] != "2.0×" {
			continue
		}
		switch r[1] {
		case "economy":
			ecoAdm, ecoRej = numAt(t, r, 2), numAt(t, r, 4)
		case "premium":
			premAdm, premRej = numAt(t, r, 2), numAt(t, r, 4)
		}
	}
	ecoRate := ecoRej / (ecoAdm + ecoRej + 1)
	premRate := premRej / (premAdm + premRej + 1)
	if premRate >= ecoRate {
		t.Fatalf("premium rejected as often as economy: %v vs %v\n%s", premRate, ecoRate, tb)
	}
}

func TestE6StartupTradeoff(t *testing.T) {
	tb, err := E6Startup(1)
	if err != nil {
		t.Fatal(err)
	}
	rs := rows(t, tb.String())
	// Startup grows with window; gaps shrink.
	firstStartup := numAt(t, rs[0], 1)
	lastStartup := numAt(t, rs[len(rs)-1], 1)
	if lastStartup <= firstStartup {
		t.Fatalf("startup not increasing\n%s", tb)
	}
	firstGaps := numAt(t, rs[0], 2)
	lastGaps := numAt(t, rs[len(rs)-1], 2)
	if lastGaps >= firstGaps {
		t.Fatalf("gaps not decreasing with window: %v → %v\n%s", firstGaps, lastGaps, tb)
	}
}

func TestE7GracePreservesSession(t *testing.T) {
	tb, err := E7Suspend(1)
	if err != nil {
		t.Fatal(err)
	}
	rs := rows(t, tb.String())
	if len(rs) != 2 {
		t.Fatalf("rows:\n%s", tb)
	}
	// Within grace: kept=true, 0 re-admissions. After: kept=false, 1.
	if rs[0][2] != "true" || numAt(t, rs[0], 3) != 0 {
		t.Fatalf("within-grace row = %v\n%s", rs[0], tb)
	}
	if rs[1][2] != "false" || numAt(t, rs[1], 3) != 1 {
		t.Fatalf("after-grace row = %v\n%s", rs[1], tb)
	}
	for _, r := range rs {
		if r[4] != "browsing" {
			t.Fatalf("final state = %v\n%s", r[4], tb)
		}
	}
}

func TestE8SearchScales(t *testing.T) {
	tb, err := E8Search(1, false)
	if err != nil {
		t.Fatal(err)
	}
	rs := rows(t, tb.String())
	if len(rs) != 4 {
		t.Fatalf("rows:\n%s", tb)
	}
	// Hits equal server count (one matching lesson each).
	for _, r := range rs {
		if r[0] != r[2] {
			t.Fatalf("hits %s != servers %s\n%s", r[2], r[0], tb)
		}
	}
	// Fan-out latency stays bounded (one extra RTT, not linear blowup):
	// the 8-server search takes < 4× the single-server one.
	l1 := numAt(t, rs[0], 3)
	l8 := numAt(t, rs[3], 3)
	if l8 > 4*l1+100 {
		t.Fatalf("latency blowup: %v → %v\n%s", l1, l8, tb)
	}
}

func TestQuickVariantsRun(t *testing.T) {
	if _, err := E1TimeWindow(2, true); err != nil {
		t.Fatal(err)
	}
	if _, err := E8Search(2, true); err != nil {
		t.Fatal(err)
	}
}

func TestAvDocHelper(t *testing.T) {
	src := avDoc(12 * time.Second)
	if !strings.Contains(src, "DURATION=12") {
		t.Fatalf("avDoc = %q", src)
	}
}

func TestA1VideoFirstProtectsAudio(t *testing.T) {
	tb, err := A1DegradeOrder(1)
	if err != nil {
		t.Fatal(err)
	}
	rs := rows(t, tb.String())
	onAudio := numAt(t, rs[0], 1)
	offAudio := numAt(t, rs[1], 1)
	if onAudio >= offAudio {
		t.Fatalf("video-first did not protect audio: %v vs %v\n%s", onAudio, offAudio, tb)
	}
	if onAudio != 0 {
		t.Fatalf("audio degraded despite video headroom\n%s", tb)
	}
}

func TestA2HysteresisReducesFlapping(t *testing.T) {
	tb, err := A2Hysteresis(1)
	if err != nil {
		t.Fatal(err)
	}
	rs := rows(t, tb.String())
	shortHold := numAt(t, rs[0], 1)
	longHold := numAt(t, rs[1], 1)
	if longHold >= shortHold {
		t.Fatalf("hysteresis did not reduce grade changes: %v vs %v\n%s", longHold, shortHold, tb)
	}
}

func TestA3SafetyFactorTradeoff(t *testing.T) {
	tb, err := A3WindowSafety(1)
	if err != nil {
		t.Fatal(err)
	}
	rs := rows(t, tb.String())
	// Startup grows with safety; the smallest factor shows gaps that the
	// larger ones eliminate.
	if numAt(t, rs[len(rs)-1], 2) <= numAt(t, rs[0], 2) {
		t.Fatalf("startup not increasing with safety\n%s", tb)
	}
	if numAt(t, rs[0], 3) == 0 {
		t.Fatalf("under-provisioned window showed no gaps (disturbance too weak)\n%s", tb)
	}
	if numAt(t, rs[len(rs)-1], 3) != 0 {
		t.Fatalf("largest window still gapping\n%s", tb)
	}
}

func TestE9AdmissionCapsConcurrency(t *testing.T) {
	tb, err := E9Scale(1, false)
	if err != nil {
		t.Fatal(err)
	}
	rs := rows(t, tb.String())
	// Admitted count saturates at the capacity limit while offered load
	// keeps growing, and per-session quality stays flat.
	lastAdmitted := numAt(t, rs[len(rs)-1], 1)
	if lastAdmitted >= numAt(t, rs[len(rs)-1], 0) {
		t.Fatalf("no rejections at 2× overload\n%s", tb)
	}
	for _, r := range rs[1:] {
		if numAt(t, r, 1) != lastAdmitted && r[0] != "2" {
			if numAt(t, r, 0) > lastAdmitted {
				if numAt(t, r, 1) != lastAdmitted {
					t.Fatalf("admitted count not saturating\n%s", tb)
				}
			}
		}
	}
	// Mean plays per admitted session stays within 5% across loads.
	base := numAt(t, rs[0], 4)
	for _, r := range rs {
		if m := numAt(t, r, 4); m < base*0.95 || m > base*1.05 {
			t.Fatalf("admitted sessions degraded by overload: %v vs %v\n%s", m, base, tb)
		}
	}
}

func TestE10GradingClearsSharedUplink(t *testing.T) {
	tb, err := E10SharedUplink(1)
	if err != nil {
		t.Fatal(err)
	}
	rs := rows(t, tb.String())
	offGaps, onGaps := numAt(t, rs[0], 2), numAt(t, rs[1], 2)
	if onGaps >= offGaps/2 {
		t.Fatalf("grading did not clear the shared uplink: %v vs %v\n%s", onGaps, offGaps, tb)
	}
	offDrops, onDrops := numAt(t, rs[0], 4), numAt(t, rs[1], 4)
	if onDrops >= offDrops/2 {
		t.Fatalf("uplink drops not reduced: %v vs %v\n%s", onDrops, offDrops, tb)
	}
	if numAt(t, rs[1], 1) == 0 {
		t.Fatalf("no degrades with grading on\n%s", tb)
	}
}

// The whole harness is deterministic: the same seed renders the same
// tables byte for byte.
func TestHarnessDeterminism(t *testing.T) {
	t1, _, err := F3EndToEnd(99)
	if err != nil {
		t.Fatal(err)
	}
	t2, _, err := F3EndToEnd(99)
	if err != nil {
		t.Fatal(err)
	}
	if t1.String() != t2.String() {
		t.Fatalf("F3 diverged:\n%s\n---\n%s", t1, t2)
	}
	e1, err := E4Combined(99)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := E4Combined(99)
	if err != nil {
		t.Fatal(err)
	}
	if e1.String() != e2.String() {
		t.Fatalf("E4 diverged:\n%s\n---\n%s", e1, e2)
	}
}
