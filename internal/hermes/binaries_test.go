package hermes

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/netsim"
	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite testdata/tour.* from what the binaries print")

// tourScript walks the browser through a session: it pauses the first
// lesson before it starts, then waits long enough for that lesson's timed
// link to open the second and for the second to play out.
const tourScript = "topics; get tour-L1; pause; wait 1s; resume; wait 8s; report; history; quit"

// tourSlide is the one slide of each tour lesson; its audio and video last
// a second less.
const tourSlide = 2 * time.Second

// tour is what one run of hermesd serving a browser running tourScript
// left behind.
type tour struct {
	serverOut, browserOut, browserErr, trace string
}

// runTour starts hermesd on a course of two one-slide lessons and, as its
// Serve, runs hermes with tourScript, both on clk over the networks that
// netFor opens. The hosts are not the binaries' defaults, so a hermesd
// running on the same machine does not hold their loopback addresses.
func runTour(t *testing.T, clk clock.Clock, netFor func(*obs.Scope, string) (netsim.Net, func(), error), wait func(time.Duration, func() bool) bool) tour {
	t.Helper()
	dir := t.TempDir()
	for _, l := range MakeCourse("tour", 2, 1, tourSlide) {
		if err := os.WriteFile(filepath.Join(dir, l.Name+".hml"), []byte(l.Source), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	tracePath := filepath.Join(dir, "trace.jsonl")
	var srvOut, srvErr, brOut, brErr bytes.Buffer
	var brRun error
	env := Env{Clock: clk, Net: netFor, Wait: wait, Stdout: &srvOut, Stderr: &srvErr}
	env.Serve = func() {
		benv := env
		benv.Stdout, benv.Stderr = &brOut, &brErr
		brRun = RunBrowser([]string{"hermes", "-server", "tour-server", "-name", "tour-browser",
			"-script", tourScript, "-trace", tracePath}, benv)
	}
	if err := RunServer([]string{"hermesd", "-name", "tour-server", "-lessons", dir, "-metrics-every", "5s"}, env); err != nil {
		t.Fatalf("hermesd: %v\n%s", err, srvErr.String())
	}
	if brRun != nil {
		t.Fatalf("hermes: %v\n%s", brRun, brErr.String())
	}
	if srvErr.Len() > 0 {
		t.Errorf("hermesd wrote to stderr:\n%s", srvErr.String())
	}
	trace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	return tour{srvOut.String(), brOut.String(), brErr.String(), string(trace)}
}

// maskTables replaces each telemetry table, from its "== title ==" line to
// the binary's next line of its own, by its title: the tables hold
// wall-time histograms. It fails the test when out holds none.
func maskTables(t *testing.T, name, out string) string {
	t.Helper()
	var b strings.Builder
	masking, n := false, 0
	for _, line := range strings.SplitAfter(out, "\n") {
		if strings.HasPrefix(line, "== ") {
			masking, n = true, n+1
			b.WriteString(strings.TrimSuffix(line, "\n") + " (rows not pinned)\n")
			continue
		}
		if masking && strings.HasPrefix(line, "hermes") {
			masking = false
		}
		if !masking {
			b.WriteString(line)
		}
	}
	if n == 0 {
		t.Errorf("%s printed no telemetry table:\n%s", name, out)
	}
	return b.String()
}

// virtualWait is Env.Wait on a virtual clock: it runs the clock in 20 ms
// steps, as Poll checks, until cond holds or d has passed.
func virtualWait(clk *clock.Virtual) func(time.Duration, func() bool) bool {
	return func(d time.Duration, cond func() bool) bool {
		end := clk.Now().Add(d)
		for !cond() {
			left := end.Sub(clk.Now())
			if left <= 0 {
				return false
			}
			clk.RunFor(min(left, 20*time.Millisecond))
		}
		return true
	}
}

// virtualTour runs the tour over a seeded simulated LAN on a virtual clock.
func virtualTour(t *testing.T) tour {
	clk := clock.NewSim()
	network := netsim.New(clk, 1)
	network.SetDefaultLink(netsim.DefaultLAN())
	sim := func(*obs.Scope, string) (netsim.Net, func(), error) { return network, func() {}, nil }
	return runTour(t, clk, sim, virtualWait(clk))
}

// TestBinariesOnVirtualClock runs hermesd and hermes over the simulated
// network. Their stdouts, the telemetry tables masked, and the browser's
// -trace are pinned byte for byte; a change that moves them on purpose
// reruns with -update and says why.
func TestBinariesOnVirtualClock(t *testing.T) {
	got := virtualTour(t)
	if !strings.Contains(got.browserErr, "== metrics ==") {
		t.Errorf("hermes printed no telemetry table on stderr:\n%s", got.browserErr)
	}
	if !strings.Contains(got.browserOut, "2. tour-L2") {
		t.Errorf("the tour never reached the linked lesson:\n%s", got.browserOut)
	}
	for _, f := range []struct{ golden, got string }{
		{"testdata/tour.hermesd.txt", maskTables(t, "hermesd", got.serverOut)},
		{"testdata/tour.hermes.txt", got.browserOut},
		{"testdata/tour.trace.jsonl", got.trace},
	} {
		if *update {
			if err := os.WriteFile(f.golden, []byte(f.got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(f.golden)
		if err != nil {
			t.Fatal(err)
		}
		if f.got != string(want) {
			gl, wl := strings.Split(f.got, "\n"), strings.Split(string(want), "\n")
			i := 0
			for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
				i++
			}
			t.Errorf("%s differs at line %d (-update rewrites it):\n got: %q\nwant: %q",
				f.golden, i+1, gl[i:min(i+1, len(gl))], wl[i:min(i+1, len(wl))])
		}
	}
}

// timing matches the output lines that depend on how the clock ran: the
// report's per-stream and skew lines, the startup delay and the periodic
// telemetry dumps.
var timing = regexp.MustCompile(`plays +\d+/|skew μ=|startup delay|^hermesd: telemetry`)

// lifecycle is out without its timing lines.
func lifecycle(out string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(out, "\n") {
		if !timing.MatchString(line) {
			b.WriteString(line)
		}
	}
	return b.String()
}

// playLine parses one stream line of the browser's report.
var playLine = regexp.MustCompile(`(?m)^(\S+) +plays +(\d+)/ *(\d+) +gaps +\d+ +drops +(\d+) +holds +\d+ +late μ=[\d.]+ms max=([\d.]+)ms$`)

// TestBinariesOnWallClock runs the same tour over real loopback sockets on
// the wall clock, as the live binaries do. Every line that does not depend
// on timing equals the virtual run's. Every frame a stream was owed must be
// played, dropped by the player on purpose, or still owed because the
// player fell behind: its last plays ran up to its worst lateness behind.
func TestBinariesOnWallClock(t *testing.T) {
	if testing.Short() {
		t.Skip("live sockets in -short mode")
	}
	want := virtualTour(t)
	got := runTour(t, clock.NewWall(), Live, Poll)
	for _, out := range []struct{ name, got, want string }{
		{"hermesd", maskTables(t, "hermesd", got.serverOut), maskTables(t, "hermesd", want.serverOut)},
		{"hermes", got.browserOut, want.browserOut},
	} {
		if g, w := lifecycle(out.got), lifecycle(out.want); g != w {
			t.Errorf("%s lifecycle lines differ from the virtual clock's:\n got:\n%s\nwant:\n%s", out.name, g, w)
		}
	}
	streams := playLine.FindAllStringSubmatch(got.browserOut, -1)
	if len(streams) != 3 {
		t.Fatalf("report has %d stream lines, want the second lesson's 3:\n%s", len(streams), got.browserOut)
	}
	for _, m := range streams {
		plays, _ := strconv.Atoi(m[2])
		expected, _ := strconv.Atoi(m[3])
		drops, _ := strconv.Atoi(m[4])
		maxLate, _ := strconv.ParseFloat(m[5], 64)
		behind := 0
		if expected > 1 {
			// The slide's audio and video run for tourSlide - 1s; one
			// frame more may fall at the stream's end.
			interval := float64((tourSlide-time.Second)/time.Millisecond) / float64(expected)
			behind = int(math.Ceil(maxLate/interval)) + 1
		}
		if plays > expected || plays+drops+behind < expected {
			t.Errorf("%s plays %d/%d with %d drops and %.1f ms max lateness (%d frames behind)",
				m[1], plays, expected, drops, maxLate, behind)
		}
	}
}
