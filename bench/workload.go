package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"time"

	"repro/internal/media"
	"repro/internal/scenario"
)

// workload is one fixed scenario. Every repetition of a run replays it
// exactly: same seed, same plan, same simulated outcome.
type workload struct {
	name string
	why  string

	viewers int
	rate    float64 // open-loop Poisson arrivals per simulated second
	servers int     // 1 = standalone server, 3 = cluster.New federation
	shared  bool    // server.Options.SharedFlows
	media   bool    // viewers request a lesson (false = control plane only)

	// think is the pause between Connect and the viewer's next click.
	think time.Duration
	// hold is how long a control-only session heartbeats before leaving.
	hold time.Duration
	// killAt crashes srv1 this long after the first arrival (0 = never);
	// horizon then ends the run at a fixed offset instead of at the last
	// viewer's departure, and every viewer must be viewing when it does.
	killAt  time.Duration
	horizon time.Duration

	// minPresented is the share of its expected frames every started viewer
	// must present in the check repetition (0 = not asserted).
	minPresented float64
}

// The four workloads. One repetition costs 0.7–2 s of host time on a 2-core
// host, so a run (check repetition + at least minReps timed ones) fits the
// ~35 s the driver's schedule leaves per run.
var workloads = []workload{
	{
		name:    "lecture_private",
		why:     "steady-state data plane: one encode and one netsim.Send per viewer-frame; emit, reassembly and playout do the work",
		viewers: 200, rate: 40, servers: 1, media: true,
		think: time.Second, minPresented: 0.95,
	},
	{
		// A viewer who joins a flow already in progress misses its head
		// (the late-join patch covers 16 frames), so the per-viewer floor
		// only catches a viewer who saw less than half; the loss itself is
		// what miss_ratio reports here.
		name:    "lecture_shared",
		why:     "same population and demand with SharedFlows on: one encode per flow, SendMulti fan-out, late-join patches",
		viewers: 200, rate: 40, servers: 1, media: true, shared: true,
		think: time.Second, minPresented: 0.5,
	},
	{
		name:    "connect_storm",
		why:     "control plane only: auth, admission, topic list, heartbeats, disconnect; data-plane changes must read no change",
		viewers: 8000, rate: 1000, servers: 1,
		think: 250 * time.Millisecond, hold: 4 * time.Second,
	},
	{
		name:    "flash_failover",
		why:     "the slow path: watermark redirects, signed handoffs, WAN congestion grading, and a server kill with failover",
		viewers: 240, rate: 40, servers: 3, media: true,
		think: time.Second, killAt: 9 * time.Second, horizon: 24 * time.Second,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// lesson is one catalogue entry, with what the harness needs to know about
// it: how long it plays and how many frames are due over that time.
type lesson struct {
	name   string
	src    string
	length time.Duration
	frames int64
}

// viewerPlan is what one viewer will do, fixed before the clock starts.
type viewerPlan struct {
	arrive time.Duration // offset of Client.Connect from the run's start
	doc    int           // catalogue index (-1 = no document)
	wan    bool          // behind a DefaultWAN link with a congestion phase
}

// plan is the generated input of a run: the catalogue, the arrival
// schedule, and the seed of the simulated network's randomness.
type plan struct {
	catalogue []lesson
	// satellite is the catalogue index of the lesson homed on the last
	// server only (-1 = every lesson is everywhere).
	satellite int
	viewers   []viewerPlan
	netSeed   uint64
}

// variants is how many renamed copies join the three real lessons, so that
// Zipf demand spreads over eight documents and flows do not collapse.
const variants = 5

var idAttr = regexp.MustCompile(`\b(ID|AFTER)=([A-Za-z0-9_.-]+)`)

// loadLessons reads lessons/*.hml from dir (the repository root).
func loadLessons(dir string) ([]lesson, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "lessons", "*.hml"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		return nil, fmt.Errorf("no lessons/*.hml under %s", dir)
	}
	var out []lesson
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		name := filepath.Base(p)
		l := lesson{name: name[:len(name)-len(".hml")], src: string(b)}
		sc, err := scenario.Parse(l.src)
		if err != nil {
			return nil, fmt.Errorf("lesson %s: %w", l.name, err)
		}
		l.length = sc.Length()
		for _, st := range sc.TimedStreams() {
			if st.Type.TimeSensitive() {
				l.frames += int64(st.Duration / media.ForStream(st).FrameInterval())
			} else {
				l.frames++
			}
		}
		out = append(out, l)
	}
	return out, nil
}

// variant is a seed-renamed copy of a lesson: same structure, but a document
// name and stream IDs of its own, so it is a distinct flow with distinct
// media content.
func variant(b lesson, k int, seed uint64) lesson {
	tag := fmt.Sprintf("v%d-%04x", k, seed&0xffff)
	v := b // same timeline, so same length and frames
	v.name = b.name + "." + tag
	v.src = idAttr.ReplaceAllString(b.src, "${1}=${2}."+tag)
	return v
}

// lectureCatalogue is the real lessons followed by their variants.
func lectureCatalogue(base []lesson, seed uint64) []lesson {
	cat := append([]lesson(nil), base...)
	for k := 0; k < variants; k++ {
		cat = append(cat, variant(base[k%len(base)], k+1, seed))
	}
	return cat
}

// failoverCatalogue is the lessons long enough that the kill lands
// mid-playout for everyone, plus a variant of the longest as the satellite.
func failoverCatalogue(base []lesson, seed uint64, outlast time.Duration) ([]lesson, error) {
	var cat []lesson
	longest := -1
	for _, l := range base {
		if l.length > outlast {
			if longest < 0 || l.length > cat[longest].length {
				longest = len(cat)
			}
			cat = append(cat, l)
		}
	}
	if longest < 0 {
		return nil, fmt.Errorf("no lesson outlasts the %v horizon", outlast)
	}
	return append(cat, variant(cat[longest], 1, seed)), nil
}

// zipfQuotas splits n viewers over k ranks in Zipf(s=1) proportion by
// largest remainder. Quotas, not independent draws: every seed then offers
// the same total demand and only who-watches-what-when differs, which keeps
// host-time metrics comparable across seeds.
func zipfQuotas(n, k int) []int {
	var h float64
	for r := 1; r <= k; r++ {
		h += 1 / float64(r)
	}
	quota := make([]int, k)
	type rem struct {
		rank int
		frac float64
	}
	rems := make([]rem, k)
	left := n
	for r := 0; r < k; r++ {
		exact := float64(n) / (float64(r+1) * h)
		quota[r] = int(math.Floor(exact))
		left -= quota[r]
		rems[r] = rem{r, exact - math.Floor(exact)}
	}
	sort.SliceStable(rems, func(i, j int) bool { return rems[i].frac > rems[j].frac })
	for i := 0; i < left; i++ {
		quota[rems[i].rank]++
	}
	return quota
}

// makePlan generates the run's inputs from the seed alone. The generator is
// math/rand's, whose sequence for a seed is frozen by Go's compatibility
// promise: the benchmark's inputs must not move when the product's own RNG
// does.
func makePlan(w workload, base []lesson, seed uint64) (plan, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	p := plan{netSeed: rng.Uint64(), satellite: -1, viewers: make([]viewerPlan, w.viewers)}

	// Independent viewers: exponential gaps, generated up front.
	var t float64
	for i := range p.viewers {
		t += rng.ExpFloat64() / w.rate
		p.viewers[i] = viewerPlan{arrive: time.Duration(t * float64(time.Second)), doc: -1}
	}
	if w.servers == 1 {
		p.catalogue = lectureCatalogue(base, seed)
	} else {
		var err error
		if p.catalogue, err = failoverCatalogue(base, seed, w.horizon); err != nil {
			return p, err
		}
		p.satellite = len(p.catalogue) - 1
	}
	if !w.media {
		return p, nil
	}

	// Zipf demand by quota over the lessons every server holds, dealt to
	// viewers in a seeded shuffle; in the federation every fourth viewer
	// wants the satellite instead.
	docs := make([]int, 0, w.viewers)
	replicated, crowd := len(p.catalogue), w.viewers
	if p.satellite >= 0 {
		replicated--
		crowd -= w.viewers / 4
	}
	for rank, q := range zipfQuotas(crowd, replicated) {
		for j := 0; j < q; j++ {
			docs = append(docs, rank)
		}
	}
	for len(docs) < w.viewers {
		docs = append(docs, p.satellite)
	}
	rng.Shuffle(len(docs), func(i, j int) { docs[i], docs[j] = docs[j], docs[i] })
	for i := range p.viewers {
		p.viewers[i].doc = docs[i]
	}
	if w.servers > 1 {
		// One third of the crowd sits behind wide-area links.
		for _, i := range rng.Perm(w.viewers)[:w.viewers/3] {
			p.viewers[i].wan = true
		}
	}
	return p, nil
}
