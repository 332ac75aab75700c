package main

import (
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/netsim"
)

func TestTailRule(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	cases := []struct {
		n     int
		level float64
	}{
		{15, 0}, // not even the median has ten samples beyond it
		{19, 0},
		{20, 50},
		{39, 50},
		{40, 75},
		{99, 75},
		{100, 90},
		{200, 95},
		{1000, 99},
		{9999, 99},
		{10000, 99.9},
	}
	for _, c := range cases {
		xs := ramp(c.n)
		v, level := tail(xs)
		if level != c.level {
			t.Errorf("n=%d: level p%g, want p%g", c.n, level, c.level)
		}
		p := c.level
		if p == 0 {
			p = 50
		}
		if want := percentile(xs, p); v != want {
			t.Errorf("n=%d: value %g, want %g", c.n, v, want)
		}
		if beyond := c.n * (1000 - int(level*10)) / 1000; level > 0 && beyond < tailBeyond {
			t.Errorf("n=%d: only %d samples beyond p%g", c.n, beyond, level)
		}
	}
	if v, level := tail(nil); !math.IsNaN(v) || level != 0 {
		t.Errorf("no samples: got %g at p%g", v, level)
	}
}

func testLessons(t *testing.T) []lesson {
	t.Helper()
	base, err := loadLessons("..")
	if err != nil {
		t.Fatal(err)
	}
	return base
}

func TestPlanFollowsSeed(t *testing.T) {
	base := testLessons(t)
	for _, wl := range workloads {
		a, err := makePlan(wl, base, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := makePlan(wl, base, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, different plan", wl.name)
		}
		c, _ := makePlan(wl, base, 8)
		if reflect.DeepEqual(a.viewers, c.viewers) || a.netSeed == c.netSeed {
			t.Errorf("%s: different seed, same schedule", wl.name)
		}
		// Same demand whatever the seed: only who watches what when moves.
		count := func(p plan) map[int]int {
			m := map[int]int{}
			for _, v := range p.viewers {
				m[v.doc]++
			}
			return m
		}
		if !reflect.DeepEqual(count(a), count(c)) {
			t.Errorf("%s: demand per lesson differs between seeds", wl.name)
		}
		for i := 1; i < len(a.viewers); i++ {
			if a.viewers[i].arrive < a.viewers[i-1].arrive {
				t.Fatalf("%s: arrivals out of order", wl.name)
			}
		}
	}
}

func TestZipfQuotas(t *testing.T) {
	q := zipfQuotas(200, 8)
	sum := 0
	for i, n := range q {
		sum += n
		if i > 0 && n > q[i-1] {
			t.Errorf("rank %d has %d viewers, more than rank %d's %d", i+1, n, i, q[i-1])
		}
	}
	if sum != 200 {
		t.Errorf("quotas sum to %d", sum)
	}
	if q[0] != 74 { // 200 / H(8) = 73.6
		t.Errorf("rank 1 gets %d of 200", q[0])
	}
}

// fakeTime is a hand-advanced time source for the tracer.
type fakeTime struct{ t time.Time }

func (f *fakeTime) now() time.Time       { return f.t }
func (f *fakeTime) pass(d time.Duration) { f.t = f.t.Add(d) }
func newFakeTracer() (*tracer, *fakeTime) {
	f := &fakeTime{t: time.Unix(0, 0)}
	tr := newTracer()
	tr.now = f.now
	return tr, f
}

func TestSpanSelfTime(t *testing.T) {
	tr, f := newFakeTracer()
	tr.start()
	f.pass(5) // clock pops the first event

	// deliver{ 10 | ctrl{ 20 | send{ 30 } | 40 | send{ 50 } } | 60 }: the
	// same layer (netsim.send) twice under one parent, nested three deep.
	tr.begin()
	f.pass(10)
	tr.begin()
	f.pass(20)
	tr.begin()
	f.pass(30)
	tr.end(fixed(lNetSend))
	f.pass(40)
	tr.begin()
	f.pass(50)
	tr.end(fixed(lNetSend))
	tr.end(fixed(lServerCtrl))
	f.pass(60)
	tr.end(fixed(lNetDeliver))

	f.pass(7) // gap before the next event
	// Re-entrant: a deliver span inside a deliver span.
	tr.begin()
	f.pass(1)
	tr.begin()
	f.pass(2)
	tr.end(fixed(lNetDeliver))
	f.pass(3)
	tr.end(fixed(lNetDeliver))
	f.pass(4)
	tr.stop()
	total := tr.accounted()

	want := map[layer]layerStat{
		lClock:      {n: 2, self: 5 + 7 + 4},
		lNetSend:    {n: 2, self: 30 + 50},
		lServerCtrl: {n: 1, self: 20 + 40},
		lNetDeliver: {n: 3, self: 10 + 60 + 1 + 3 + 2},
	}
	for l, w := range want {
		if got := tr.layers[l]; got != w {
			t.Errorf("%s: got n=%d self=%d, want n=%d self=%d", layerNames[l], got.n, got.self, w.n, w.self)
		}
	}
	if wall := time.Duration(5 + 10 + 20 + 30 + 40 + 50 + 60 + 7 + 1 + 2 + 3 + 4); total != wall {
		t.Errorf("accounted %d of %d ns", total, wall)
	}
}

func TestTimerClassification(t *testing.T) {
	tr, _ := newFakeTracer()
	clk := clock.NewSim()
	nw := netsim.New(tr.clock(clk, ownNetsim), 1)
	nw.SetDefaultLink(netsim.LinkConfig{Delay: time.Millisecond})
	sclk, cclk := tr.clock(clk, ownServer), tr.clock(clk, ownClient)
	snet, cnet := tr.net(nw, ownServer), tr.net(nw, ownClient)

	media := netsim.Packet{From: "srv1:5001", To: "v0:7000", Payload: []byte{1}}
	ctrl := netsim.Packet{From: "v0:6000", To: "srv1:5000", Payload: []byte{1}, Reliable: true}
	if err := cnet.Listen("v0:7000", func(netsim.Packet) {}); err != nil {
		t.Fatal(err)
	}
	if err := cnet.Listen("v0:6000", func(netsim.Packet) {}); err != nil {
		t.Fatal(err)
	}
	reply := netsim.Packet{From: "srv1:5000", To: "v0:6000", Payload: []byte{2}, Reliable: true}
	if err := snet.Listen("srv1:5000", func(netsim.Packet) {
		snet.Send(reply) // answered from inside the handler: a child of server.ctrl
	}); err != nil {
		t.Fatal(err)
	}

	sclk.AfterFunc(1*time.Millisecond, func() { snet.Send(media) })                               // emit
	sclk.AfterFunc(2*time.Millisecond, func() { snet.SendMulti(media, []netsim.Addr{media.To}) }) // emit, fan-out
	sclk.AfterFunc(3*time.Millisecond, func() {})                                                 // sweep
	sclk.AfterFunc(4*time.Millisecond, func() { snet.Send(reply) })                               // reliable only: still a sweep
	cclk.AfterFunc(5*time.Millisecond, func() { cnet.Send(ctrl) })                                // keepalive
	cclk.AfterFunc(6*time.Millisecond, func() {})                                                 // playout
	tr.start()
	clk.RunFor(time.Second)
	tr.stop()

	want := map[layer]int64{
		lServerEmit: 2, lServerSweep: 2, lClientKeepalive: 1, lClientPlayout: 1,
		lNetSend: 4, lNetSendMulti: 1,
		lServerCtrl: 1, lClientCtrl: 2, lClientMedia: 2, lNetDeliver: 5,
	}
	for l, n := range want {
		if got := tr.layers[l].n; got != n {
			t.Errorf("%s.n = %d, want %d", layerNames[l], got, n)
		}
	}
	if len(tr.stack) != 0 {
		t.Errorf("%d spans left open", len(tr.stack))
	}
}

// The committed BENCHMARK.json must be what the program's own tables say.
func TestManifestMatchesProgram(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if want := buildManifest().String(); string(got) != want {
		t.Errorf("BENCHMARK.json is stale: regenerate it with `bench -manifest > BENCHMARK.json`")
	}
}

// toy shrinks a workload to a smoke world.
func toy(wl workload) workload {
	wl.viewers = 4
	wl.rate = 4
	if wl.servers > 1 {
		wl.viewers = 12
		wl.rate = 12
	}
	if !wl.media {
		wl.viewers = 40
		wl.rate = 200
	}
	return wl
}

func TestSmokeEveryWorkload(t *testing.T) {
	base := testLessons(t)
	for _, wl := range workloads {
		wl := toy(wl)
		ref, _, err := repetition(wl, base, 1, nil, true)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		if ref.failed != 0 || ref.ops != wl.viewers {
			t.Errorf("%s: %d of %d sessions failed", wl.name, ref.failed, ref.ops)
		}
		tr := newTracer()
		again, hc, err := repetition(wl, base, 1, tr, false)
		if err != nil {
			t.Fatalf("%s traced: %v", wl.name, err)
		}
		if again.digest != ref.digest {
			t.Errorf("%s: traced sim_digest %016x, untraced %016x", wl.name, again.digest, ref.digest)
		}
		accounted := tr.accounted()
		if off := math.Abs(float64(hc.run-accounted)) / float64(hc.run); off > 0.02 {
			t.Errorf("%s: budget does not close: run %v, accounted %v", wl.name, hc.run, accounted)
		}
		if wl.shared != (tr.layers[lNetSendMulti].n > 0) {
			t.Errorf("%s: netsim.sendmulti.n = %d", wl.name, tr.layers[lNetSendMulti].n)
		}
		if wl.media && (len(ref.startupMS) != wl.viewers || ref.frames == 0) {
			t.Errorf("%s: %d of %d viewers started, %d frames", wl.name, len(ref.startupMS), wl.viewers, ref.frames)
		}
		if wl.killAt > 0 && (len(ref.recoverMS) == 0 || len(ref.handoffMS) == 0) {
			t.Errorf("%s: %d recoveries, %d handoffs", wl.name, len(ref.recoverMS), len(ref.handoffMS))
		}
	}
}
