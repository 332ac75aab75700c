package main

import (
	"fmt"
	"runtime"
	"time"
)

// minReps is the floor on timed repetitions of a run; tracedReps is how many
// untraced/traced pairs a -trace run measures.
const (
	minReps    = 7
	tracedReps = 3
)

// setupSamples is how many times a repetition sets up: set-up is cheap and
// its timing noisy, so each repetition times several and runs the last.
const setupSamples = 5

// hostCost is what one repetition cost the host.
type hostCost struct {
	setup      [setupSamples]time.Duration
	run        time.Duration
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
	gcPause    time.Duration
}

// repetition sets up from nothing — the plan from the seed, then a fresh
// world from the plan — runs it, and reads the outcome. The world is garbage
// when it returns.
func repetition(wl workload, base []lesson, seed uint64, tr *tracer, check bool) (outcome, hostCost, error) {
	var hc hostCost
	var w *world
	for i := range hc.setup {
		w = nil
		runtime.GC() // the previous sample's world must not be collected on this one's time
		t0 := time.Now()
		p, err := makePlan(wl, base, seed)
		if err != nil {
			return outcome{}, hc, err
		}
		if w, err = buildWorld(wl, p, tr, check); err != nil {
			return outcome{}, hc, err
		}
		hc.setup[i] = time.Since(t0)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	hc.run = w.run(tr)
	runtime.ReadMemStats(&after)
	hc.allocBytes = after.TotalAlloc - before.TotalAlloc
	hc.mallocs = after.Mallocs - before.Mallocs
	hc.gcCycles = after.NumGC - before.NumGC
	hc.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)

	o := w.collect()
	if check {
		if w.corrupt != "" {
			return o, hc, fmt.Errorf("check repetition: %s", w.corrupt)
		}
		if o.shortfall != "" {
			return o, hc, fmt.Errorf("check repetition: %s", o.shortfall)
		}
	}
	return o, hc, nil
}

// result is one run of one workload.
type result struct {
	wl      workload
	seed    uint64
	outcome outcome // identical across repetitions, or the run failed
	timed   []hostCost
	// traced holds the per-layer budget of each traced repetition, with
	// the untraced repetition it was paired with.
	traced   []tracedRep
	rssBytes int64
	// playoutDigests counts the distinct playout digests seen: more than
	// one means the product did not reproduce per-stream plays/gaps.
	playoutDigests int
}

type tracedRep struct {
	cost      hostCost
	untraced  time.Duration
	layers    [numLayers]layerStat
	accounted time.Duration
}

// runWorkload is the whole measurement: one warm-up/check repetition, then
// timed repetitions of the identical scenario until both minReps and the
// time budget are met (or, traced, tracedReps untraced/traced pairs). Every
// repetition must reproduce the check repetition's sim_digest.
func runWorkload(wl workload, base []lesson, seed uint64, budget time.Duration, traced bool) (*result, error) {
	res := &result{wl: wl, seed: seed}

	ref, _, err := repetition(wl, base, seed, nil, true)
	if err != nil {
		return nil, err
	}
	res.outcome = ref
	playouts := map[uint64]bool{ref.playout: true}
	same := func(o outcome, what string) error {
		if o.digest != ref.digest {
			return fmt.Errorf("%s: sim_digest %016x differs from the check repetition's %016x", what, o.digest, ref.digest)
		}
		playouts[o.playout] = true
		return nil
	}

	began := time.Now()
	for i := 0; ; i++ {
		if traced && i == tracedReps {
			break
		}
		if !traced && i >= minReps && time.Since(began) >= budget {
			break
		}
		o, hc, err := repetition(wl, base, seed, nil, false)
		if err != nil {
			return nil, err
		}
		if err := same(o, fmt.Sprintf("timed repetition %d", i+1)); err != nil {
			return nil, err
		}
		res.timed = append(res.timed, hc)
		if !traced {
			continue
		}
		tr := newTracer()
		o, thc, err := repetition(wl, base, seed, tr, false)
		if err != nil {
			return nil, err
		}
		if err := same(o, fmt.Sprintf("traced repetition %d", i+1)); err != nil {
			return nil, err
		}
		res.traced = append(res.traced, tracedRep{cost: thc, untraced: hc.run, layers: tr.layers, accounted: tr.accounted()})
	}
	res.playoutDigests = len(playouts)
	res.rssBytes = maxRSS()
	return res, nil
}
