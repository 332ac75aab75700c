package netsim

import (
	"testing"
	"time"

	"repro/internal/clock"
)

// refLink is the reference planner for one link: the same link config,
// phases and RNG stream as the link under test, with the egress's, the
// serializer's and the reliable path's clocks kept as time.Time instants.
type refLink struct {
	l                             link
	nextFree, lastReliableArrival time.Time
	egressNextFree                time.Time
}

// refEgress is the time.Time egress serializer.
func (r *refLink) refEgress(eg *egress, pkt *Packet, now time.Time) (start time.Time, overflow bool) {
	if eg == nil {
		return now, false
	}
	start = now
	if r.egressNextFree.After(start) {
		start = r.egressNextFree
	}
	if start.Sub(now) > eg.queueLimit && !pkt.Reliable {
		return start, true
	}
	r.egressNextFree = start.Add(time.Duration(float64(pkt.Size()*8) / eg.rate * float64(time.Second)))
	return r.egressNextFree, false
}

// refPlan is the time.Time link planner.
func (r *refLink) refPlan(pkt *Packet, now time.Time, offset time.Duration, egressStart time.Time) (arrival, dupArrival time.Time, dropCause string) {
	l := &r.l
	lossF, extraD, extraJ, bwF := l.activePhase(offset)
	bw := l.cfg.Bandwidth * bwF
	var txTime time.Duration
	if bw > 0 {
		txTime = time.Duration(float64(pkt.Size()*8) / bw * float64(time.Second))
	}
	depart := egressStart
	if r.nextFree.After(depart) {
		depart = r.nextFree
	}
	queueLimit := l.cfg.QueueLimit
	if queueLimit == 0 {
		queueLimit = 500 * time.Millisecond
	}
	if depart.Sub(now) > queueLimit && !pkt.Reliable {
		return time.Time{}, time.Time{}, "queue overflow"
	}
	r.nextFree = depart.Add(txTime)
	ploss := min(l.cfg.Loss*lossF, 0.95)
	delay := l.cfg.Delay + extraD
	jitterBound := l.cfg.Jitter + extraJ
	if jitterBound > 0 {
		delay += time.Duration(l.rng.Float64() * float64(jitterBound))
	}
	lost := ploss > 0 && l.rng.Bool(ploss)
	if lost && !pkt.Reliable {
		return time.Time{}, time.Time{}, "loss"
	}
	arrival = r.nextFree.Add(delay)
	if lost && pkt.Reliable {
		for lost {
			arrival = arrival.Add(2*(l.cfg.Delay+extraD) + txTime)
			lost = l.rng.Bool(ploss)
		}
	}
	if pkt.Reliable {
		if !arrival.After(r.lastReliableArrival) {
			arrival = r.lastReliableArrival.Add(time.Microsecond)
		}
		r.lastReliableArrival = arrival
	}
	if !pkt.Reliable && l.cfg.Dup > 0 && l.rng.Bool(l.cfg.Dup) {
		dupArrival = arrival.Add(time.Millisecond + time.Duration(l.rng.Float64()*float64(jitterBound+time.Millisecond)))
	}
	return arrival, dupArrival, ""
}

// FuzzLinkPlan runs the epoch-offset planner (egressLocked, then
// linkPlanLocked) against the time.Time reference above over a fuzzed link
// config, congestion phase, egress limit and send sequence. Every packet's
// egress overflow, arrival, duplicate arrival and drop cause must match
// exactly.
//
// Input: 11 config bytes (bandwidth, delay, jitter, loss, dup, queue limit,
// egress rate, egress queue limit, phase start, phase length, phase shape),
// then 3 bytes per send (size, flags, gap): flags bit 0 is Reliable, bits
// 1–2 the gap's unit (none, µs, ms, 10 ms).
func FuzzLinkPlan(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 1, 0})
	f.Add([]byte{0, 3, 30, 80, 0, 0, 0, 0, 0, 0, 0, 40, 1, 0, 40, 3, 1, 40, 1, 0, 40, 3, 2})
	f.Add([]byte{50, 5, 6, 10, 100, 0, 0, 0, 10, 30, 0x5b, 200, 4, 3, 200, 0, 0, 200, 6, 9, 100, 4, 40})
	f.Add([]byte{0, 8, 2, 0, 0, 0, 10, 5, 0, 0, 0, 250, 0, 0, 250, 0, 0, 250, 1, 0, 250, 0, 0, 10, 6, 20})
	f.Add([]byte{2, 1, 0, 0, 0, 20, 0, 0, 0, 0, 0, 200, 0, 0, 200, 0, 0, 200, 0, 0, 200, 6, 50, 200, 0, 0})
	// New reads the clock only for the epoch, so one clock serves every input;
	// the planner reads only a payload's length.
	clk, buf := clock.NewSim(), make([]byte, 255*6)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 11 {
			return
		}
		cfg := LinkConfig{
			Bandwidth:  float64(data[0]) * 20_000,
			Delay:      time.Duration(data[1]) * time.Millisecond,
			Jitter:     time.Duration(data[2]%64) * time.Millisecond,
			Loss:       float64(data[3]) / 256 * 0.6,
			Dup:        float64(data[4]) / 256 * 0.5,
			QueueLimit: time.Duration(data[5]) * time.Millisecond,
		}
		n := New(clk, uint64(len(data)))
		n.SetLink("a", "b", cfg)
		if data[6] > 0 {
			n.SetEgressLimit("a", float64(data[6])*20_000, time.Duration(data[7])*time.Millisecond)
		}
		if data[9] > 0 {
			shape := data[10]
			n.AddPhase("a", "b", Phase{
				Start:           time.Duration(data[8]) * 10 * time.Millisecond,
				Duration:        time.Duration(data[9]) * 10 * time.Millisecond,
				LossFactor:      float64(shape % 4),
				ExtraDelay:      time.Duration(shape>>2%4) * 10 * time.Millisecond,
				ExtraJitter:     time.Duration(shape>>4%4) * 5 * time.Millisecond,
				BandwidthFactor: float64(shape>>6) / 4,
			})
		}
		l, eg := n.links[linkKey{"a", "b"}], n.egresses["a"]
		rng := *l.rng
		ref := &refLink{l: link{cfg: l.cfg, phases: l.phases, rng: &rng}}

		var offset time.Duration
		units := [4]time.Duration{0, time.Microsecond, time.Millisecond, 10 * time.Millisecond}
		for k := 11; k+3 <= len(data) && k < 11+3*256; k += 3 {
			flags := data[k+1]
			offset += time.Duration(data[k+2]) * units[flags>>1%4]
			pkt := Packet{From: "a:1", To: "b:1", Payload: buf[:int(data[k])*6], Reliable: flags&1 != 0}
			now := n.epoch.Add(offset)

			start, overflow := n.egressLocked("a", &pkt, offset)
			refStart, refOverflow := ref.refEgress(eg, &pkt, now)
			if overflow != refOverflow || start != refStart.Sub(n.epoch) {
				t.Fatalf("send %d at %v: egress (%v, %v), reference (%v, %v)", k/3-3, offset, start, overflow, refStart.Sub(n.epoch), refOverflow)
			}
			if overflow {
				continue
			}
			at, dupAt, cause := n.linkPlanLocked(l, &pkt, offset, start)
			refAt, refDupAt, refCause := ref.refPlan(&pkt, now, offset, refStart)
			if cause != refCause {
				t.Fatalf("send %d at %v: cause %q, reference %q", k/3-3, offset, cause, refCause)
			}
			if cause != "" {
				continue
			}
			if at != refAt.Sub(n.epoch) {
				t.Fatalf("send %d at %v: arrival %v, reference %v", k/3-3, offset, at, refAt.Sub(n.epoch))
			}
			if refDupAt.IsZero() != (dupAt == noArrival) || !refDupAt.IsZero() && dupAt != refDupAt.Sub(n.epoch) {
				t.Fatalf("send %d at %v: duplicate %v, reference %v", k/3-3, offset, dupAt, refDupAt)
			}
		}
	})
}
