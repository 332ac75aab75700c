package netsim

import (
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
)

// TestDeliveryDigestOfRecord pins the delivery digest, the totals and what
// the handlers see for one scripted network that reaches every branch of the
// send path: egress limit and egress overflow, queue overflow, loss, reliable
// retransmission, the reliable-ordering clamp, duplication, a congestion
// phase, a partition, a one-shot drop, a SendMulti fan-out and a destination
// with no listener. A change to how a hop is planned, carried or folded that
// moves any arrival, drop or handler-visible field moves one of the pinned
// values.
func TestDeliveryDigestOfRecord(t *testing.T) {
	clk := clock.NewSim()
	net := New(clk, 7)
	net.SetEgressLimit("srv", 2_000_000, 30*time.Millisecond)
	net.SetLink("srv", "c1", LinkConfig{Bandwidth: 10_000_000, Delay: 8 * time.Millisecond, Jitter: 6 * time.Millisecond, Loss: 0.05, Dup: 0.2})
	net.SetLink("srv", "c2", LinkConfig{Bandwidth: 4_000_000, Delay: 12 * time.Millisecond, Jitter: 9 * time.Millisecond, Loss: 0.1})
	net.SetLink("a", "b", LinkConfig{Bandwidth: 200_000, Delay: 5 * time.Millisecond, Jitter: 2 * time.Millisecond, Loss: 0.02, QueueLimit: 40 * time.Millisecond})
	net.SetLink("b", "a", LinkConfig{Delay: 3 * time.Millisecond, Jitter: 30 * time.Millisecond, Loss: 0.3})
	net.AddPhase("a", "b", Phase{Start: 500 * time.Millisecond, Duration: 700 * time.Millisecond, LossFactor: 3, ExtraDelay: 20 * time.Millisecond, ExtraJitter: 10 * time.Millisecond, BandwidthFactor: 0.5})
	net.AddPartition("srv", "c3", 800*time.Millisecond, 200*time.Millisecond)
	net.DropNext("a", "b", 1)

	causes := map[string]int{}
	net.DropHandler = func(_ Packet, cause string) {
		causes[strings.SplitN(cause, ":", 2)[0]]++
	}
	seen := uint64(fnvOffset)
	var lastReliable, minReliableGap, maxReliableDelay time.Duration = 0, time.Hour, 0
	arrivals := map[Addr]int{}
	handler := func(p Packet) {
		at, sent := clk.Since(clock.Epoch), p.SentAt.Sub(clock.Epoch)
		arrivals[p.To]++
		seen = fnvMix(seen, fnv64str(string(p.From)))
		seen = fnvMix(seen, fnv64str(string(p.To)))
		seen = fnvMix(seen, uint64(at))
		seen = fnvMix(seen, uint64(sent))
		seen = fnvMix(seen, uint64(len(p.Payload)))
		if p.Reliable {
			seen = fnvMix(seen, 1)
			if p.To == "a:1" {
				if lastReliable > 0 {
					minReliableGap = min(minReliableGap, at-lastReliable)
				}
				lastReliable = at
				maxReliableDelay = max(maxReliableDelay, at-sent)
			}
		}
		if len(p.Payload) > 0 {
			seen = fnvMix(seen, uint64(p.Payload[0])|uint64(p.Payload[len(p.Payload)-1])<<8)
		}
	}
	for _, a := range []Addr{"c1:1", "c2:1", "c3:1", "c4:1", "b:1", "a:1"} {
		net.Listen(a, handler)
	}

	buf := make([]byte, 1400)
	fan := []Addr{"c1:1", "c2:1", "c3:1", "c4:1", "ghost:1"}
	for i := 0; i < 500; i++ {
		size := 60 + (i*37)%1300
		for j := range buf[:size] {
			buf[j] = byte(i + j)
		}
		p := buf[:size]
		net.Send(Packet{From: "srv:5", To: "c1:1", Payload: p})
		net.Send(Packet{From: "srv:5", To: "c2:1", Payload: p, Reliable: i%3 == 0})
		if i%4 == 0 {
			net.SendMulti(Packet{From: "srv:6", Payload: p}, fan)
		}
		net.Send(Packet{From: "a:2", To: "b:1", Payload: p})
		net.Send(Packet{From: "b:2", To: "a:1", Payload: p[:size/4], Reliable: true})
		// Bursts overrun the egress and a:b queues; the quiet stretches let
		// them drain.
		if i%50 < 40 {
			clk.RunFor(4 * time.Millisecond)
		} else {
			clk.RunFor(20 * time.Millisecond)
		}
	}
	clk.RunUntilIdle()

	for _, c := range []string{"egress overflow", "queue overflow", "loss", "partition", "one-shot drop a→b"} {
		if causes[c] == 0 {
			t.Errorf("no %q drop: the script no longer reaches that branch (causes %v)", c, causes)
		}
	}
	if minReliableGap != time.Microsecond {
		t.Errorf("closest reliable arrivals on b→a are %v apart, want the 1µs ordering clamp", minReliableGap)
	}
	if maxReliableDelay < 2*3*time.Millisecond+30*time.Millisecond {
		t.Errorf("slowest reliable b→a packet took %v: no retransmission", maxReliableDelay)
	}
	if st := net.Stats("srv", "c1"); arrivals["c1:1"] <= st.Delivered {
		t.Errorf("c1 got %d arrivals for %d delivered packets: no duplicate", arrivals["c1:1"], st.Delivered)
	}

	const (
		wantDigest = uint64(0xa41e98363265d2fb)
		wantSeen   = uint64(0x12d64139023ba11)
	)
	sent, delivered, dropped, bytes := net.Totals()
	if got := net.DeliveryDigest(); got != wantDigest {
		t.Errorf("DeliveryDigest() = %#x, want %#x", got, wantDigest)
	}
	if seen != wantSeen {
		t.Errorf("handler-visible digest = %#x, want %#x", seen, wantSeen)
	}
	if sent != 2625 || delivered != 1794 || dropped != 831 || bytes != 1648600 {
		t.Errorf("Totals() = %d sent, %d delivered, %d dropped, %d B, want 2625, 1794, 831, 1648600 B", sent, delivered, dropped, bytes)
	}
}

// TestReliableZeroDelayAtEpoch pins the start of a link's reliable ordering:
// before anything has arrived, nothing constrains an arrival, so a reliable
// packet on a zero-delay, unthrottled link sent at the network's epoch
// arrives at the epoch itself, and one sent right after it 1µs later.
func TestReliableZeroDelayAtEpoch(t *testing.T) {
	clk, net := newSim()
	net.SetLink("a", "b", LinkConfig{})
	var got []time.Duration
	net.Listen("b:1", func(Packet) { got = append(got, clk.Since(clock.Epoch)) })
	net.Send(Packet{From: "a:1", To: "b:1", Payload: []byte("x"), Reliable: true})
	net.Send(Packet{From: "a:1", To: "b:1", Payload: []byte("y"), Reliable: true})
	clk.RunUntilIdle()
	if len(got) != 2 || got[0] != 0 || got[1] != time.Microsecond {
		t.Fatalf("reliable arrivals at %v, want [0s 1µs]", got)
	}
}
