package netsim

import (
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
)

// TestSendMultiFanOutAndOwnership pins the multicast contract: one SendMulti
// call delivers to every destination, and the caller owns its payload buffer
// again the moment the call returns — mutating it immediately must not
// corrupt any of the scheduled copies.
func TestSendMultiFanOutAndOwnership(t *testing.T) {
	clk := clock.NewSim()
	net := New(clk, 5)
	net.SetLink("a", "b", LinkConfig{Delay: time.Millisecond})
	net.SetLink("a", "c", LinkConfig{Delay: 3 * time.Millisecond})
	got := map[string]string{}
	net.Listen("b:1", func(p Packet) { got["b"] = string(append([]byte(nil), p.Payload...)) })
	net.Listen("c:1", func(p Packet) { got["c"] = string(append([]byte(nil), p.Payload...)) })

	const want = "shared-flow-frame"
	buf := []byte(want)
	if err := net.SendMulti(Packet{From: "a:1", Payload: buf}, []Addr{"b:1", "c:1"}); err != nil {
		t.Fatal(err)
	}
	// Caller reuses (pools) its buffer immediately — both in-flight copies
	// must be unaffected.
	for i := range buf {
		buf[i] = 'X'
	}
	clk.RunFor(time.Second)
	if got["b"] != want || got["c"] != want {
		t.Fatalf("deliveries = %v, want %q at both destinations", got, want)
	}
}

// TestSendMultiPerDestinationFaults verifies a fault against one destination
// drops only that copy: the batch still returns nil (like stochastic loss in
// Send) and the other destinations receive their frames.
func TestSendMultiPerDestinationFaults(t *testing.T) {
	clk := clock.NewSim()
	net := New(clk, 5)
	net.SetLink("a", "b", LinkConfig{Delay: time.Millisecond})
	net.SetLink("a", "c", LinkConfig{Delay: time.Millisecond})
	var bPkts, cPkts int
	net.Listen("b:1", func(Packet) { bPkts++ })
	net.Listen("c:1", func(Packet) { cPkts++ })

	net.DropNext("a", "b", 1)
	if err := net.SendMulti(Packet{From: "a:1", Payload: []byte("x")}, []Addr{"b:1", "c:1"}); err != nil {
		t.Fatalf("per-destination fault failed the batch: %v", err)
	}
	clk.RunFor(time.Second)
	if bPkts != 0 {
		t.Fatalf("faulted destination received %d packets, want 0", bPkts)
	}
	if cPkts != 1 {
		t.Fatalf("healthy destination received %d packets, want 1", cPkts)
	}
	if st := net.Stats("a", "b"); st.Dropped != 1 {
		t.Fatalf("a→b drop not accounted: %+v", st)
	}
}

// TestSendMultiChargesEgressOnce pins the multicast economics: fanning one
// packet out to N subscribers serializes it once on the sender's uplink. A
// second SendMulti issued at the same instant must therefore depart only one
// egress transmission later, not N.
func TestSendMultiChargesEgressOnce(t *testing.T) {
	clk := clock.NewSim()
	net := New(clk, 5)
	// 8000 bit/s uplink and 1000-byte frames: one serialization = 1s.
	net.SetEgressLimit("a", 8000, 10*time.Second)
	net.SetLink("a", "b", LinkConfig{})
	net.SetLink("a", "c", LinkConfig{})
	net.SetLink("a", "d", LinkConfig{})
	var arrivals []time.Duration
	start := clk.Now()
	for _, h := range []Addr{"b:1", "c:1", "d:1"} {
		net.Listen(h, func(p Packet) { arrivals = append(arrivals, clk.Now().Sub(start)) })
	}
	frame := make([]byte, 1000)
	tos := []Addr{"b:1", "c:1", "d:1"}
	if err := net.SendMulti(Packet{From: "a:1", Payload: frame, Reliable: true}, tos); err != nil {
		t.Fatal(err)
	}
	if err := net.SendMulti(Packet{From: "a:1", Payload: frame, Reliable: true}, tos); err != nil {
		t.Fatal(err)
	}
	clk.RunFor(time.Minute)
	if len(arrivals) != 6 {
		t.Fatalf("deliveries = %d, want 6", len(arrivals))
	}
	var last time.Duration
	for _, a := range arrivals {
		if a > last {
			last = a
		}
	}
	// Two fan-outs × one serialization each ≈ 2s. Per-copy charging would
	// push the tail past 6s.
	if last > 3*time.Second {
		t.Fatalf("last delivery at %v; egress looks charged per copy, not per fan-out", last)
	}
}

// TestSendIsFanOutOfOne pins the one send path: the same paced traffic over a
// link with loss, jitter, duplication, a shared egress limit and a partition
// window reads the same through Send and through SendMulti to the one
// destination — delivery digest, link counters and every drop cause. (With two
// hand-written paths the fan-out charged the uplink before it asked about the
// partition, so the two disagreed on all three.)
func TestSendIsFanOutOfOne(t *testing.T) {
	type outcome struct {
		digest uint64
		stats  LinkStats

		partition, overflow, queue, loss, other int
	}
	run := func(multi bool) outcome {
		clk := clock.NewSim()
		net := New(clk, 9)
		net.SetLink("a", "b", LinkConfig{
			Bandwidth: 2_000_000, Delay: 5 * time.Millisecond, Jitter: 4 * time.Millisecond,
			Loss: 0.05, Dup: 0.1,
		})
		// 1028 wire bytes every 5ms offer 1.6 Mb/s to a 1 Mb/s uplink that
		// queues at most 50ms: the egress overflows, partition or not.
		net.SetEgressLimit("a", 1_000_000, 50*time.Millisecond)
		net.AddPartition("a", "b", 500*time.Millisecond, 250*time.Millisecond)
		net.Listen("b:1", func(Packet) {})
		var o outcome
		net.DropHandler = func(_ Packet, cause string) {
			switch {
			case strings.HasPrefix(cause, "partition"):
				o.partition++
			case cause == "egress overflow":
				o.overflow++
			case cause == "queue overflow":
				o.queue++
			case cause == "loss":
				o.loss++
			default:
				o.other++
			}
		}
		pkt := Packet{From: "a:1", To: "b:1", Payload: make([]byte, 1000)}
		for i := 0; i < 400; i++ {
			if multi {
				net.SendMulti(pkt, []Addr{pkt.To})
			} else {
				net.Send(pkt)
			}
			clk.RunFor(5 * time.Millisecond)
		}
		clk.RunUntilIdle()
		o.digest, o.stats = net.DeliveryDigest(), net.Stats("a", "b")
		return o
	}
	one, fan := run(false), run(true)
	if one.partition == 0 || one.overflow == 0 || one.loss == 0 || one.other != 0 {
		t.Fatalf("scenario does not exercise every drop cause: %+v", one)
	}
	if one != fan {
		t.Fatalf("Send and a fan-out of one disagree:\n Send      %+v\n SendMulti %+v", one, fan)
	}
}

// TestSendAllocs pins that a packet costs the heap nothing on a warm network:
// deliveries (with their timers) and payload copies come off the network's
// free lists, and the link key, the destination list and the arrival plan
// stay on the stack. It covers a Send, a fan-out to three destinations, and a
// duplicating link, whose second arrival shares the first one's payload.
func TestSendAllocs(t *testing.T) {
	clk := clock.NewSim()
	net := New(clk, 1)
	net.SetLink("a", "b", LinkConfig{Delay: time.Millisecond})
	net.SetLink("a", "c", LinkConfig{Delay: 2 * time.Millisecond})
	net.SetLink("a", "d", LinkConfig{Delay: 3 * time.Millisecond})
	net.SetLink("a", "e", LinkConfig{Delay: time.Millisecond, Dup: 1})
	for _, to := range []Addr{"b:1", "c:1", "d:1", "e:1"} {
		net.Listen(to, func(Packet) {})
	}
	pkt := Packet{From: "a:1", Payload: make([]byte, 1000)}
	tos := []Addr{"b:1", "c:1", "d:1"}
	cases := []struct {
		name string
		send func()
	}{
		{"Send", func() { pkt.To = "b:1"; net.Send(pkt) }},
		{"SendMulti to 3", func() { net.SendMulti(pkt, tos) }},
		{"Send on a Dup: 1 link", func() { pkt.To = "e:1"; net.Send(pkt) }},
	}
	for _, c := range cases {
		sendAndDeliver := func() {
			c.send()
			clk.RunUntilIdle()
		}
		sendAndDeliver() // warm the links and the free lists
		if got := testing.AllocsPerRun(200, sendAndDeliver); got != 0 {
			t.Errorf("%s: %v allocations per transmission on a warm network, want 0", c.name, got)
		}
	}
}

// TestRecycledDeliveryKeepsFanOutPayload pins the recycling order: a delivery
// is freed only after its handler returns, and a payload only after its last
// delivery. Each destination of a fan-out first sends new packets from
// inside its handler, which take the deliveries and payloads freed so far,
// and only then reads its own payload: every destination must still read the
// original bytes, and the quiet network leaves nothing scheduled.
func TestRecycledDeliveryKeepsFanOutPayload(t *testing.T) {
	clk := clock.NewSim()
	net := New(clk, 3)
	net.SetLink("a", "b", LinkConfig{Delay: time.Millisecond})
	net.SetLink("a", "c", LinkConfig{Delay: 2 * time.Millisecond})
	net.SetLink("a", "d", LinkConfig{Delay: 3 * time.Millisecond})
	net.SetLink("b", "e", LinkConfig{Delay: 10 * time.Millisecond})
	// Warm the free lists with a few deliveries and payloads.
	net.Listen("e:1", func(Packet) {})
	for i := 0; i < 4; i++ {
		net.Send(Packet{From: "b:1", To: "e:1", Payload: []byte("warm")})
	}
	clk.RunUntilIdle()

	const want = "fan-out-frame"
	// As long as the original, so a reused payload is overwritten in place.
	overwrite := []byte(strings.Repeat("X", len(want)))
	got := map[Addr]string{}
	sendThenRead := func(p Packet) {
		for i := 0; i < 3; i++ {
			net.Send(Packet{From: "b:1", To: "e:1", Payload: overwrite})
		}
		got[p.To] = string(p.Payload)
	}
	for _, to := range []Addr{"b:1", "c:1", "d:1"} {
		net.Listen(to, sendThenRead)
	}
	if err := net.SendMulti(Packet{From: "a:1", Payload: []byte(want)}, []Addr{"b:1", "c:1", "d:1"}); err != nil {
		t.Fatal(err)
	}
	clk.RunUntilIdle()
	for _, to := range []Addr{"b:1", "c:1", "d:1"} {
		if got[to] != want {
			t.Errorf("%s read %q, want %q: a recycled delivery overwrote a shared payload", to, got[to], want)
		}
	}
	if n := clk.Pending(); n != 0 {
		t.Fatalf("Pending() = %d on a quiet network, want 0", n)
	}
}
