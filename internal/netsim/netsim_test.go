package netsim

import (
	"strconv"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/clock"
	"repro/internal/stats"
)

func newSim() (*clock.Virtual, *Network) {
	clk := clock.NewSim()
	return clk, New(clk, 1)
}

func TestAddrHost(t *testing.T) {
	if MakeAddr("server", 80).Host() != "server" {
		t.Fatal("Host() wrong")
	}
	if Addr("bare").Host() != "bare" {
		t.Fatal("bare addr host wrong")
	}
}

func TestDeliveryWithFixedDelay(t *testing.T) {
	clk, net := newSim()
	net.SetLink("a", "b", LinkConfig{Delay: 50 * time.Millisecond})
	var got Packet
	var at time.Time
	net.Listen("b:1", func(p Packet) { got, at = p, clk.Now() })
	net.Send(Packet{From: "a:9", To: "b:1", Payload: []byte("hello")})
	clk.RunUntilIdle()
	if string(got.Payload) != "hello" {
		t.Fatalf("payload = %q", got.Payload)
	}
	if d := at.Sub(clock.Epoch); d != 50*time.Millisecond {
		t.Fatalf("delivered after %v, want 50ms", d)
	}
}

func TestNoListenerNoPanic(t *testing.T) {
	clk, net := newSim()
	net.Send(Packet{From: "a:1", To: "nowhere:1", Payload: []byte("x")})
	clk.RunUntilIdle()
}

func TestListenerUnregister(t *testing.T) {
	clk, net := newSim()
	n := 0
	net.Listen("b:1", func(Packet) { n++ })
	net.Send(Packet{From: "a:1", To: "b:1", Payload: []byte("x")})
	clk.RunUntilIdle()
	net.Listen("b:1", nil)
	net.Send(Packet{From: "a:1", To: "b:1", Payload: []byte("x")})
	clk.RunUntilIdle()
	if n != 1 {
		t.Fatalf("deliveries = %d, want 1", n)
	}
}

func TestSerializationDelay(t *testing.T) {
	clk, net := newSim()
	// 8 kb/s: a 1000-byte payload (1028 wire bytes) takes ~1.028s to send.
	net.SetLink("a", "b", LinkConfig{Bandwidth: 8000, QueueLimit: time.Hour})
	var arrivals []time.Duration
	net.Listen("b:1", func(Packet) { arrivals = append(arrivals, clk.Since(clock.Epoch)) })
	for i := 0; i < 3; i++ {
		net.Send(Packet{From: "a:1", To: "b:1", Payload: make([]byte, 1000)})
	}
	clk.RunUntilIdle()
	if len(arrivals) != 3 {
		t.Fatalf("arrivals = %d", len(arrivals))
	}
	// Packets serialize: arrival spacing ≈ tx time (1.028s).
	gap := arrivals[1] - arrivals[0]
	if gap < time.Second || gap > 1100*time.Millisecond {
		t.Fatalf("serialization gap = %v", gap)
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	clk, net := newSim()
	net.SetLink("a", "b", LinkConfig{Bandwidth: 8000, QueueLimit: 100 * time.Millisecond})
	dropped := 0
	net.DropHandler = func(_ Packet, reason string) {
		if reason == "queue overflow" {
			dropped++
		}
	}
	for i := 0; i < 10; i++ {
		net.Send(Packet{From: "a:1", To: "b:1", Payload: make([]byte, 1000)})
	}
	clk.RunUntilIdle()
	if dropped == 0 {
		t.Fatal("no queue drops under saturation")
	}
	st := net.Stats("a", "b")
	if st.Dropped != dropped || st.Sent != 10 || st.Delivered+st.Dropped != 10 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLossRateApproximatesConfig(t *testing.T) {
	clk, net := newSim()
	net.SetLink("a", "b", LinkConfig{Loss: 0.2, QueueLimit: time.Hour})
	got := 0
	net.Listen("b:1", func(Packet) { got++ })
	const N = 5000
	for i := 0; i < N; i++ {
		net.Send(Packet{From: "a:1", To: "b:1", Payload: []byte("x")})
	}
	clk.RunUntilIdle()
	frac := 1 - float64(got)/N
	if frac < 0.17 || frac > 0.23 {
		t.Fatalf("observed loss = %v, want ≈0.2", frac)
	}
	st := net.Stats("a", "b")
	if lr := st.LossRate(); lr < 0.17 || lr > 0.23 {
		t.Fatalf("stats loss = %v", lr)
	}
}

func TestReliableNeverDrops(t *testing.T) {
	clk, net := newSim()
	net.SetLink("a", "b", LinkConfig{Loss: 0.3, Delay: 10 * time.Millisecond})
	got := 0
	net.Listen("b:1", func(Packet) { got++ })
	const N = 1000
	for i := 0; i < N; i++ {
		net.Send(Packet{From: "a:1", To: "b:1", Payload: []byte("x"), Reliable: true})
	}
	clk.RunUntilIdle()
	if got != N {
		t.Fatalf("delivered %d/%d reliable packets", got, N)
	}
}

func TestReliableInOrder(t *testing.T) {
	clk, net := newSim()
	net.SetLink("a", "b", LinkConfig{Loss: 0.3, Delay: 10 * time.Millisecond, Jitter: 50 * time.Millisecond})
	var seq []int
	net.Listen("b:1", func(p Packet) { seq = append(seq, int(p.Payload[0])) })
	for i := 0; i < 200; i++ {
		net.Send(Packet{From: "a:1", To: "b:1", Payload: []byte{byte(i)}, Reliable: true})
	}
	clk.RunUntilIdle()
	if len(seq) != 200 {
		t.Fatalf("delivered %d", len(seq))
	}
	for i := 1; i < len(seq); i++ {
		if byte(seq[i]) != byte(seq[i-1]+1) {
			t.Fatalf("out of order at %d: %d after %d", i, seq[i], seq[i-1])
		}
	}
}

func TestReliableLossIncreasesDelay(t *testing.T) {
	// Compare mean delay on a lossy vs clean reliable path.
	mean := func(loss float64) float64 {
		clk := clock.NewSim()
		net := New(clk, 7)
		net.SetLink("a", "b", LinkConfig{Loss: loss, Delay: 40 * time.Millisecond})
		var delays stats.Sample
		net.Listen("b:1", func(p Packet) { delays.AddDuration(clk.Since(p.SentAt)) })
		for i := 0; i < 2000; i++ {
			net.Send(Packet{From: "a:1", To: "b:1", Payload: []byte("x"), Reliable: true})
			clk.RunUntilIdle()
		}
		return delays.Mean()
	}
	clean, lossy := mean(0), mean(0.2)
	if lossy <= clean*1.1 {
		t.Fatalf("lossy reliable delay %.2fms not > clean %.2fms", lossy, clean)
	}
}

func TestJitterSpreadsDelays(t *testing.T) {
	clk := clock.NewSim()
	net := New(clk, 3)
	net.SetLink("a", "b", LinkConfig{Delay: 20 * time.Millisecond, Jitter: 100 * time.Millisecond})
	var delays stats.Sample
	net.Listen("b:1", func(p Packet) { delays.AddDuration(clk.Since(p.SentAt)) })
	for i := 0; i < 2000; i++ {
		net.Send(Packet{From: "a:1", To: "b:1", Payload: []byte("x")})
		clk.RunUntilIdle()
	}
	if delays.Percentile(0) < 20 || delays.Max() > 121 {
		t.Fatalf("delays outside [20,120]ms: [%v,%v]", delays.Percentile(0), delays.Max())
	}
	spread := delays.Percentile(95) - delays.Percentile(5)
	if spread < 60 {
		t.Fatalf("jitter spread = %.1fms, want wide", spread)
	}
}

func TestCongestionPhaseRaisesLossAndDelay(t *testing.T) {
	clk := clock.NewSim()
	net := New(clk, 9)
	net.SetLink("a", "b", LinkConfig{Delay: 10 * time.Millisecond, Loss: 0.01, QueueLimit: time.Hour})
	net.AddPhase("a", "b", Phase{
		Start: 10 * time.Second, Duration: 10 * time.Second,
		LossFactor: 20, ExtraDelay: 50 * time.Millisecond,
	})
	delivered := map[bool]int{} // key: during phase?
	sent := map[bool]int{}
	net.Listen("b:1", func(Packet) {})
	for i := 0; i < 3000; i++ {
		inPhase := clk.Since(clock.Epoch) >= 10*time.Second && clk.Since(clock.Epoch) < 20*time.Second
		before := net.Stats("a", "b").Delivered
		net.Send(Packet{From: "a:1", To: "b:1", Payload: []byte("x")})
		clk.RunUntilIdle()
		sent[inPhase]++
		if net.Stats("a", "b").Delivered > before {
			delivered[inPhase]++
		}
		clk.RunFor(10 * time.Millisecond)
	}
	lossOut := 1 - float64(delivered[false])/float64(sent[false])
	lossIn := 1 - float64(delivered[true])/float64(sent[true])
	if lossIn < lossOut*5 {
		t.Fatalf("phase loss %.3f not ≫ baseline %.3f", lossIn, lossOut)
	}
}

func TestPhaseBandwidthFactorThrottles(t *testing.T) {
	clk := clock.NewSim()
	net := New(clk, 11)
	net.SetLink("a", "b", LinkConfig{Bandwidth: 1_000_000, QueueLimit: time.Hour})
	net.AddPhase("a", "b", Phase{Start: 0, Duration: time.Hour, BandwidthFactor: 0.1})
	var arrivals []time.Duration
	net.Listen("b:1", func(Packet) { arrivals = append(arrivals, clk.Since(clock.Epoch)) })
	for i := 0; i < 2; i++ {
		net.Send(Packet{From: "a:1", To: "b:1", Payload: make([]byte, 1222)}) // 1250 wire bytes = 10kb
	}
	clk.RunUntilIdle()
	// At 100 kb/s, each 10 kb packet takes 100ms.
	gap := arrivals[1] - arrivals[0]
	if gap < 90*time.Millisecond || gap > 110*time.Millisecond {
		t.Fatalf("gap = %v, want ≈100ms", gap)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (int, int64) {
		clk := clock.NewSim()
		net := New(clk, 42)
		net.SetLink("a", "b", LinkConfig{Loss: 0.1, Jitter: 30 * time.Millisecond, QueueLimit: time.Hour})
		got := 0
		net.Listen("b:1", func(Packet) { got++ })
		for i := 0; i < 500; i++ {
			net.Send(Packet{From: "a:1", To: "b:1", Payload: make([]byte, 100)})
		}
		clk.RunUntilIdle()
		return got, net.Stats("a", "b").Bytes
	}
	g1, b1 := run()
	g2, b2 := run()
	if g1 != g2 || b1 != b2 {
		t.Fatalf("replay diverged: %d/%d vs %d/%d", g1, b1, g2, b2)
	}
}

// TestStatsDoesNotPerturbReplay pins Stats as read-only: peeking at a host
// pair that has carried no traffic must not create its link, because link
// creation splits the network RNG and would shift the loss and jitter draws of
// every link created after it.
func TestStatsDoesNotPerturbReplay(t *testing.T) {
	run := func(peek bool) uint64 {
		clk := clock.NewSim()
		net := New(clk, 7)
		net.SetDefaultLink(LinkConfig{Loss: 0.1, Jitter: 30 * time.Millisecond, QueueLimit: time.Hour})
		net.Listen("b:1", func(Packet) {})
		if peek {
			if st := net.Stats("x", "y"); st != (LinkStats{}) {
				t.Fatalf("unknown pair reads %+v, want zero", st)
			}
		}
		for i := 0; i < 200; i++ {
			net.Send(Packet{From: "a:1", To: "b:1", Payload: make([]byte, 100)})
		}
		clk.RunUntilIdle()
		return net.DeliveryDigest()
	}
	if plain, peeked := run(false), run(true); plain != peeked {
		t.Fatalf("Stats on an unknown pair changed the replay: digest %x without the peek, %x with it", plain, peeked)
	}
}

func TestDuplexLinkIndependence(t *testing.T) {
	clk, net := newSim()
	net.SetDuplexLink("a", "b", LinkConfig{Delay: 30 * time.Millisecond})
	gotA, gotB := 0, 0
	net.Listen("a:1", func(Packet) { gotA++ })
	net.Listen("b:1", func(Packet) { gotB++ })
	net.Send(Packet{From: "a:1", To: "b:1", Payload: []byte("x")})
	net.Send(Packet{From: "b:1", To: "a:1", Payload: []byte("y")})
	clk.RunUntilIdle()
	if gotA != 1 || gotB != 1 {
		t.Fatalf("deliveries: a=%d b=%d", gotA, gotB)
	}
	if net.Stats("a", "b").Sent != 1 || net.Stats("b", "a").Sent != 1 {
		t.Fatal("per-direction stats not independent")
	}
}

// Property: for any loss in [0,0.9), reliable delivery count equals the send
// count and unreliable never exceeds it.
func TestQuickReliableAlwaysDelivers(t *testing.T) {
	f := func(seed uint64, lossPct uint8) bool {
		loss := float64(lossPct%90) / 100
		clk := clock.NewSim()
		net := New(clk, seed)
		net.SetLink("a", "b", LinkConfig{Loss: loss, QueueLimit: time.Hour})
		rel, unrel := 0, 0
		net.Listen("b:1", func(p Packet) {
			if p.Reliable {
				rel++
			} else {
				unrel++
			}
		})
		const N = 100
		for i := 0; i < N; i++ {
			net.Send(Packet{From: "a:1", To: "b:1", Payload: []byte("x"), Reliable: true})
			net.Send(Packet{From: "a:1", To: "b:1", Payload: []byte("x")})
		}
		clk.RunUntilIdle()
		return rel == N && unrel <= N
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPacketDuplication(t *testing.T) {
	clk := clock.NewSim()
	net := New(clk, 31)
	net.SetLink("a", "b", LinkConfig{Dup: 0.5, QueueLimit: time.Hour})
	got := 0
	net.Listen("b:1", func(Packet) { got++ })
	const N = 2000
	for i := 0; i < N; i++ {
		net.Send(Packet{From: "a:1", To: "b:1", Payload: []byte("x")})
	}
	clk.RunUntilIdle()
	ratio := float64(got) / N
	if ratio < 1.4 || ratio > 1.6 {
		t.Fatalf("duplication ratio = %v, want ≈1.5", ratio)
	}
	// Reliable packets are never duplicated.
	got = 0
	net.SetLink("c", "d", LinkConfig{Dup: 1.0})
	net.Listen("d:1", func(Packet) { got++ })
	for i := 0; i < 100; i++ {
		net.Send(Packet{From: "c:1", To: "d:1", Payload: []byte("x"), Reliable: true})
	}
	clk.RunUntilIdle()
	if got != 100 {
		t.Fatalf("reliable duplicated: %d", got)
	}
}

func TestEgressLimitSharedAcrossDestinations(t *testing.T) {
	clk := clock.NewSim()
	net := New(clk, 41)
	// Fast individual links, but the sender's uplink is 800 kb/s shared.
	net.SetLink("srv", "c1", LinkConfig{Bandwidth: 100_000_000, QueueLimit: time.Hour})
	net.SetLink("srv", "c2", LinkConfig{Bandwidth: 100_000_000, QueueLimit: time.Hour})
	net.SetEgressLimit("srv", 800_000, time.Hour)
	var last1, last2 time.Time
	net.Listen("c1:1", func(Packet) { last1 = clk.Now() })
	net.Listen("c2:1", func(Packet) { last2 = clk.Now() })
	// 100 KB to each destination (200 KB total = 1.6 Mb ≈ 2s at 800 kb/s).
	for i := 0; i < 100; i++ {
		net.Send(Packet{From: "srv:1", To: "c1:1", Payload: make([]byte, 972)})
		net.Send(Packet{From: "srv:1", To: "c2:1", Payload: make([]byte, 972)})
	}
	clk.RunUntilIdle()
	total := last1
	if last2.After(total) {
		total = last2
	}
	elapsed := total.Sub(clock.Epoch)
	// 200 × 1000 wire bytes = 1.6 Mb at 800 kb/s = 2s.
	if elapsed < 1800*time.Millisecond || elapsed > 2300*time.Millisecond {
		t.Fatalf("shared egress drained in %v, want ≈2s", elapsed)
	}
}

func TestEgressOverflowDrops(t *testing.T) {
	clk := clock.NewSim()
	net := New(clk, 42)
	net.SetLink("srv", "c1", LinkConfig{Bandwidth: 100_000_000, QueueLimit: time.Hour})
	net.SetEgressLimit("srv", 8_000, 100*time.Millisecond)
	drops := 0
	net.DropHandler = func(_ Packet, reason string) {
		if reason == "egress overflow" {
			drops++
		}
	}
	for i := 0; i < 50; i++ {
		net.Send(Packet{From: "srv:1", To: "c1:1", Payload: make([]byte, 1000)})
	}
	clk.RunUntilIdle()
	if drops == 0 {
		t.Fatal("no egress drops under saturation")
	}
}

func TestEgressLimitRemoval(t *testing.T) {
	clk := clock.NewSim()
	net := New(clk, 43)
	net.SetEgressLimit("srv", 1000, 0)
	net.SetEgressLimit("srv", 0, 0) // removes the cap
	net.SetLink("srv", "c1", LinkConfig{})
	got := 0
	net.Listen("c1:1", func(Packet) { got++ })
	for i := 0; i < 10; i++ {
		net.Send(Packet{From: "srv:1", To: "c1:1", Payload: make([]byte, 1000)})
	}
	clk.RunUntilIdle()
	if got != 10 {
		t.Fatalf("delivered %d", got)
	}
}

// BenchmarkNetsimThroughput times a packet's hop, send to delivery, on a
// warm network: a Send over a jittery link, a SendMulti fan-out to 8, and a
// reliable Send over a lossy, jittery link, where losses become
// retransmissions and jitter trips the ordering clamp.
func BenchmarkNetsimThroughput(b *testing.B) {
	fan := make([]Addr, 8)
	for i := range fan {
		fan[i] = MakeAddr("c"+strconv.Itoa(i), 1)
	}
	cases := []struct {
		name string
		link LinkConfig
		pkt  Packet
		tos  []Addr
	}{
		{"Send", LinkConfig{Delay: 10 * time.Millisecond, Jitter: 5 * time.Millisecond}, Packet{From: "a:1", To: "b:1"}, nil},
		{"SendMulti to 8", LinkConfig{Delay: 10 * time.Millisecond, Jitter: 5 * time.Millisecond}, Packet{From: "a:1"}, fan},
		{"reliable lossy", LinkConfig{Delay: 10 * time.Millisecond, Jitter: 20 * time.Millisecond, Loss: 0.2}, Packet{From: "a:1", To: "b:1", Reliable: true}, nil},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			clk, net := newSim()
			net.SetDefaultLink(c.link)
			pkt := c.pkt
			for _, to := range append([]Addr{pkt.To}, c.tos...) {
				if to != "" {
					net.Listen(to, func(Packet) {})
				}
			}
			pkt.Payload = make([]byte, 1000)
			b.SetBytes(int64(len(pkt.Payload)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if c.tos != nil {
					net.SendMulti(pkt, c.tos)
				} else {
					net.Send(pkt)
				}
				if i%1024 == 0 {
					clk.RunUntilIdle()
				}
			}
			clk.RunUntilIdle()
		})
	}
}
