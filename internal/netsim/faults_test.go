package netsim

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
)

// count wires a delivery counter to an address.
func count(net *Network, addr Addr) *int {
	n := new(int)
	net.Listen(addr, func(Packet) { *n++ })
	return n
}

func TestPartitionWindowDropsBothDirections(t *testing.T) {
	clk, net := newSim()
	atB := count(net, "b:1")
	atA := count(net, "a:1")
	net.AddPartition("a", "b", time.Second, 2*time.Second)

	send := func() {
		net.Send(Packet{From: "a:9", To: "b:1", Payload: []byte("x"), Reliable: true})
		net.Send(Packet{From: "b:9", To: "a:1", Payload: []byte("y")})
	}
	send() // t=0: before the window
	clk.RunFor(1500 * time.Millisecond)
	send() // t=1.5s: inside
	clk.RunFor(2 * time.Second)
	send() // t=3.5s: after
	clk.RunUntilIdle()

	if *atB != 2 || *atA != 2 {
		t.Fatalf("deliveries a→b=%d b→a=%d, want 2 and 2", *atB, *atA)
	}
}

func TestPartitionSendError(t *testing.T) {
	clk, net := newSim()
	net.Listen("b:1", func(Packet) {})
	net.AddPartition("a", "b", 0, time.Second)
	err := net.Send(Packet{From: "a:1", To: "b:1", Payload: []byte("x")})
	if err == nil || !strings.Contains(err.Error(), "partition") {
		t.Fatalf("Send during partition = %v, want partition error", err)
	}
	clk.RunFor(time.Second)
	if err := net.Send(Packet{From: "a:1", To: "b:1", Payload: []byte("x")}); err != nil {
		t.Fatalf("Send after partition = %v, want nil", err)
	}
	// Unrelated pair is unaffected during the window.
	if err := net.Send(Packet{From: "a:1", To: "c:1", Payload: []byte("x")}); err != nil {
		t.Fatalf("Send to unrelated host = %v, want nil", err)
	}
}

func TestOutageBlackholesHost(t *testing.T) {
	clk, net := newSim()
	atS := count(net, "s:1")
	atC := count(net, "c:1")
	net.AddOutage("s", 0, time.Second)

	net.Send(Packet{From: "c:1", To: "s:1", Payload: []byte("in")})
	net.Send(Packet{From: "s:1", To: "c:1", Payload: []byte("out")})
	clk.RunFor(time.Second)
	net.Send(Packet{From: "c:1", To: "s:1", Payload: []byte("in")})
	net.Send(Packet{From: "s:1", To: "c:1", Payload: []byte("out")})
	clk.RunUntilIdle()

	if *atS != 1 || *atC != 1 {
		t.Fatalf("deliveries to s=%d to c=%d, want 1 and 1", *atS, *atC)
	}
}

func TestHostDownAndRestart(t *testing.T) {
	clk, net := newSim()
	atS := count(net, "s:1")
	net.SetHostDown("s", true)
	if !net.HostDown("s") {
		t.Fatal("HostDown = false after SetHostDown(true)")
	}
	if err := net.Send(Packet{From: "c:1", To: "s:1", Payload: []byte("x")}); err == nil {
		t.Fatal("Send to down host succeeded")
	}
	net.SetHostDown("s", false)
	if err := net.Send(Packet{From: "c:1", To: "s:1", Payload: []byte("x")}); err != nil {
		t.Fatalf("Send after restart = %v", err)
	}
	clk.RunUntilIdle()
	if *atS != 1 {
		t.Fatalf("deliveries = %d, want 1", *atS)
	}
}

func TestDropNextCountsExactly(t *testing.T) {
	clk, net := newSim()
	atB := count(net, "b:1")
	net.DropNext("a", "b", 2)
	for i := 0; i < 4; i++ {
		net.Send(Packet{From: "a:1", To: "b:1", Payload: []byte("x"), Reliable: true})
	}
	// Reverse direction is untouched.
	atA := count(net, "a:1")
	net.Send(Packet{From: "b:1", To: "a:1", Payload: []byte("y")})
	clk.RunUntilIdle()
	if *atB != 2 {
		t.Fatalf("a→b deliveries = %d, want 2 (2 dropped)", *atB)
	}
	if *atA != 1 {
		t.Fatalf("b→a deliveries = %d, want 1", *atA)
	}
}

func TestFaultDropsReportedToDropHandler(t *testing.T) {
	clk, net := newSim()
	var reasons []string
	net.DropHandler = func(_ Packet, reason string) { reasons = append(reasons, reason) }
	net.Listen("b:1", func(Packet) {})
	net.DropNext("a", "b", 1)
	net.Send(Packet{From: "a:1", To: "b:1", Payload: []byte("x")})
	clk.RunUntilIdle()
	if len(reasons) != 1 || !strings.Contains(reasons[0], "one-shot drop") {
		t.Fatalf("drop reasons = %v", reasons)
	}
	st := net.Stats("a", "b")
	if st.Dropped != 1 {
		t.Fatalf("link dropped = %d, want 1", st.Dropped)
	}
}

// TestFaultDropErrors pins each fault's Send error text, its typed cause
// and the DropHandler reason, which is the text after the endpoints.
func TestFaultDropErrors(t *testing.T) {
	for _, tc := range []struct {
		name   string
		inject func(*Network)
		cause  error
		text   string
	}{
		{"down", func(n *Network) { n.SetHostDown("b", true) }, ErrHostDown, "host down: b"},
		{"outage", func(n *Network) { n.AddOutage("a", 0, time.Second) }, ErrOutage, "outage: a"},
		{"partition", func(n *Network) { n.AddPartition("b", "a", 0, time.Second) }, ErrPartitioned, "partition: a⇹b"},
		{"one-shot", func(n *Network) { n.DropNext("a", "b", 1) }, nil, "one-shot drop a→b"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, net := newSim()
			var reasons []string
			net.DropHandler = func(_ Packet, reason string) { reasons = append(reasons, reason) }
			tc.inject(net)
			err := net.Send(Packet{From: "a:1", To: "b:2", Payload: []byte("x")})
			if want := "netsim: fault drop a:1→b:2: " + tc.text; err == nil || err.Error() != want {
				t.Fatalf("Send = %v, want %q", err, want)
			}
			if tc.cause != nil && !errors.Is(err, tc.cause) {
				t.Fatalf("errors.Is(%v, %v) = false", err, tc.cause)
			}
			if len(reasons) != 1 || reasons[0] != tc.text {
				t.Fatalf("drop reasons = %q, want [%q]", reasons, tc.text)
			}
		})
	}
}

// TestFaultDropAllocs: with no DropHandler, a fault-dropped Send allocates
// only the error it returns; no reason text is built.
func TestFaultDropAllocs(t *testing.T) {
	_, net := newSim()
	net.SetHostDown("b", true)
	pkt := Packet{From: "a:1", To: "b:2", Payload: []byte("x")}
	if got := testing.AllocsPerRun(100, func() { net.Send(pkt) }); got > 1 {
		t.Fatalf("fault-dropped Send allocates %.1f times, want ≤ 1", got)
	}
}

// TestFaultScheduleDeterministic replays the same seed and fault schedule
// over a lossy link and expects bit-identical delivery traces.
func TestFaultScheduleDeterministic(t *testing.T) {
	run := func() []time.Duration {
		clk := clock.NewSim()
		net := New(clk, 77)
		net.SetLink("a", "b", LinkConfig{Delay: 10 * time.Millisecond, Loss: 0.2})
		var arrivals []time.Duration
		net.Listen("b:1", func(Packet) { arrivals = append(arrivals, clk.Since(clock.Epoch)) })
		net.AddPartition("a", "b", 200*time.Millisecond, 300*time.Millisecond)
		for i := 0; i < 50; i++ {
			net.Send(Packet{From: "a:1", To: "b:1", Payload: []byte("x")})
			clk.RunFor(20 * time.Millisecond)
		}
		clk.RunUntilIdle()
		return arrivals
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	if len(a) == 0 || len(a) == 50 {
		t.Fatalf("arrivals = %d, want some but not all of 50", len(a))
	}
}

// TestFaultSendErrorsAreTyped pins the typed fault causes: callers (and the
// chaos suite) distinguish a crashed host from a partition or an outage with
// errors.Is instead of string matching.
func TestFaultSendErrorsAreTyped(t *testing.T) {
	_, net := newSim()
	net.Listen("s:1", func(Packet) {})

	net.SetHostDown("s", true)
	err := net.Send(Packet{From: "c:1", To: "s:1", Payload: []byte("x")})
	if !errors.Is(err, ErrHostDown) {
		t.Fatalf("Send to down host = %v, want ErrHostDown", err)
	}
	if errors.Is(err, ErrPartitioned) || errors.Is(err, ErrOutage) {
		t.Fatalf("host-down error matches the wrong sentinel: %v", err)
	}
	net.SetHostDown("s", false)

	net.AddPartition("c", "s", 0, time.Second)
	err = net.Send(Packet{From: "c:1", To: "s:1", Payload: []byte("x")})
	if !errors.Is(err, ErrPartitioned) {
		t.Fatalf("Send across partition = %v, want ErrPartitioned", err)
	}
	if errors.Is(err, ErrHostDown) {
		t.Fatalf("partition error matches ErrHostDown: %v", err)
	}

	net.AddOutage("o", 0, time.Second)
	err = net.Send(Packet{From: "c:1", To: "o:1", Payload: []byte("x")})
	if !errors.Is(err, ErrOutage) {
		t.Fatalf("Send into outage = %v, want ErrOutage", err)
	}
}
