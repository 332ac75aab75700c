package transport

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
)

func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("condition never met")
}

func TestFrameRoundTrip(t *testing.T) {
	pkt := netsim.Packet{From: "a:1", To: "b:2", Payload: []byte("hello")}
	got, ok := decodeFrame(encodeFrame(pkt))
	if !ok || got.From != pkt.From || got.To != pkt.To || string(got.Payload) != "hello" {
		t.Fatalf("round trip = %+v %v", got, ok)
	}
	if _, ok := decodeFrame([]byte{0}); ok {
		t.Fatal("short frame accepted")
	}
	if _, ok := decodeFrame([]byte{0, 5, 'x'}); ok {
		t.Fatal("truncated from accepted")
	}
}

// FuzzDecodeFrame holds the live binaries' socket parser to its contract on
// any input: decodeFrame never panics, and every frame it accepts re-encodes
// with encodeFrame to the same bytes.
func FuzzDecodeFrame(f *testing.F) {
	f.Add(encodeFrame(netsim.Packet{From: "a:1", To: "b:2", Payload: []byte("payload")}))
	f.Add(encodeFrame(netsim.Packet{From: "viewer:5004", To: "server:4000"}))
	f.Add(encodeFrame(netsim.Packet{From: "", To: "b:2", Payload: []byte("x")}))
	f.Add([]byte{0, 3, 'a', ':', '1', 0, 9, 'b'})
	f.Fuzz(func(t *testing.T, buf []byte) {
		pkt, ok := decodeFrame(buf)
		if !ok {
			return
		}
		if again := encodeFrame(pkt); !bytes.Equal(again, buf) {
			t.Fatalf("re-encoding differs:\n got  %x\n want %x", again, buf)
		}
	})
}

// TestSendRefusesOversizedAddress: a frame stores each address length in 16
// bits, so an address of 65 536 bytes or more cannot be framed. Both paths
// refuse it locally instead of sending a mis-framed packet.
func TestSendRefusesOversizedAddress(t *testing.T) {
	l := NewLive()
	defer l.Close()
	long := netsim.Addr(strings.Repeat("h", 1<<16) + ":2")
	for _, pkt := range []netsim.Packet{
		{From: "a:1", To: long, Payload: []byte("x")},
		{From: "a:1", To: long, Payload: []byte("x"), Reliable: true},
		{From: long, To: "b:2", Payload: []byte("x")},
		{From: long, To: "b:2", Payload: []byte("x"), Reliable: true},
	} {
		if err := l.Send(pkt); !errors.Is(err, errAddrTooLong) {
			t.Errorf("Send(from %d bytes, to %d bytes, reliable %v) = %v, want errAddrTooLong",
				len(pkt.From), len(pkt.To), pkt.Reliable, err)
		}
	}
}

func TestHostIPAssignment(t *testing.T) {
	l := NewLive()
	defer l.Close()
	a := l.hostIP("alpha")
	b := l.hostIP("beta")
	if a == b {
		t.Fatal("hosts share an IP")
	}
	if l.hostIP("alpha") != a {
		t.Fatal("IP not stable")
	}
}

func TestPortOf(t *testing.T) {
	cases := []struct {
		addr netsim.Addr
		port int
		ok   bool
	}{
		{"host:1234", 1234, true},
		{"host:1", 1, true},
		{"host:65535", 65535, true},
		{"a:b:443", 443, true}, // last colon wins
		{"noport", 0, false},
		{"host:", 0, false},
		{"host:9x9", 0, false},
		{"host:x99", 0, false},
		{"host:0", 0, false},
		{"host:-1", 0, false},
		{"host:65536", 0, false},
		{"host: 80", 0, false},
		{"", 0, false},
	}
	for _, c := range cases {
		p, ok := portOf(c.addr)
		if p != c.port || ok != c.ok {
			t.Errorf("portOf(%q) = %d, %v; want %d, %v", c.addr, p, ok, c.port, c.ok)
		}
	}
}

func TestDecodeFrameMalformed(t *testing.T) {
	cases := []struct {
		name string
		buf  []byte
	}{
		{"empty", nil},
		{"one byte", []byte{0}},
		{"zero-length from", encodeFrame(netsim.Packet{From: "", To: "b:2", Payload: []byte("x")})},
		{"zero-length to", encodeFrame(netsim.Packet{From: "a:1", To: "", Payload: []byte("x")})},
		{"truncated from", []byte{0, 5, 'x'}},
		{"missing to length", []byte{0, 3, 'a', ':', '1'}},
		{"truncated to", []byte{0, 3, 'a', ':', '1', 0, 9, 'b'}},
	}
	for _, c := range cases {
		if _, ok := decodeFrame(c.buf); ok {
			t.Errorf("decodeFrame accepted %s", c.name)
		}
	}
	// A frame truncated anywhere inside a valid encoding must not parse
	// into a deliverable packet with a non-empty To.
	full := encodeFrame(netsim.Packet{From: "a:1", To: "b:2", Payload: []byte("payload")})
	for i := 0; i < 9; i++ { // 2+3+2+3 = address section is 10 bytes
		if pkt, ok := decodeFrame(full[:i]); ok && (pkt.From == "" || pkt.To == "") {
			t.Errorf("truncated frame [:%d] decoded to %+v", i, pkt)
		}
	}
}

func TestUDPAndTCPDelivery(t *testing.T) {
	l := NewLive()
	defer l.Close()
	var mu sync.Mutex
	var got []netsim.Packet
	l.Listen("recv:8000", func(p netsim.Packet) {
		mu.Lock()
		got = append(got, p)
		mu.Unlock()
	})
	time.Sleep(50 * time.Millisecond)
	l.Send(netsim.Packet{From: "send:1", To: "recv:8000", Payload: []byte("udp"), Reliable: false})
	l.Send(netsim.Packet{From: "send:1", To: "recv:8000", Payload: []byte("tcp"), Reliable: true})
	waitFor(t, 3*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 2
	})
	mu.Lock()
	defer mu.Unlock()
	seen := map[string]bool{}
	for _, p := range got {
		seen[string(p.Payload)] = true
		if p.From != "send:1" {
			t.Fatalf("from = %q", p.From)
		}
	}
	if !seen["udp"] || !seen["tcp"] {
		t.Fatalf("payloads = %v", seen)
	}
}

func TestUnlistenStopsDelivery(t *testing.T) {
	l := NewLive()
	defer l.Close()
	n := 0
	var mu sync.Mutex
	l.Listen("r:8100", func(netsim.Packet) { mu.Lock(); n++; mu.Unlock() })
	time.Sleep(50 * time.Millisecond)
	l.Send(netsim.Packet{From: "s:1", To: "r:8100", Payload: []byte("x"), Reliable: true})
	waitFor(t, 2*time.Second, func() bool { mu.Lock(); defer mu.Unlock(); return n == 1 })
	l.Listen("r:8100", nil)
	l.Send(netsim.Packet{From: "s:1", To: "r:8100", Payload: []byte("x"), Reliable: true})
	time.Sleep(100 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if n != 1 {
		t.Fatalf("deliveries = %d", n)
	}
}

func TestDerivedHostIPsStableAcrossInstances(t *testing.T) {
	a, b := NewLive(), NewLive()
	defer a.Close()
	defer b.Close()
	if a.hostIP("hermes-a") != b.hostIP("hermes-a") {
		t.Fatal("derived IPs differ across processes")
	}
}

func TestMapHostOverrides(t *testing.T) {
	l := NewLive()
	defer l.Close()
	l.MapHost("x", "127.0.0.42")
	if l.hostIP("x") != "127.0.0.42" {
		t.Fatal("MapHost ignored")
	}
	if err := l.ParseHostMap("a=127.0.0.5,b=127.0.0.6"); err != nil {
		t.Fatal(err)
	}
	if l.hostIP("a") != "127.0.0.5" || l.hostIP("b") != "127.0.0.6" {
		t.Fatal("ParseHostMap ignored")
	}
	if err := l.ParseHostMap("bad"); err == nil {
		t.Fatal("bad mapping accepted")
	}
	if err := l.ParseHostMap("x="); err == nil {
		t.Fatal("empty ip accepted")
	}
}
