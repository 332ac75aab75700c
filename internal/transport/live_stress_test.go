package transport

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// newCounted returns a transport whose counters land in a fresh scope's
// registry, where the tests read them.
func newCounted() (*Live, *obs.Scope) {
	scope := obs.NewScope(clock.NewWall())
	return NewLiveObs(scope), scope
}

// TestListenErrorReported verifies that a bind failure surfaces to the
// caller instead of being silently swallowed (run with a conflicting
// listener already holding the port).
func TestListenErrorReported(t *testing.T) {
	l := NewLive()
	defer l.Close()

	// Occupy the host's reliable mux port out-of-band.
	ip := l.hostIP("conflict-host")
	ln, err := net.Listen("tcp", fmt.Sprintf("%s:%d", ip, MuxPort))
	if err != nil {
		t.Skipf("cannot bind %s:%d: %v", ip, MuxPort, err)
	}
	defer ln.Close()
	if err := l.Listen("conflict-host:8300", func(netsim.Packet) {}); err == nil {
		t.Fatal("Listen succeeded despite the mux port being taken")
	}
	// The failed listen must leave no handler behind.
	l.mu.Lock()
	_, registered := l.handlers["conflict-host:8300"]
	l.mu.Unlock()
	if registered {
		t.Fatal("handler registered despite listen failure")
	}

	// A UDP conflict on the specific address must also surface.
	ip2 := l.hostIP("conflict-udp")
	uc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.ParseIP(ip2), Port: 8301})
	if err != nil {
		t.Skipf("cannot bind udp %s:8301: %v", ip2, err)
	}
	defer uc.Close()
	if err := l.Listen("conflict-udp:8301", func(netsim.Packet) {}); err == nil {
		t.Fatal("Listen succeeded despite the datagram port being taken")
	}

	// Invalid ports are rejected up front.
	if err := l.Listen("h:9x9", func(netsim.Packet) {}); err == nil {
		t.Fatal("Listen accepted a garbage port")
	}
	if err := l.Listen("h:70000", func(netsim.Packet) {}); err == nil {
		t.Fatal("Listen accepted an out-of-range port")
	}
}

// TestConcurrentStressMultiHost hammers several destination hosts from many
// goroutines while a reader polls the registry; run under -race this checks the
// writer-per-host concurrency design end to end. Every reliable frame must
// either be delivered or be accounted as a queue drop.
func TestConcurrentStressMultiHost(t *testing.T) {
	l, scope := newCounted()
	defer l.Close()

	hosts := []string{"stress-a", "stress-b", "stress-c"}
	var reliable, unreliable atomic.Int64
	for _, h := range hosts {
		addr := netsim.MakeAddr(h, 8400)
		if err := l.Listen(addr, func(p netsim.Packet) {
			if len(p.Payload) > 0 && p.Payload[0] == 'R' {
				reliable.Add(1)
			} else {
				unreliable.Add(1)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var pollers sync.WaitGroup
	pollers.Add(1)
	go func() { // concurrent metrics reader
		defer pollers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = scope.Registry().Snapshot()
				time.Sleep(time.Millisecond)
			}
		}
	}()

	const senders, perSender = 8, 150
	var sendersWG sync.WaitGroup
	for s := 0; s < senders; s++ {
		sendersWG.Add(1)
		go func(s int) {
			defer sendersWG.Done()
			for i := 0; i < perSender; i++ {
				to := netsim.MakeAddr(hosts[(s+i)%len(hosts)], 8400)
				l.Send(netsim.Packet{
					From: "stress-src:1", To: to,
					Payload:  []byte(fmt.Sprintf("R %d/%d", s, i)),
					Reliable: true,
				})
				l.Send(netsim.Packet{
					From: "stress-src:1", To: to,
					Payload: []byte(fmt.Sprintf("U %d/%d", s, i)),
				})
			}
		}(s)
	}
	sendersWG.Wait()

	// Delivery, the writer's sent counter and the read loop's recv counter
	// each settle asynchronously; wait until the books balance.
	const totalReliable = senders * perSender
	waitFor(t, 10*time.Second, func() bool {
		kept := totalReliable - scope.Counter("transport_queue_drops").Value()
		return reliable.Load() == kept &&
			scope.Counter("transport_tcp_frames_sent").Value() == kept &&
			scope.Counter("transport_tcp_frames_recv").Value() >= kept
	})
	close(stop)
	pollers.Wait()

	if scope.HighWater("transport_queue_high_water").Value() < 1 {
		t.Fatal("queue high-water never observed")
	}
	sent, recv := scope.Counter("transport_udp_datagrams_sent").Value(), scope.Counter("transport_udp_datagrams_recv").Value()
	if sent == 0 || recv == 0 {
		t.Fatalf("udp path unused: sent %d, received %d", sent, recv)
	}
}

// TestReconnectAfterPeerRestart kills a reliable peer mid-conversation and
// verifies the sender's writer redials (with backoff) once a new peer comes
// up on the same address, without the sender ever blocking.
func TestReconnectAfterPeerRestart(t *testing.T) {
	const peerIP = "127.0.0.99"

	sender, scope := newCounted()
	defer sender.Close()
	sender.MapHost("peer", peerIP)

	peer1 := NewLive()
	peer1.MapHost("peer", peerIP)
	var got1 atomic.Int64
	if err := peer1.Listen("peer:8500", func(netsim.Packet) { got1.Add(1) }); err != nil {
		t.Fatal(err)
	}

	send := func(payload string) {
		sender.Send(netsim.Packet{
			From: "origin:1", To: "peer:8500",
			Payload: []byte(payload), Reliable: true,
		})
	}
	send("before restart")
	waitFor(t, 5*time.Second, func() bool { return got1.Load() == 1 })

	// The peer goes away; sends now hit a dead connection. The writer must
	// drop the broken connection and keep redialing with backoff.
	peer1.Close()
	send("into the void")

	peer2 := NewLive()
	defer peer2.Close()
	peer2.MapHost("peer", peerIP)
	var got2 atomic.Int64
	waitFor(t, 5*time.Second, func() bool {
		return peer2.Listen("peer:8500", func(netsim.Packet) { got2.Add(1) }) == nil
	})

	// Keep offering fresh frames: the frame sent against the dying
	// connection may have been accepted by the kernel and lost with it.
	waitFor(t, 10*time.Second, func() bool {
		send("after restart")
		time.Sleep(20 * time.Millisecond)
		return got2.Load() > 0
	})

	if scope.Counter("transport_reconnects").Value()+scope.Counter("transport_dial_failures").Value() == 0 {
		t.Fatal("restart left no trace in the transport counters")
	}
}

// TestQueueOverflowDropsWholeFrames fills a tiny queue toward an
// unreachable host: excess frames are dropped whole and counted, the caller
// never blocks, and Close interrupts the writer's dial backoff promptly.
func TestQueueOverflowDropsWholeFrames(t *testing.T) {
	l, scope := newCounted()
	l.queueSize = 1
	const frames = 20
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < frames; i++ {
			l.Send(netsim.Packet{
				From: "origin:1", To: "black-hole:8600",
				Payload: []byte("frame"), Reliable: true,
			})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Send blocked on a full queue")
	}
	waitFor(t, 5*time.Second, func() bool {
		return scope.Counter("transport_queue_drops").Value() > 0 &&
			scope.Counter("transport_dial_failures").Value() > 0
	})

	start := time.Now()
	l.Close()
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("Close took %v with a writer stuck in backoff", d)
	}
}

// TestSendAfterCloseIsSafe documents the shutdown contract: Send and Listen
// on a closed transport are no-ops / errors, never panics.
func TestSendAfterCloseIsSafe(t *testing.T) {
	l := NewLive()
	l.Close()
	l.Send(netsim.Packet{From: "a:1", To: "b:2", Payload: []byte("x"), Reliable: true})
	l.Send(netsim.Packet{From: "a:1", To: "b:2", Payload: []byte("x")})
	if err := l.Listen("b:2", func(netsim.Packet) {}); err == nil {
		t.Fatal("Listen on closed transport succeeded")
	}
	l.Close() // idempotent
}
