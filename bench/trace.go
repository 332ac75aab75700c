package main

import (
	"strconv"
	"strings"
	"time"

	"repro/internal/clock"
	"repro/internal/netsim"
)

// The tracer measures the service from outside: it wraps the two interfaces
// every component is constructed with — clock.Clock and netsim.Net — and
// keeps a span stack, so each span has a parent and
//
//	self time = duration − time covered by child spans.
//
// The simulation is driven by one goroutine, so spans nest strictly and the
// stack needs no lock. Nothing inside the product is instrumented.

// layer is one row of the per-layer budget.
type layer int

const (
	lClock layer = iota // the gaps between callbacks: heap pop, time advance
	lNetSend
	lNetSendMulti
	lNetDeliver
	lServerCtrl
	lServerEmit
	lServerSweep
	lClientCtrl
	lClientMedia
	lClientPlayout
	lClientKeepalive
	lHarness // the benchmark's own viewer scripts
	numLayers
)

var layerNames = [numLayers]string{
	"clock", "netsim.send", "netsim.sendmulti", "netsim.deliver",
	"server.ctrl", "server.emit", "server.sweep",
	"client.ctrl", "client.media", "client.playout", "client.keepalive",
	"harness",
}

// owner says which component a wrapped clock or net was handed to.
type owner int

const (
	ownNetsim owner = iota
	ownServer
	ownClient
	ownHarness
)

type span struct {
	start time.Time
	child time.Duration
	// What the span sent directly; timer callbacks are classified by it
	// when they return.
	sentMedia bool // an unreliable packet
	sentCtrl  bool // a reliable packet
}

type layerStat struct {
	n    int64
	self time.Duration
}

type tracer struct {
	now    func() time.Time // time.Now, replaced in tests
	stack  []span
	layers [numLayers]layerStat
	// lastEnd is when the previous top-level span ended: the gap to the
	// next top-level begin is the clock popping its heap.
	lastEnd time.Time
}

func newTracer() *tracer { return &tracer{now: time.Now} }

// start marks the beginning of the driven run; the gap before the first
// callback counts as clock time.
func (t *tracer) start() { t.lastEnd = t.now() }

// stop closes the last gap.
func (t *tracer) stop() { t.layers[lClock].self += t.now().Sub(t.lastEnd) }

// accounted is Σ self over all layers: the run's wall time, if the budget
// closes.
func (t *tracer) accounted() time.Duration {
	var sum time.Duration
	for _, l := range t.layers {
		sum += l.self
	}
	return sum
}

func (t *tracer) begin() {
	now := t.now()
	if len(t.stack) == 0 {
		t.layers[lClock].self += now.Sub(t.lastEnd)
		t.layers[lClock].n++ // one event popped
	}
	t.stack = append(t.stack, span{start: now})
}

// end pops the current span and books it to the layer pick chooses from
// what the span did.
func (t *tracer) end(pick func(*span) layer) {
	now := t.now()
	top := len(t.stack) - 1
	s := &t.stack[top]
	dur := now.Sub(s.start)
	l := pick(s)
	t.layers[l].n++
	t.layers[l].self += dur - s.child
	t.stack = t.stack[:top]
	if top == 0 {
		t.lastEnd = now
	} else {
		t.stack[top-1].child += dur
	}
}

func fixed(l layer) func(*span) layer { return func(*span) layer { return l } }

// classifyTimer books a timer callback by its owner and by what it sent.
func classifyTimer(o owner) func(*span) layer {
	switch o {
	case ownNetsim:
		return fixed(lNetDeliver)
	case ownServer:
		return func(s *span) layer {
			if s.sentMedia {
				return lServerEmit
			}
			return lServerSweep
		}
	case ownClient:
		return func(s *span) layer {
			if s.sentCtrl {
				return lClientKeepalive
			}
			return lClientPlayout
		}
	}
	return fixed(lHarness)
}

// tracedClock times every AfterFunc callback registered through it. The
// timers are the inner clock's own, so a Reset re-arms the wrapped callback;
// scheduling itself (AfterFunc, Stop, Reset: the heap push) is not a span and
// stays in the calling layer.
type tracedClock struct {
	clock.Clock
	t    *tracer
	pick func(*span) layer
}

func (t *tracer) clock(inner clock.Clock, o owner) clock.Clock {
	return &tracedClock{Clock: inner, t: t, pick: classifyTimer(o)}
}

func (c *tracedClock) AfterFunc(d time.Duration, fn func()) *clock.Timer {
	return c.Clock.AfterFunc(d, func() {
		c.t.begin()
		fn()
		c.t.end(c.pick)
	})
}

// tracedNet times Send, SendMulti and every Listen handler registered
// through it.
type tracedNet struct {
	inner *netsim.Network
	t     *tracer
	own   owner
}

func (t *tracer) net(inner *netsim.Network, o owner) *tracedNet {
	return &tracedNet{inner: inner, t: t, own: o}
}

func (n *tracedNet) mark(reliable bool) {
	if top := len(n.t.stack) - 1; top >= 0 {
		if reliable {
			n.t.stack[top].sentCtrl = true
		} else {
			n.t.stack[top].sentMedia = true
		}
	}
}

func (n *tracedNet) Send(pkt netsim.Packet) error {
	n.mark(pkt.Reliable)
	n.t.begin()
	err := n.inner.Send(pkt)
	n.t.end(fixed(lNetSend))
	return err
}

func (n *tracedNet) SendMulti(pkt netsim.Packet, tos []netsim.Addr) error {
	n.mark(pkt.Reliable)
	n.t.begin()
	err := n.inner.SendMulti(pkt, tos)
	n.t.end(fixed(lNetSendMulti))
	return err
}

// Listen keys the handler's layer by owner and port: a server listens only
// on its control port; a client's control port is its lowest, its media
// ports sit above clientMediaBase.
func (n *tracedNet) Listen(addr netsim.Addr, h netsim.Handler) error {
	if h == nil {
		return n.inner.Listen(addr, nil)
	}
	l := lServerCtrl
	if n.own == ownClient {
		l = lClientCtrl
		if port(addr) >= clientMediaBase {
			l = lClientMedia
		}
	}
	pick := fixed(l)
	return n.inner.Listen(addr, func(pkt netsim.Packet) {
		n.t.begin()
		h(pkt)
		n.t.end(pick)
	})
}

func port(a netsim.Addr) int {
	s := string(a)
	p, _ := strconv.Atoi(s[strings.LastIndexByte(s, ':')+1:])
	return p
}

var (
	_ netsim.Net         = (*tracedNet)(nil)
	_ netsim.MultiSender = (*tracedNet)(nil)
)
