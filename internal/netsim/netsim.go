// Package netsim is the broadband-network substrate: a deterministic
// packet-level network simulator with configurable bandwidth, propagation
// delay, jitter, random loss, and scripted congestion phases.
//
// The paper evaluated its service over 1996-era Internet/ATM testbeds whose
// only observable effects on the service are per-packet delay, delay
// variation and loss; netsim reproduces exactly those effects with
// controlled, repeatable statistics, which is what the buffering,
// synchronization and QoS-adaptation machinery react to.
//
// The simulator is driven by a clock.Clock: with a clock.Virtual it forms a
// discrete-event simulation, with clock.Wall it delays packets in real time.
// A Network is one lock (its fault schedule included), one RNG and one event
// stream: a seed plus a fault schedule replays identically, and every
// delivery is folded into DeliveryDigest, the fingerprint the replay tests
// compare across runs: its address hash, computed once in Listen, and its
// planned arrival, which is when a virtual clock fires it.
//
// # One send path
//
// Send and SendMulti are the same function, transmit, called with one
// destination or with many: a packet's fate — link accounting, injected
// fault, the sender's egress serializer, the link's queue, loss and jitter,
// the payload copy, the scheduled deliveries — is decided in one place, so a
// fan-out of one and a plain Send are indistinguishable in every counter,
// every drop cause and the delivery digest (TestSendIsFanOutOfOne).
//
// # Packet buffer ownership
//
// Send borrows pkt.Payload only for the duration of the call: the moment
// Send returns, the caller may reuse (or pool) the backing array. The
// simulated Network enforces this by copying the payload on enqueue —
// delivery is deferred through the clock and may even duplicate the packet,
// so retaining the caller's slice would alias whatever the caller writes
// next. Drops are decided before the copy, so a dropped packet takes none.
//
// A Network keeps two free lists under its lock, so a warm network sends
// and delivers without allocating. A payload is one copy of a transmission's
// bytes, shared by every arrival of it (each destination of a fan-out, and a
// duplicate), and it carries its own count of the deliveries still to run.
// A delivery is one scheduled arrival: the packet's fields (not a Packet,
// which is built when the handler runs), its payload and a clock timer bound
// once to the delivery, re-armed with Reset for each new arrival. A delivery
// returns to its free list only after its handler has returned, and the
// last delivery of a payload returns the payload, so a handler that sends
// (and so reuses freed deliveries) can never overwrite bytes another
// destination has yet to read. Symmetrically, the Payload a
// Handler receives is borrowed: it is valid only until the handler returns,
// after which the network recycles it. Handlers that keep payload bytes —
// the client's reassembly, for an observer's frames — must copy them out.
// Sniffer and DropHandler run synchronously inside Send and observe the
// caller's original buffer under the same rule. Every Net implementation
// (transport.Live encodes into fresh frames before returning; test sinks
// only count) honors the same contract.
package netsim

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/stats"
)

// Addr is an endpoint address of the form "host:port".
type Addr string

// Host returns the host part of the address.
func (a Addr) Host() string {
	s := string(a)
	if i := strings.LastIndex(s, ":"); i >= 0 {
		return s[:i]
	}
	return s
}

// MakeAddr builds an Addr from host and port.
func MakeAddr(host string, port int) Addr {
	return Addr(host + ":" + strconv.Itoa(port))
}

// Packet is one network datagram.
type Packet struct {
	From, To Addr
	Payload  []byte
	// Reliable selects the in-order lossless path (the simulator's model
	// of a TCP connection: losses become retransmission delay instead of
	// drops). Unreliable packets model UDP: they may be dropped or
	// reordered by jitter.
	Reliable bool
	// SentAt is stamped by the simulator at Send time.
	SentAt time.Time
}

// Size returns the wire size in bytes: payload plus a fixed per-packet
// header overhead (IP+UDP ≈ 28 bytes, counted for both paths for
// simplicity).
func (p *Packet) Size() int { return len(p.Payload) + headerOverhead }

const headerOverhead = 28

// Handler receives delivered packets.
type Handler func(Packet)

// Net is the datagram network the service components are written against:
// the simulated Network implements it for experiments, and
// transport.Live implements it over real UDP/TCP sockets for the
// cmd/hermesd and cmd/hermes binaries.
type Net interface {
	// Send injects a packet toward its destination. A non-nil error means
	// the transport itself refused or discarded the packet — a fault-injected
	// drop in the simulator, a closed or saturated socket in the live
	// transport. Ordinary stochastic loss inside the network is NOT an
	// error: it returns nil, exactly as a real socket send would.
	Send(Packet) error
	// Listen registers (or, with a nil handler, removes) the handler for
	// an address. It returns a non-nil error when the transport cannot
	// actually bind the address; only real-socket implementations can
	// fail — the simulated Network always returns nil.
	Listen(Addr, Handler) error
}

// MultiSender is optionally implemented by transports that can fan one
// packet out to several destinations with a single upstream transmission —
// the multicast model the shared-flow layer is built on. The payload
// ownership rule is identical to Send: the caller's buffer is borrowed only
// for the duration of the call. Implementations charge the sender's egress
// once for the whole fan-out; per-destination link behavior (loss, jitter,
// faults) still applies to each copy independently, and a per-destination
// failure never fails the batch.
type MultiSender interface {
	SendMulti(pkt Packet, tos []Addr) error
}

// LinkConfig describes one direction of a link between two hosts.
type LinkConfig struct {
	// Bandwidth is the link rate in bits per second (0 = infinite).
	Bandwidth float64
	// Delay is the fixed propagation delay.
	Delay time.Duration
	// Jitter is the maximum additional uniform random delay per packet.
	Jitter time.Duration
	// Loss is the independent per-packet loss probability [0,1).
	Loss float64
	// Dup is the probability an unreliable packet is delivered twice
	// (the duplicate arrives with fresh jitter), modeling routing
	// pathologies the receiver must tolerate.
	Dup float64
	// QueueLimit bounds the serialization backlog: a packet whose queueing
	// delay would exceed it is dropped (tail drop). Zero = 500ms.
	QueueLimit time.Duration
}

// DefaultLAN approximates a lightly loaded 10 Mb/s campus link.
func DefaultLAN() LinkConfig {
	return LinkConfig{Bandwidth: 10_000_000, Delay: 5 * time.Millisecond, Jitter: 2 * time.Millisecond, Loss: 0.0005}
}

// DefaultWAN approximates a mid-90s wide-area Internet path.
func DefaultWAN() LinkConfig {
	return LinkConfig{Bandwidth: 2_000_000, Delay: 40 * time.Millisecond, Jitter: 20 * time.Millisecond, Loss: 0.01}
}

// Phase is one scripted congestion episode on a link: between Start and
// Start+Duration the link's loss is multiplied, its delay increased and its
// bandwidth scaled.
type Phase struct {
	Start    time.Duration
	Duration time.Duration
	// LossFactor multiplies the configured loss probability (≥ 1 for
	// congestion; capped at 0.95 effective loss).
	LossFactor float64
	// ExtraDelay is added to the propagation delay.
	ExtraDelay time.Duration
	// ExtraJitter is added to the jitter bound.
	ExtraJitter time.Duration
	// BandwidthFactor scales the bandwidth (0 < f ≤ 1 for congestion).
	BandwidthFactor float64
}

// LinkStats aggregates one direction's counters. Nothing is retained per
// packet: a receiver that wants delays measures them where it stands, as
// clk.Since(pkt.SentAt).
type LinkStats struct {
	Sent      int
	Delivered int
	Dropped   int
	Bytes     int64
}

// LossRate returns the observed drop fraction.
func (ls *LinkStats) LossRate() float64 {
	if ls.Sent == 0 {
		return 0
	}
	return float64(ls.Dropped) / float64(ls.Sent)
}

// link is one direction of a host pair. Its clocks, like an egress's, are
// offsets from the network's epoch: a hop is planned on integer time.
type link struct {
	cfg    LinkConfig
	phases []Phase
	rng    *stats.RNG
	// nextFree is when the serializer finishes the last accepted packet.
	nextFree time.Duration
	// lastReliableArrival enforces in-order delivery on the reliable path
	// per link direction; noArrival until the first reliable arrival.
	lastReliableArrival time.Duration
	stats               LinkStats
}

// noArrival is an instant before every arrival: a link's last reliable
// arrival before it has any, and a plan's duplicate when there is none.
const noArrival = time.Duration(math.MinInt64)

// egress is a per-host outbound serializer shared by every link leaving the
// host — the model of a server's access/uplink capacity that all of its
// clients compete for.
type egress struct {
	rate       float64 // bits/s
	queueLimit time.Duration
	nextFree   time.Duration
}

// Network is the simulated network: a set of host-pair links, per-host
// egress serializers and registered endpoints, all guarded by mu.
type Network struct {
	clk   clock.Clock
	epoch time.Time

	mu        sync.Mutex
	rng       *stats.RNG
	links     map[linkKey]*link
	egresses  map[string]*egress
	endpoints map[Addr]endpoint
	defaults  LinkConfig

	// delivered and digest fold every packet delivery into the replay
	// fingerprint DeliveryDigest returns.
	delivered int64
	digest    uint64

	// Free lists of recycled deliveries and payload copies (see "Packet
	// buffer ownership").
	freeDeliveries *delivery
	freePayloads   *payload

	// DropHandler, when set, observes every packet the network refuses at
	// Send time, with the cause: an injected fault (which kills reliable and
	// unreliable packets alike), or egress overflow, queue overflow or loss
	// (unreliable packets only). Set it before traffic starts; it is read
	// without synchronization on the hot path.
	DropHandler func(Packet, string)
	// Sniffer, when set, observes every packet at Send time (before any
	// loss decision); used for protocol-stack byte accounting.
	Sniffer func(Packet)
	// Fault-injection state (see faults.go), guarded by mu like everything
	// else. Windows are offsets from the network's epoch, so a given seed
	// plus a given fault schedule replays identically.
	faults faultState
}

// New creates a network on the given clock. seed drives all randomness.
func New(clk clock.Clock, seed uint64) *Network {
	return &Network{
		clk:       clk,
		epoch:     clk.Now(),
		rng:       stats.NewRNG(seed),
		links:     map[linkKey]*link{},
		egresses:  map[string]*egress{},
		endpoints: map[Addr]endpoint{},
		defaults:  DefaultLAN(),
	}
}

// SetEgressLimit caps a host's total outbound rate: every packet the host
// sends, to any destination, passes one shared serializer before its link.
// A zero queueLimit defaults to 500ms of backlog (tail drop beyond it for
// unreliable packets).
func (n *Network) SetEgressLimit(host string, bps float64, queueLimit time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if bps <= 0 {
		delete(n.egresses, host)
		return
	}
	if queueLimit <= 0 {
		queueLimit = 500 * time.Millisecond
	}
	n.egresses[host] = &egress{rate: bps, queueLimit: queueLimit}
}

// SetDefaultLink sets the config used for host pairs without an explicit
// link.
func (n *Network) SetDefaultLink(cfg LinkConfig) {
	n.mu.Lock()
	n.defaults = cfg
	n.mu.Unlock()
}

// SetLink configures the directed link from one host to another.
func (n *Network) SetLink(from, to string, cfg LinkConfig) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.getLinkLocked(from, to).cfg = cfg
}

// SetDuplexLink configures both directions identically.
func (n *Network) SetDuplexLink(a, b string, cfg LinkConfig) {
	n.SetLink(a, b, cfg)
	n.SetLink(b, a, cfg)
}

// AddPhase appends a congestion phase to the directed link.
func (n *Network) AddPhase(from, to string, p Phase) {
	n.mu.Lock()
	defer n.mu.Unlock()
	l := n.getLinkLocked(from, to)
	l.phases = append(l.phases, p)
	sort.SliceStable(l.phases, func(i, j int) bool { return l.phases[i].Start < l.phases[j].Start })
}

// linkKey names a pair of hosts: the directed link from→to in the links map,
// the ordered pair of a partition in the fault schedule.
type linkKey struct{ from, to string }

// getLinkLocked returns (creating on demand) the directed link. Caller
// holds n.mu. A new link splits its RNG from the network's stream —
// creation order is part of the replay.
func (n *Network) getLinkLocked(from, to string) *link {
	key := linkKey{from, to}
	l, ok := n.links[key]
	if !ok {
		l = &link{cfg: n.defaults, rng: n.rng.Split(), lastReliableArrival: noArrival}
		n.links[key] = l
	}
	return l
}

// endpoint is a registered handler and the hash the digest folds for its address.
type endpoint struct {
	h    Handler
	hash uint64
}

// Listen registers a handler for packets addressed to addr, replacing any
// previous handler. A nil handler unregisters. The simulated network can
// always bind, so the error is always nil.
func (n *Network) Listen(addr Addr, h Handler) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if h == nil {
		delete(n.endpoints, addr)
		return nil
	}
	n.endpoints[addr] = endpoint{h: h, hash: fnv64str(string(addr))}
	return nil
}

// Stats returns a snapshot of the directed link's counters. A pair that has
// no link yet reads as zero and stays absent: creating the link here would
// split the network's RNG and shift every later loss and jitter draw.
func (n *Network) Stats(from, to string) LinkStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	if l, ok := n.links[linkKey{from, to}]; ok {
		return l.stats
	}
	return LinkStats{}
}

// Totals aggregates sent/delivered/dropped/bytes over every link — the
// harness-facing roll-up.
func (n *Network) Totals() (sent, delivered, dropped int, bytes int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, l := range n.links {
		sent += l.stats.Sent
		delivered += l.stats.Delivered
		dropped += l.stats.Dropped
		bytes += l.stats.Bytes
	}
	return
}

// DeliveryDigest folds the running delivery digest and the delivered-packet
// count into one replay fingerprint for the whole network.
func (n *Network) DeliveryDigest() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return fnvMix(fnvMix(fnvOffset, n.digest), uint64(n.delivered))
}

// activePhase returns the multipliers in effect at offset t.
func (l *link) activePhase(t time.Duration) (lossF float64, extraD, extraJ time.Duration, bwF float64) {
	lossF, bwF = 1, 1
	for _, p := range l.phases {
		if t >= p.Start && t < p.Start+p.Duration {
			if p.LossFactor > 0 {
				lossF *= p.LossFactor
			}
			extraD += p.ExtraDelay
			extraJ += p.ExtraJitter
			if p.BandwidthFactor > 0 {
				bwF *= p.BandwidthFactor
			}
		}
	}
	return lossF, extraD, extraJ, bwF
}

// linkPlanLocked runs one packet sent at now through the link's queueing,
// loss and delay machinery: egress and link serialization, tail drop,
// stochastic loss, jitter, reliable-path retransmission and ordering. It
// returns the arrival, a duplicate (or noArrival) and a drop cause ("" =
// delivered), all instants offsets from the epoch. Caller holds n.mu.
func (n *Network) linkPlanLocked(l *link, pkt *Packet, now, egressStart time.Duration) (arrival, dupArrival time.Duration, dropCause string) {
	lossF, extraD, extraJ, bwF := l.activePhase(now)

	// Serialization: the link transmits one packet at a time.
	bw := l.cfg.Bandwidth * bwF
	var txTime time.Duration
	if bw > 0 {
		txTime = time.Duration(float64(pkt.Size()*8) / bw * float64(time.Second))
	}
	depart := max(egressStart, l.nextFree)
	queueLimit := l.cfg.QueueLimit
	if queueLimit == 0 {
		queueLimit = 500 * time.Millisecond
	}
	if depart-now > queueLimit && !pkt.Reliable {
		return noArrival, noArrival, "queue overflow"
	}
	l.nextFree = depart + txTime

	// Loss decision.
	ploss := min(l.cfg.Loss*lossF, 0.95)

	delay := l.cfg.Delay + extraD
	jitterBound := l.cfg.Jitter + extraJ
	if jitterBound > 0 {
		delay += time.Duration(l.rng.Float64() * float64(jitterBound))
	}

	lost := ploss > 0 && l.rng.Bool(ploss)
	if lost && !pkt.Reliable {
		return noArrival, noArrival, "loss"
	}
	arrival = l.nextFree + delay
	if lost && pkt.Reliable {
		// Reliable path: the loss becomes a retransmission, costing one
		// round trip plus a retransmission of the packet. Repeated losses
		// compound geometrically.
		for lost {
			arrival += 2*(l.cfg.Delay+extraD) + txTime
			lost = l.rng.Bool(ploss)
		}
	}
	if pkt.Reliable {
		// TCP delivers in order per connection; model per link direction.
		if arrival <= l.lastReliableArrival {
			arrival = l.lastReliableArrival + time.Microsecond
		}
		l.lastReliableArrival = arrival
	}
	l.stats.Delivered++
	dupArrival = noArrival
	if !pkt.Reliable && l.cfg.Dup > 0 && l.rng.Bool(l.cfg.Dup) {
		dupArrival = arrival + time.Millisecond + time.Duration(l.rng.Float64()*float64(jitterBound+time.Millisecond))
	}
	return arrival, dupArrival, ""
}

// egressLocked passes pkt, sent at now, through the sending host's egress
// serializer, the one queue everything the host sends shares: it returns
// when the packet has left (now, for a host without an egress limit), or
// overflow when an unreliable packet would wait longer than the queue
// limit, and then charges nothing. Caller holds n.mu.
func (n *Network) egressLocked(host string, pkt *Packet, now time.Duration) (start time.Duration, overflow bool) {
	eg, ok := n.egresses[host]
	if !ok {
		return now, false
	}
	start = max(now, eg.nextFree)
	if start-now > eg.queueLimit && !pkt.Reliable {
		return start, true
	}
	eg.nextFree = start + time.Duration(float64(pkt.Size()*8)/eg.rate*float64(time.Second))
	return eg.nextFree, false
}

// payload is one copy of a transmission's bytes, shared by all its arrivals.
// refs counts the deliveries that have yet to run; next links the free list.
// Both are guarded by the network's lock.
type payload struct {
	b    []byte
	refs int
	next *payload
}

// delivery is one scheduled arrival of a packet: the packet's fields, not a
// Packet, with its send and planned arrival instants as offsets from the
// epoch. Its timer is bound to deliver once, when the delivery is first
// made, and re-armed with Reset every time the delivery is reused. While a
// delivery is being planned, next chains the arrivals of one transmission;
// on the free list it links the list.
type delivery struct {
	n          *Network
	from, to   Addr
	sentAt, at time.Duration
	pl         *payload
	timer      *clock.Timer
	next       *delivery
	reliable   bool
}

// newDeliveryLocked takes a delivery off the free list, or makes one.
// Caller holds n.mu.
func (n *Network) newDeliveryLocked() *delivery {
	d := n.freeDeliveries
	if d == nil {
		return &delivery{n: n}
	}
	n.freeDeliveries, d.next = d.next, nil
	return d
}

// newPayloadLocked copies b into a payload off the free list, or a new one,
// with no readers yet. Caller holds n.mu.
func (n *Network) newPayloadLocked(b []byte) *payload {
	pl := n.freePayloads
	if pl == nil {
		pl = &payload{}
	} else {
		n.freePayloads, pl.next = pl.next, nil
	}
	pl.b = append(pl.b[:0], b...)
	return pl
}

// arm schedules the delivery at its planned arrival.
func (d *delivery) arm() {
	wait := d.at - d.sentAt
	if d.timer == nil {
		d.timer = d.n.clk.AfterFunc(wait, d.deliver)
		return
	}
	d.timer.Reset(wait)
}

// deliver is the arrival: it folds the packet into the replay digest at its
// planned arrival, which is when a virtual clock fires it, builds the
// handler's Packet, runs the destination's handler, and only then recycles
// the delivery, and the payload if this was its last reader.
func (d *delivery) deliver() {
	n := d.n
	n.mu.Lock()
	ep, ok := n.endpoints[d.to]
	if !ok {
		ep.hash = fnv64str(string(d.to))
	}
	n.delivered++
	n.digest = deliveryFold(n.digest, ep.hash, d.at, len(d.pl.b))
	n.mu.Unlock()
	if ep.h != nil {
		ep.h(Packet{From: d.from, To: d.to, Payload: d.pl.b, Reliable: d.reliable, SentAt: n.epoch.Add(d.sentAt)})
	}
	n.mu.Lock()
	pl := d.pl
	if pl.refs--; pl.refs == 0 {
		n.freePayloads, pl.next = pl, n.freePayloads
	}
	d.from, d.to, d.pl = "", "", nil
	n.freeDeliveries, d.next = d, n.freeDeliveries
	n.mu.Unlock()
}

// transmit is the one send path: pkt leaves its sender once and is offered to
// every destination in tos, in order. Under the network's lock each
// destination's link counts the packet, an injected fault may kill it, and
// the link plans its arrival (a duplicate is a second arrival). The sender's
// egress serializer is charged once per transmission, by the first
// destination no fault killed, so a fan-out whose every destination is
// partitioned or down consumes no uplink. Refusals reach the DropHandler
// after the lock is released, and then the accepted arrivals are armed in
// plan order; they share one copy of the payload, which the last delivery
// frees. fault is the injected fault that killed a destination (a nil
// cause if none did): Send, with its one destination, is its reader.
func (n *Network) transmit(pkt Packet, tos []Addr) (fault faultDrop) {
	from := pkt.From.Host()
	now := n.clk.Now()
	pkt.SentAt = now
	if sn := n.Sniffer; sn != nil {
		sn(pkt)
	}
	offset := now.Sub(n.epoch)

	type refusal struct {
		to    Addr
		cause string
	}
	// Backing for a fan-out of one that stays off the heap.
	var refusalBuf [1]refusal
	refusals := refusalBuf[:0]
	// The planned arrivals, chained in plan order through delivery.next, and
	// the one copy of the payload they share.
	var first, last *delivery
	var pl *payload
	var egressStart time.Duration
	charged, overflow := false, false

	n.mu.Lock()
	for _, to := range tos {
		pkt.To = to
		toHost := to.Host()
		l := n.getLinkLocked(from, toHost)
		l.stats.Sent++
		l.stats.Bytes += int64(pkt.Size())

		var at, dupAt time.Duration
		cause := "egress overflow"
		// Injected faults kill the packet regardless of reliability: a
		// partitioned or downed host drops TCP segments just as surely as UDP
		// datagrams. Only a DropHandler reads the formatted reason.
		if fc, fh := n.faults.check(&pkt, from, toHost, offset); fc != nil {
			fault, cause = faultDrop{from: pkt.From, to: to, cause: fc, host: fh}, fc.Error()
			if n.DropHandler != nil {
				cause = fault.reason()
			}
		} else {
			if !charged {
				egressStart, overflow = n.egressLocked(from, &pkt, offset)
				charged = true
			}
			if !overflow {
				at, dupAt, cause = n.linkPlanLocked(l, &pkt, offset, egressStart)
			}
		}
		if cause != "" {
			l.stats.Dropped++
			refusals = append(refusals, refusal{to, cause})
			continue
		}
		for _, when := range [2]time.Duration{at, dupAt} {
			if when == noArrival {
				break
			}
			if pl == nil {
				// Delivery is deferred, but the caller owns pkt.Payload again
				// as soon as the call returns: copy on enqueue, once.
				pl = n.newPayloadLocked(pkt.Payload)
			}
			pl.refs++
			d := n.newDeliveryLocked()
			d.from, d.to, d.reliable, d.pl = pkt.From, to, pkt.Reliable, pl
			// The clock fires a past deadline at once, so that is the arrival.
			d.sentAt, d.at = offset, max(when, offset)
			if last == nil {
				first = d
			} else {
				last.next = d
			}
			last = d
		}
	}
	n.mu.Unlock()

	if dh := n.DropHandler; dh != nil {
		for _, r := range refusals {
			pkt.To = r.to
			dh(pkt, r.cause)
		}
	}
	for d := first; d != nil; {
		// On a wall clock the delivery may fire, and be recycled, as soon as
		// it is armed: read the chain first.
		next := d.next
		d.next = nil
		d.arm()
		d = next
	}
	return fault
}

// Send injects a packet. Delivery (or drop) is decided immediately and the
// handler is invoked via the clock at the computed arrival time. Sending to
// an address with no listener silently drops at arrival time. Only
// fault-injected drops (partitions, outages, downed hosts, one-shot drops)
// return an error; stochastic loss and tail drop return nil.
func (n *Network) Send(pkt Packet) error {
	if fault := n.transmit(pkt, []Addr{pkt.To}); fault.cause != nil {
		// Unwrap keeps the typed cause (ErrHostDown, ErrPartitioned, ...)
		// reachable through errors.Is.
		err := fault
		return &err
	}
	return nil
}

// SendMulti implements MultiSender: one packet, many destinations, one
// transmission. The sending host's egress serializer is charged once — the
// multicast model: fanning a hot flow out to N subscribers does not multiply
// the server's uplink load — while each destination's link still makes its
// own serialization, loss, jitter and fault decisions. Per-destination
// failures never fail the batch; like stochastic loss in Send, they return
// nil. An empty destination list sends nothing.
func (n *Network) SendMulti(pkt Packet, tos []Addr) error {
	if len(tos) > 0 {
		n.transmit(pkt, tos)
	}
	return nil
}

// FNV-1a folding for the replay digests.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvMix(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime
		x >>= 8
	}
	return h
}

func fnv64str(s string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// deliveryFold mixes one delivery (address hash, arrival offset, size) into h.
func deliveryFold(h, to uint64, at time.Duration, size int) uint64 {
	if h == 0 {
		h = fnvOffset
	}
	h = fnvMix(h, to)
	h = fnvMix(h, uint64(at))
	h = fnvMix(h, uint64(size))
	return h
}
