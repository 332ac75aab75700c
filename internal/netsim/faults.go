// Fault injection for the simulated network: scheduled bidirectional
// partitions between host pairs, scheduled host blackouts (outages), manual
// host crash/restart, and one-shot targeted drops. Faults kill packets of
// both reliability classes at Send time — a partition severs the modeled
// TCP connection just as it severs UDP — so the control plane's own
// retransmission, liveness and failover machinery is what has to recover.
//
// All fault schedules are expressed as offsets from the network's epoch
// (the clock time at New), the same convention as Phase, so a run is fully
// determined by the seed and the fault schedule.
//
// Fault state is guarded by the network's one lock: check runs inside
// transmit, which already holds it, and returns after one length test when
// no fault of any kind is registered. Dynamic flips (SetHostDown, DropNext)
// are race-safe from any goroutine; drive them from timers on the network's
// clock when replay fidelity matters.
package netsim

import (
	"errors"
	"fmt"
	"time"
)

// Typed fault causes. Send's error unwraps to them, so tests and cluster
// logic can distinguish a crashed host from a partition or an outage with
// errors.Is instead of matching on the error string:
//
//	if errors.Is(net.Send(pkt), netsim.ErrHostDown) { ... }
var (
	// ErrHostDown is the cause when either endpoint is crashed (SetHostDown).
	ErrHostDown = errors.New("host down")
	// ErrOutage is the cause during a scheduled host blackout (AddOutage).
	ErrOutage = errors.New("outage")
	// ErrPartitioned is the cause inside a scheduled partition window
	// (AddPartition).
	ErrPartitioned = errors.New("partition")
)

// faultWindow is one scheduled fault interval, as offsets from the epoch.
type faultWindow struct {
	start, end time.Duration
}

func (w faultWindow) contains(off time.Duration) bool {
	return off >= w.start && off < w.end
}

// oneShotDrop swallows the next n packets matching its predicate.
type oneShotDrop struct {
	remaining int
	err       error // the reason, built once for every drop
	match     func(Packet) bool
}

// faultDrop is Send's error for a fault-injected drop, formatted when read.
type faultDrop struct {
	from, to Addr
	cause    error  // ErrHostDown, ErrOutage, ErrPartitioned or a one-shot's reason
	host     string // the host a down or outage cause names
}

// reason is the drop's cause as the DropHandler reports it.
func (e *faultDrop) reason() string {
	switch e.cause {
	case ErrHostDown, ErrOutage:
		return e.cause.Error() + ": " + e.host
	case ErrPartitioned:
		return e.cause.Error() + ": " + e.from.Host() + "⇹" + e.to.Host()
	}
	return e.cause.Error()
}

func (e *faultDrop) Error() string {
	return "netsim: fault drop " + string(e.from) + "→" + string(e.to) + ": " + e.reason()
}

func (e *faultDrop) Unwrap() error { return e.cause }

// partitionKey is direction-independent: a partition severs both ways.
func partitionKey(a, b string) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{a, b}
}

// faultState holds every injected fault, guarded by the network's n.mu.
type faultState struct {
	partitions map[linkKey][]faultWindow
	outages    map[string][]faultWindow
	downHosts  map[string]bool
	oneShots   []*oneShotDrop
}

// AddPartition schedules a bidirectional partition between hosts a and b:
// every packet between them sent in [start, start+duration) — reliable or
// not — is dropped. start is an offset from the network's epoch.
func (n *Network) AddPartition(a, b string, start, duration time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	f := &n.faults
	if f.partitions == nil {
		f.partitions = map[linkKey][]faultWindow{}
	}
	key := partitionKey(a, b)
	f.partitions[key] = append(f.partitions[key], faultWindow{start: start, end: start + duration})
}

// AddOutage schedules a blackhole for one host: during [start,
// start+duration) every packet to or from it is dropped, modeling a crash
// followed by a restart. start is an offset from the network's epoch.
func (n *Network) AddOutage(host string, start, duration time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	f := &n.faults
	if f.outages == nil {
		f.outages = map[string][]faultWindow{}
	}
	f.outages[host] = append(f.outages[host], faultWindow{start: start, end: start + duration})
}

// SetHostDown crashes (true) or restarts (false) a host immediately: while
// down, every packet to or from it is dropped. Unlike AddOutage the
// duration is open-ended, for tests that decide recovery dynamically.
func (n *Network) SetHostDown(host string, down bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	f := &n.faults
	if f.downHosts == nil {
		f.downHosts = map[string]bool{}
	}
	if down {
		f.downHosts[host] = true
	} else {
		delete(f.downHosts, host)
	}
}

// DropNext swallows the next count packets sent from one host to another
// (either direction fixed by the arguments), regardless of reliability —
// the precision tool for losing exactly one reply.
func (n *Network) DropNext(from, to string, count int) {
	n.DropNextMatching(count, fmt.Sprintf("one-shot drop %s→%s", from, to), func(pkt Packet) bool {
		return pkt.From.Host() == from && pkt.To.Host() == to
	})
}

// DropNextMatching swallows the next count packets satisfying pred. reason
// is reported to the DropHandler and in the Send error. pred runs under the
// network's lock and must not call back into the network.
func (n *Network) DropNextMatching(count int, reason string, pred func(Packet) bool) {
	if count <= 0 || pred == nil {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	f := &n.faults
	f.oneShots = append(f.oneShots, &oneShotDrop{remaining: count, err: errors.New(reason), match: pred})
}

// check decides whether an injected fault kills the packet travelling from
// host fromH to host toH (pkt's own endpoints, parsed once by the caller) at
// offset from the epoch: cause is nil, a typed cause or a one-shot's reason,
// and host the endpoint a down or outage cause names. With no faults
// registered it is one length test. Caller holds n.mu.
func (f *faultState) check(pkt *Packet, fromH, toH string, offset time.Duration) (cause error, host string) {
	if len(f.downHosts)+len(f.outages)+len(f.partitions)+len(f.oneShots) == 0 {
		return nil, ""
	}
	if f.downHosts[fromH] {
		return ErrHostDown, fromH
	}
	if f.downHosts[toH] {
		return ErrHostDown, toH
	}
	for _, w := range f.outages[fromH] {
		if w.contains(offset) {
			return ErrOutage, fromH
		}
	}
	for _, w := range f.outages[toH] {
		if w.contains(offset) {
			return ErrOutage, toH
		}
	}
	for _, w := range f.partitions[partitionKey(fromH, toH)] {
		if w.contains(offset) {
			return ErrPartitioned, ""
		}
	}
	for i, os := range f.oneShots {
		if os.match(*pkt) {
			os.remaining--
			if os.remaining <= 0 {
				f.oneShots = append(f.oneShots[:i], f.oneShots[i+1:]...)
			}
			return os.err, ""
		}
	}
	return nil, ""
}
