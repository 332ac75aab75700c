package qos

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/obs"
)

// PricingClass is the user's pricing contract tier. The paper's admission
// rule: "a user who pays more should be serviced, even though it affects the
// other users".
type PricingClass int

// Pricing classes.
const (
	Economy PricingClass = iota
	Standard
	Premium
)

func (c PricingClass) String() string {
	switch c {
	case Economy:
		return "economy"
	case Standard:
		return "standard"
	case Premium:
		return "premium"
	default:
		return "unknown"
	}
}

// ShareCap returns the fraction of server capacity connections of this
// class may collectively occupy.
func (c PricingClass) ShareCap() float64 {
	switch c {
	case Economy:
		return 0.6
	case Standard:
		return 0.85
	default:
		return 1.0
	}
}

// ConnRequest describes a connection asking for admission.
type ConnRequest struct {
	// User identifies the requester.
	User string
	// Class is the pricing contract.
	Class PricingClass
	// PeakRate is the connection's full-quality bandwidth need (bits/s) —
	// the "potential load that will be caused due to the new connection".
	PeakRate float64
	// MinRate is the bandwidth of the user's lowest acceptable quality
	// (the QoS/Quality-of-Presentation floor); admission below this is a
	// rejection.
	MinRate float64
	// Resumed marks a failover re-admission: the user already held a
	// session on a replica that died, and this request restores it here.
	// It goes through the same capacity check as a fresh connection, but
	// is counted separately so failover load is visible.
	Resumed bool
}

// Verdict classifies an admission decision.
type Verdict int

// Admission verdicts.
const (
	// Admitted at full quality.
	Admitted Verdict = iota
	// AdmittedDegraded got in below peak rate but at or above the floor.
	AdmittedDegraded
	// Rejected could not be served above the user's floor.
	Rejected
)

func (v Verdict) String() string {
	switch v {
	case Admitted:
		return "admitted"
	case AdmittedDegraded:
		return "admitted-degraded"
	case Rejected:
		return "rejected"
	default:
		return "unknown"
	}
}

// Decision is the admission controller's answer.
type Decision struct {
	Verdict Verdict
	// Rate is the granted bandwidth (0 when rejected).
	Rate float64
	// ConnID identifies the reservation for Release.
	ConnID int
	// Squeezed lists connections whose rate was reduced to make room for
	// a higher-paying user.
	Squeezed []int
	Reason   string
}

type reservation struct {
	id      int
	user    string
	class   PricingClass
	rate    float64
	minRate float64
}

// Admission is the connection-establishment mechanism: it evaluates the
// network's condition (current reservations vs capacity), the potential load
// of the new connection, the user's acceptable floor and the pricing
// contract.
type Admission struct {
	mu       sync.Mutex
	capacity float64
	nextID   int
	conns    map[int]*reservation
	// reserved is the running sum of every reservation's rate, maintained
	// incrementally on admit/release/squeeze/renegotiate so evaluating a
	// request is O(1) in the number of resident connections — a connect
	// storm of N clients costs O(N), not O(N²).
	reserved float64
	// decisions counts every verdict rendered (admitted + degraded +
	// rejected across classes); the server's connect-storm tests assert
	// exactly one per storm client.
	decisions int64
	// counters
	admitted, degraded, rejected map[PricingClass]int
	obs                          *obs.Scope
}

// NewAdmission creates a controller for a server with the given outbound
// capacity in bits/s.
func NewAdmission(capacity float64) *Admission {
	return &Admission{
		capacity: capacity,
		conns:    map[int]*reservation{},
		admitted: map[PricingClass]int{},
		degraded: map[PricingClass]int{},
		rejected: map[PricingClass]int{},
	}
}

// SetObs attaches a telemetry scope: every verdict emits an
// AdmissionDecision trace event (pricing class in the note) and bumps a
// class-labeled counter; the reserved-bandwidth gauge tracks the pool.
// Nil detaches.
func (a *Admission) SetObs(s *obs.Scope) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.obs = s
}

// recordDecisionLocked mirrors one admission decision into the telemetry
// scope.
func (a *Admission) recordDecisionLocked(req ConnRequest, d Decision) {
	if !a.obs.Enabled() {
		return
	}
	verdict := d.Verdict.String()
	class := req.Class.String()
	a.obs.Counter(obs.Label("admission_decisions", "class", class, "verdict", verdict)).Inc()
	if req.Resumed {
		a.obs.Counter("admission_failover_readmits").Inc()
	}
	a.obs.Gauge("admission_reserved_bps").Set(int64(a.reserved))
	// The user and the granted rate are the event's Stream and Value.
	note := verdict + " class=" + class
	if req.Resumed {
		note += " (failover re-admission)"
	}
	if len(d.Squeezed) > 0 {
		note += fmt.Sprintf(" squeezed=%d", len(d.Squeezed))
	}
	if d.Reason != "" {
		note += ": " + d.Reason
	}
	a.obs.Emit(obs.EvAdmissionDecision, req.User, int64(d.Rate), note)
}

// Decisions returns the total number of admission verdicts rendered.
func (a *Admission) Decisions() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.decisions
}

// Utilization returns reserved/capacity.
func (a *Admission) Utilization() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.capacity <= 0 {
		return 0
	}
	return a.reserved / a.capacity
}

// OverWatermark reports whether reserved bandwidth has reached frac of
// capacity — the load signal behind the cluster's admission redirects. A
// non-positive frac disables the watermark.
func (a *Admission) OverWatermark(frac float64) bool {
	if frac <= 0 {
		return false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.capacity <= 0 {
		return false
	}
	return a.reserved >= frac*a.capacity
}

// Counts returns (admitted, degraded, rejected) counts for a class.
func (a *Admission) Counts(c PricingClass) (adm, deg, rej int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.admitted[c], a.degraded[c], a.rejected[c]
}

// Request evaluates a connection request.
func (a *Admission) Request(req ConnRequest) Decision {
	a.mu.Lock()
	defer a.mu.Unlock()
	d := a.requestLocked(req)
	a.decisions++
	a.recordDecisionLocked(req, d)
	return d
}

func (a *Admission) requestLocked(req ConnRequest) Decision {
	if req.MinRate <= 0 {
		req.MinRate = req.PeakRate
	}
	cap := a.capacity * req.Class.ShareCap()
	used := a.reserved
	free := cap - used

	if req.PeakRate <= free {
		d := a.admitLocked(req, req.PeakRate, nil)
		d.Verdict = Admitted
		a.admitted[req.Class]++
		return d
	}
	if req.MinRate <= free {
		d := a.admitLocked(req, free, nil)
		d.Verdict = AdmittedDegraded
		d.Reason = "admitted below peak rate: network loaded"
		a.degraded[req.Class]++
		return d
	}
	// A premium user may squeeze lower classes down to their floors.
	if req.Class == Premium {
		squeezed, freed := a.squeezeLocked(req.MinRate - free)
		if freed > 0 {
			free += freed
		}
		if req.MinRate <= free {
			rate := req.PeakRate
			if rate > free {
				rate = free
			}
			d := a.admitLocked(req, rate, squeezed)
			if rate < req.PeakRate {
				d.Verdict = AdmittedDegraded
				d.Reason = "premium admitted by squeezing lower classes"
				a.degraded[req.Class]++
			} else {
				d.Verdict = Admitted
				a.admitted[req.Class]++
			}
			return d
		}
	}
	a.rejected[req.Class]++
	return Decision{Verdict: Rejected, Reason: fmt.Sprintf(
		"insufficient capacity: need ≥ %.0f b/s, free %.0f b/s (class cap %.0f)", req.MinRate, free, cap)}
}

// squeezeLocked reduces Economy then Standard reservations toward their
// floors until need is freed; returns the squeezed conn ids and the total
// freed bandwidth.
func (a *Admission) squeezeLocked(need float64) ([]int, float64) {
	var squeezed []int
	freed := 0.0
	for _, class := range []PricingClass{Economy, Standard} {
		// Deterministic order: ascending id.
		ids := make([]int, 0, len(a.conns))
		for id := range a.conns {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			if freed >= need {
				break
			}
			r := a.conns[id]
			if r.class != class || r.rate <= r.minRate {
				continue
			}
			cut := r.rate - r.minRate
			if cut > need-freed {
				cut = need - freed
			}
			r.rate -= cut
			a.reserved -= cut
			freed += cut
			squeezed = append(squeezed, id)
		}
	}
	return squeezed, freed
}

func (a *Admission) admitLocked(req ConnRequest, rate float64, squeezed []int) Decision {
	a.nextID++
	r := &reservation{id: a.nextID, user: req.User, class: req.Class, rate: rate, minRate: req.MinRate}
	a.conns[r.id] = r
	a.reserved += rate
	return Decision{Rate: rate, ConnID: r.id, Squeezed: squeezed}
}

// Renegotiate adjusts a connection's reserved rate mid-session, after the
// connection-oriented service renegotiation of Krishnamurthy & Little
// [KRI 94]: quality grading lowers the stream mix's rate, and renegotiating
// the reservation down returns the difference to the admission pool (so new
// connections can use it); renegotiating up succeeds only when the class's
// capacity share still fits. It reports the rate actually granted.
func (a *Admission) Renegotiate(connID int, newRate float64) (float64, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	r, ok := a.conns[connID]
	if !ok {
		return 0, false
	}
	if newRate < r.minRate {
		newRate = r.minRate
	}
	if newRate <= r.rate {
		a.reserved -= r.rate - newRate
		r.rate = newRate
		return r.rate, true
	}
	cap := a.capacity * r.class.ShareCap()
	free := cap - a.reserved
	grant := r.rate + free
	if grant > newRate {
		grant = newRate
	}
	if grant < r.rate {
		grant = r.rate
	}
	a.reserved += grant - r.rate
	r.rate = grant
	return r.rate, grant == newRate
}

// Release frees a reservation. Unknown ids are ignored.
func (a *Admission) Release(connID int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	r, ok := a.conns[connID]
	if !ok {
		return
	}
	a.reserved -= r.rate
	delete(a.conns, connID)
	if len(a.conns) == 0 {
		// Snap accumulated float error back to exactly zero on an empty
		// pool, so "everything released" reads as reserved == 0.
		a.reserved = 0
	}
}
