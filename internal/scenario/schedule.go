package scenario

import (
	"sort"
	"time"
)

// Entry is the paper's per-stream structure E_i: everything the client's
// presentation scheduler needs to arrange one stream's playout — its timing
// parameters, its buffer key and bookkeeping fields.
type Entry struct {
	// Stream is the scheduled stream S_i.
	Stream *Stream
	// PlayAt is the playout deadline t_i relative to presentation start.
	PlayAt time.Duration
	// EndAt is t_i + d_i (equal to PlayAt for open-ended stills).
	EndAt time.Duration
	// BufferKey identifies the media buffer thread carrying this stream's
	// data (one buffer per parallel media connection).
	BufferKey string
	// Peers lists the IDs of streams in the same sync group.
	Peers []string
}

// Schedule is the client playout schedule: the E_i entries ordered by
// playout deadline, as produced by preprocessing the presentation scenario.
type Schedule struct {
	Entries []*Entry
	// LinkAt is the earliest timed-link activation (0,false when none):
	// the instant the presentation auto-navigates away.
	LinkAt    time.Duration
	HasLinkAt bool
	// Length is the scenario length.
	Length time.Duration
}

// BuildSchedule preprocesses the scenario into its playout schedule,
// mirroring the paper's client-side preprocessing step ("every media stream
// S_i is recognized by its corresponding language rule and a structure E_i
// is informed").
func BuildSchedule(sc *Scenario) *Schedule {
	groups := sc.SyncGroups()
	sch := &Schedule{Length: sc.Length()}
	for _, s := range sc.TimedStreams() {
		e := &Entry{
			Stream:    s,
			PlayAt:    s.Start,
			EndAt:     s.End(),
			BufferKey: s.ID,
		}
		if s.SyncGroup != "" {
			for _, peer := range groups[s.SyncGroup] {
				if peer.ID != s.ID {
					e.Peers = append(e.Peers, peer.ID)
				}
			}
		}
		sch.Entries = append(sch.Entries, e)
	}
	sort.SliceStable(sch.Entries, func(i, j int) bool {
		a, b := sch.Entries[i], sch.Entries[j]
		if a.PlayAt != b.PlayAt {
			return a.PlayAt < b.PlayAt
		}
		return a.Stream.ID < b.Stream.ID
	})
	if l := sc.NextTimedLink(0); l != nil {
		sch.LinkAt, sch.HasLinkAt = l.At, true
	}
	return sch
}

// Validate checks schedule invariants: entries sorted by deadline, sync
// peers symmetric and co-timed.
func (sch *Schedule) Validate() error {
	for i := 1; i < len(sch.Entries); i++ {
		if sch.Entries[i].PlayAt < sch.Entries[i-1].PlayAt {
			return errOutOfOrder(sch.Entries[i-1], sch.Entries[i])
		}
	}
	byID := map[string]*Entry{}
	for _, e := range sch.Entries {
		byID[e.Stream.ID] = e
	}
	for _, e := range sch.Entries {
		for _, pid := range e.Peers {
			p, ok := byID[pid]
			if !ok {
				return errMissingPeer(e, pid)
			}
			if p.PlayAt != e.PlayAt || p.EndAt != e.EndAt {
				return errPeerTiming(e, p)
			}
			found := false
			for _, back := range p.Peers {
				if back == e.Stream.ID {
					found = true
				}
			}
			if !found {
				return errAsymmetricPeer(e, p)
			}
		}
	}
	return nil
}

type scheduleError struct{ msg string }

func (e *scheduleError) Error() string { return "scenario: " + e.msg }

func errOutOfOrder(a, b *Entry) error {
	return &scheduleError{msg: "entries out of order: " + a.Stream.ID + " before " + b.Stream.ID}
}
func errMissingPeer(e *Entry, pid string) error {
	return &scheduleError{msg: "entry " + e.Stream.ID + " references missing peer " + pid}
}
func errPeerTiming(e, p *Entry) error {
	return &scheduleError{msg: "sync peers " + e.Stream.ID + "/" + p.Stream.ID + " not co-timed"}
}
func errAsymmetricPeer(e, p *Entry) error {
	return &scheduleError{msg: "peer relation " + e.Stream.ID + "→" + p.Stream.ID + " not symmetric"}
}
