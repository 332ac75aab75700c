package qos

import (
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/rtp"
)

// ClientMonitor is the Client QoS Manager's measurement half: it keeps
// per-stream RFC 1889 reception state for every arriving RTP packet (which
// "carries a timestamping indication ... used to carry out conclusions
// about the connection's condition"), and periodically emits feedback
// reports as RTCP receiver-report blocks. The client feeds each packet to
// its stream's Receiver, which it looks up once per document, not here.
type ClientMonitor struct {
	mu  sync.Mutex
	clk clock.Clock
	// streams holds every stream ever tracked, in ID order: a monitor never
	// forgets one, and BuildRR reports them in this order.
	streams []tracked
	rr      rtp.ReceiverReport // BuildRR's report, reused; SSRC is the receiver's own
}

// tracked is one stream's reception state and its source's last sender
// report.
type tracked struct {
	id    string
	recv  *rtp.Receiver
	sr    rtp.SenderReport
	hasSR bool
}

// NewClientMonitor creates a monitor with the receiver's own SSRC.
func NewClientMonitor(clk clock.Clock, ssrc uint32) *ClientMonitor {
	return &ClientMonitor{clk: clk, rr: rtp.ReceiverReport{SSRC: ssrc}}
}

// findLocked returns the index of streamID in c.streams, or where it
// belongs, and whether it is there.
func (c *ClientMonitor) findLocked(streamID string) (int, bool) {
	return slices.BinarySearchFunc(c.streams, streamID, func(t tracked, id string) int { return strings.Compare(t.id, id) })
}

// ObserveSR records an RTCP sender report from a tracked stream's source;
// the SR's NTP↔RTP timestamp pair lets receivers map media time to the
// sender's wall clock. The monitor keeps sr's Reports, which the caller
// must not reuse.
func (c *ClientMonitor) ObserveSR(streamID string, sr rtp.SenderReport) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.findLocked(streamID); ok {
		c.streams[i].sr, c.streams[i].hasSR = sr, true
	}
}

// LastSR returns the most recent sender report for a stream, and whether
// there is one.
func (c *ClientMonitor) LastSR(streamID string) (rtp.SenderReport, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.findLocked(streamID); ok {
		return c.streams[i].sr, c.streams[i].hasSR
	}
	return rtp.SenderReport{}, false
}

// Track registers a stream and its source SSRC; a stream tracked again
// starts a fresh reception state.
func (c *ClientMonitor) Track(streamID string, ssrc uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := rtp.NewReceiver(ssrc)
	if i, ok := c.findLocked(streamID); ok {
		c.streams[i].recv = r
	} else {
		c.streams = slices.Insert(c.streams, i, tracked{id: streamID, recv: r})
	}
}

// Receiver exposes a stream's reception state (nil when untracked).
func (c *ClientMonitor) Receiver(streamID string) *rtp.Receiver {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.findLocked(streamID); ok {
		return c.streams[i].recv
	}
	return nil
}

// BuildRR assembles the RTCP receiver report covering every tracked stream,
// resetting the per-interval counters — this is the feedback packet the
// client sends "periodically or in specifically calculated intervals".
// The report is the monitor's own, valid until the next BuildRR.
func (c *ClientMonitor) BuildRR() *rtp.ReceiverReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rr.Reports = c.rr.Reports[:0]
	for _, t := range c.streams {
		c.rr.Reports = append(c.rr.Reports, t.recv.Report())
	}
	return &c.rr
}

// Reports converts the current reception state into qos.Reports without
// resetting interval counters (monitoring snapshot). A nil monitor, a
// browser's before its first document, reports nothing.
func (c *ClientMonitor) Reports() []Report {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clk.Now()
	var out []Report
	for _, t := range c.streams {
		r := t.recv
		loss := 0.0
		if exp := r.Expected(); exp > 0 {
			loss = float64(r.CumulativeLost()) / float64(exp)
		}
		out = append(out, Report{
			StreamID: t.id,
			Loss:     loss,
			Jitter:   r.JitterDuration(),
			Delay:    r.LastDelay(),
			At:       now,
		})
	}
	return out
}

// FromRTCP converts one receiver-report block into a qos.Report for the
// server-side manager. The stream id must be resolved by the caller (the
// server knows which SSRC it assigned to which stream).
func FromRTCP(streamID string, block rtp.ReceptionReport, at time.Time) Report {
	return Report{
		StreamID: streamID,
		Loss:     block.LossFraction(),
		Jitter:   rtp.FromTimestamp(block.Jitter),
		At:       at,
	}
}
