package qos

import (
	"slices"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/rtp"
)

// ClientMonitor is the Client QoS Manager's measurement half: it observes
// every arriving RTP packet (which "carries a timestamping indication ...
// used to carry out conclusions about the connection's condition"), keeps
// per-stream RFC 1889 reception state, and periodically emits feedback
// reports as RTCP receiver-report blocks.
type ClientMonitor struct {
	mu        sync.Mutex
	clk       clock.Clock
	ssrc      uint32 // the receiver's own SSRC for its RRs
	receivers map[string]*rtp.Receiver
	ssrcToID  map[uint32]string
	lastSR    map[string]rtp.SenderReport
	// rr is made on first use, so a monitor that never tracks a stream
	// stays small.
	rr *receiverReport
}

// receiverReport is BuildRR's report, reused, and the tracked stream IDs
// in the sorted order of its blocks.
type receiverReport struct {
	ids []string
	rtp.ReceiverReport
}

// NewClientMonitor creates a monitor with the receiver's own SSRC.
func NewClientMonitor(clk clock.Clock, ssrc uint32) *ClientMonitor {
	return &ClientMonitor{
		clk:       clk,
		ssrc:      ssrc,
		receivers: map[string]*rtp.Receiver{},
		ssrcToID:  map[uint32]string{},
		lastSR:    map[string]rtp.SenderReport{},
	}
}

// ObserveSR records an RTCP sender report from a stream's source; the SR's
// NTP↔RTP timestamp pair lets receivers map media time to the sender's wall
// clock. The monitor keeps sr's Reports, which the caller must not reuse.
func (c *ClientMonitor) ObserveSR(streamID string, sr rtp.SenderReport) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lastSR[streamID] = sr
}

// LastSR returns the most recent sender report for a stream, and whether
// there is one.
func (c *ClientMonitor) LastSR(streamID string) (rtp.SenderReport, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sr, ok := c.lastSR[streamID]
	return sr, ok
}

// Track registers a stream and its source SSRC.
func (c *ClientMonitor) Track(streamID string, ssrc uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.receivers[streamID]; !ok {
		rr := c.reportLocked()
		i, _ := slices.BinarySearch(rr.ids, streamID)
		rr.ids = slices.Insert(rr.ids, i, streamID)
	}
	c.receivers[streamID] = rtp.NewReceiver(ssrc)
	c.ssrcToID[ssrc] = streamID
}

// StreamID resolves a source SSRC to its stream id.
func (c *ClientMonitor) StreamID(ssrc uint32) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id, ok := c.ssrcToID[ssrc]
	return id, ok
}

// Observe feeds one arrived packet into its stream's reception state.
// sent may be the zero time when the sender clock is unknown.
func (c *ClientMonitor) Observe(streamID string, p *rtp.Packet, arrival, sent time.Time) {
	c.mu.Lock()
	r := c.receivers[streamID]
	c.mu.Unlock()
	if r != nil {
		r.Observe(p, arrival, sent)
	}
}

// Receiver exposes a stream's reception state (nil when untracked).
func (c *ClientMonitor) Receiver(streamID string) *rtp.Receiver {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.receivers[streamID]
}

// BuildRR assembles the RTCP receiver report covering every tracked stream,
// resetting the per-interval counters — this is the feedback packet the
// client sends "periodically or in specifically calculated intervals".
// The report is the monitor's own, valid until the next BuildRR.
func (c *ClientMonitor) BuildRR() *rtp.ReceiverReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	rr := c.reportLocked()
	rr.SSRC = c.ssrc
	rr.Reports = rr.Reports[:0]
	for _, id := range rr.ids {
		rr.Reports = append(rr.Reports, c.receivers[id].Report())
	}
	return &rr.ReceiverReport
}

func (c *ClientMonitor) reportLocked() *receiverReport {
	if c.rr == nil {
		c.rr = &receiverReport{}
	}
	return c.rr
}

// Reports converts the current reception state into qos.Reports without
// resetting interval counters (monitoring snapshot).
func (c *ClientMonitor) Reports() []Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clk.Now()
	var out []Report
	for _, id := range c.reportLocked().ids {
		r := c.receivers[id]
		loss := 0.0
		if exp := r.Expected(); exp > 0 {
			loss = float64(r.CumulativeLost()) / float64(exp)
		}
		out = append(out, Report{
			StreamID: id,
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
