package client

import "repro/internal/protocol"

// StreamInfo returns the media connection plan the server announced for a
// stream of the current document (zero value when unknown).
func (c *Client) StreamInfo(id string) (protocol.StreamAnnounce, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, rec := range c.rx {
		if rec.ann.StreamID == id && id != "" {
			return rec.ann, true
		}
	}
	return protocol.StreamAnnounce{}, false
}
