package client

import "repro/internal/protocol"

// StreamInfo returns the media connection plan the server announced for a
// stream of the current document (zero value when unknown).
func (c *Client) StreamInfo(id string) (protocol.StreamAnnounce, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pres == nil {
		return protocol.StreamAnnounce{}, false
	}
	for _, ann := range c.pres.streams {
		if ann.StreamID == id {
			return ann, true
		}
	}
	return protocol.StreamAnnounce{}, false
}
