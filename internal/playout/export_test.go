package playout

// Count returns how many events of kind k (optionally restricted to a
// stream; "" = all) were recorded.
func (d *Display) Count(k EventKind, streamID string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	d.eachLocked(func(ev *Event) {
		if ev.Kind == k && (streamID == "" || ev.StreamID == streamID) {
			n++
		}
	})
	return n
}
