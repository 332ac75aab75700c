package playout

// Count returns how many events of kind k (optionally restricted to a
// stream; "" = all) were recorded.
func (d *Display) Count(k EventKind, streamID string) int {
	n := 0
	for _, ev := range d.Events() {
		if ev.Kind == k && (streamID == "" || ev.StreamID == streamID) {
			n++
		}
	}
	return n
}
