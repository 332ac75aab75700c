package hml

// Links returns every hyperlink in source order.
func (d *Document) Links() []*Link {
	var out []*Link
	for _, it := range d.Items() {
		if l, ok := it.(*Link); ok {
			out = append(out, l)
		}
	}
	return out
}
