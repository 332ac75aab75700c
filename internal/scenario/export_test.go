package scenario

// Entry returns the schedule entry for stream id, or nil.
func (sch *Schedule) Entry(id string) *Entry {
	for _, e := range sch.Entries {
		if e.Stream.ID == id {
			return e
		}
	}
	return nil
}
