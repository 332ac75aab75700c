// Package scenario turns parsed HML documents into the runtime presentation
// scenario the service operates on: the set of media streams S_i with their
// relative playout start times t_i and durations d_i, synchronization groups,
// hyperlinks, the client-side playout schedule (the paper's E_i structures),
// the server-side flow scenario computed by the flow scheduler, and the
// desktop layout. It is the one place a document's times and regions are
// computed; package hml only reads and writes the markup.
package scenario

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/hml"
)

// MediaType classifies a stream's media.
type MediaType int

// Media types, ordered roughly by timing sensitivity.
const (
	TypeText MediaType = iota
	TypeImage
	TypeAudio
	TypeVideo
)

func (t MediaType) String() string {
	switch t {
	case TypeText:
		return "text"
	case TypeImage:
		return "image"
	case TypeAudio:
		return "audio"
	case TypeVideo:
		return "video"
	default:
		return "unknown"
	}
}

// TimeSensitive reports whether the media type has hard playout deadlines
// per frame (audio/video) as opposed to a single appearance deadline.
func (t MediaType) TimeSensitive() bool { return t == TypeAudio || t == TypeVideo }

// Stream is one media stream S_i of the presentation scenario.
type Stream struct {
	// ID is the unique component identification key.
	ID string
	// Type is the media type.
	Type MediaType
	// Source is the media-server retrieval key.
	Source string
	// Start is the relative playout start time t_i.
	Start time.Duration
	// Duration is the playout duration d_i (zero = open-ended still).
	Duration time.Duration
	// After names the stream this one starts after (already resolved into
	// Start by FromDocument; kept for provenance).
	After string
	// SyncGroup names the AU_VI group this stream belongs to ("" = none).
	// Streams sharing a group must start and stop together.
	SyncGroup string
	// Width, Height are display dimensions for visual media.
	Width, Height int
	// Where places visual media on the display ("x,y"; see BuildLayout).
	Where string
	// Note is the author's annotation.
	Note string
	// Text holds inline text content for TypeText streams.
	Text string
}

// End returns t_i + d_i.
func (s *Stream) End() time.Duration { return s.Start + s.Duration }

// ActiveAt reports whether the stream is playing at scenario-relative time t.
// Open-ended streams (Duration 0) remain active once started.
func (s *Stream) ActiveAt(t time.Duration) bool {
	if t < s.Start {
		return false
	}
	return s.Duration == 0 || t < s.End()
}

// Link is a hyperlink of the scenario.
type Link struct {
	Kind   hml.LinkKind
	Target string
	Host   string
	At     time.Duration
	HasAt  bool
	Note   string
}

// Scenario is the runtime form of a hypermedia document's presentation
// scenario.
type Scenario struct {
	Title   string
	Name    string
	Streams []*Stream
	Links   []Link
	Src     string // the HML text Parse built it from ("" from FromDocument)
}

// FromDocument converts a validated HML document into a Scenario. Text items
// become one open-ended text stream each (always shown, per the Figure 2
// narrative); the AU_VI halves become two streams sharing a sync group.
func FromDocument(doc *hml.Document) (*Scenario, error) {
	if err := hml.Validate(doc); err != nil {
		return nil, err
	}
	sc := &Scenario{Title: doc.Title, Name: doc.Name}
	// Streams and links collect on the stack, then move to exact-size slices.
	var streamBuf [16]Stream
	var linkBuf [8]Link
	streams, links := streamBuf[:0], linkBuf[:0]
	textN := 0
	groupN := 0
	for _, s := range doc.Sentences {
		for _, it := range s.Items {
			switch v := it.(type) {
			case *hml.Text:
				textN++
				streams = append(streams, Stream{
					ID:   "text-" + strconv.Itoa(textN),
					Type: TypeText,
					Text: v.Plain(),
				})
			case *hml.Image:
				streams = append(streams, fromMedia(v.Media, TypeImage, ""))
			case *hml.Audio:
				streams = append(streams, fromMedia(v.Media, TypeAudio, ""))
			case *hml.Video:
				streams = append(streams, fromMedia(v.Media, TypeVideo, ""))
			case *hml.AudioVideo:
				groupN++
				group := "sync-" + strconv.Itoa(groupN)
				streams = append(streams,
					fromMedia(v.Audio, TypeAudio, group),
					fromMedia(v.Video, TypeVideo, group))
			case *hml.Link:
				links = append(links, Link{
					Kind: v.Kind, Target: v.Target, Host: v.Host,
					At: v.At, HasAt: v.HasAt, Note: v.Note,
				})
			}
		}
	}
	sc.Links = append([]Link(nil), links...)
	block := append([]Stream(nil), streams...)
	sc.Streams = make([]*Stream, len(block))
	for i := range block {
		sc.Streams[i] = &block[i]
	}
	if err := resolveAfter(sc); err != nil {
		return nil, err
	}
	return sc, nil
}

// resolveAfter turns AFTER references into absolute start times: a stream
// with AFTER=x starts at x's end time plus its own STARTIME offset. Sync
// partners of an AU_VI group stay co-timed. Reference cycles are an error.
func resolveAfter(sc *Scenario) error {
	byID := map[string]*Stream{}
	for _, s := range sc.Streams {
		if s.ID != "" {
			byID[s.ID] = s
		}
	}
	const (
		unvisited = iota
		visiting
		done
	)
	state := map[string]int{}
	var resolve func(s *Stream) error
	resolve = func(s *Stream) error {
		if s.After == "" || state[s.ID] == done {
			return nil
		}
		if state[s.ID] == visiting {
			return fmt.Errorf("scenario: AFTER cycle involving %q", s.ID)
		}
		state[s.ID] = visiting
		target, ok := byID[s.After]
		if !ok {
			return fmt.Errorf("scenario: %q AFTER unknown media %q", s.ID, s.After)
		}
		if err := resolve(target); err != nil {
			return err
		}
		s.Start += target.End()
		s.After = ""
		state[s.ID] = done
		// Keep AU_VI halves co-timed when only one carried the AFTER.
		if s.SyncGroup != "" {
			for _, peer := range sc.Streams {
				if peer.SyncGroup == s.SyncGroup && peer.ID != s.ID && peer.After == "" {
					peer.Start = s.Start
				}
			}
		}
		return nil
	}
	for _, s := range sc.Streams {
		if err := resolve(s); err != nil {
			return err
		}
	}
	return nil
}

func fromMedia(m hml.Media, t MediaType, group string) Stream {
	return Stream{
		ID:        m.ID,
		Type:      t,
		Source:    m.Source,
		Start:     m.Start,
		After:     m.After,
		Duration:  m.Duration,
		SyncGroup: group,
		Width:     m.Width,
		Height:    m.Height,
		Where:     m.Where,
		Note:      m.Note,
	}
}

// Parse is a convenience combining hml.Parse, hml.Validate and FromDocument.
func Parse(src string) (*Scenario, error) {
	doc, err := hml.Parse(src)
	if err != nil {
		return nil, err
	}
	sc, err := FromDocument(doc)
	if sc != nil {
		sc.Src = src
	}
	return sc, err
}

// Stream returns the stream with the given ID, or nil.
func (sc *Scenario) Stream(id string) *Stream {
	for _, s := range sc.Streams {
		if s.ID == id {
			return s
		}
	}
	return nil
}

// TimedStreams returns the streams that carry timing (everything except
// text, which is shown throughout).
func (sc *Scenario) TimedStreams() []*Stream {
	var out []*Stream
	for _, s := range sc.Streams {
		if s.Type != TypeText {
			out = append(out, s)
		}
	}
	return out
}

// SyncGroups returns the scenario's synchronization groups keyed by group
// name, each holding the member streams in declaration order.
func (sc *Scenario) SyncGroups() map[string][]*Stream {
	out := map[string][]*Stream{}
	for _, s := range sc.Streams {
		if s.SyncGroup != "" {
			out[s.SyncGroup] = append(out[s.SyncGroup], s)
		}
	}
	return out
}

// Length returns the scenario length: the maximum of the last media end time
// and the latest timed-link activation.
func (sc *Scenario) Length() time.Duration {
	var max time.Duration
	for _, s := range sc.Streams {
		if s.Duration > 0 && s.End() > max {
			max = s.End()
		}
		if s.Duration == 0 && s.Start > max {
			max = s.Start
		}
	}
	for _, l := range sc.Links {
		if l.HasAt && l.At > max {
			max = l.At
		}
	}
	return max
}

// NextTimedLink returns the earliest timed link activating at or after t, or
// nil when none remains: this is the hyperlink the presentation will follow
// automatically "in the absence of user involvement".
func (sc *Scenario) NextTimedLink(t time.Duration) *Link {
	var best *Link
	for i := range sc.Links {
		l := &sc.Links[i]
		if !l.HasAt || l.At < t {
			continue
		}
		if best == nil || l.At < best.At {
			best = l
		}
	}
	return best
}
