package hml

import (
	"fmt"
	"strings"
)

// ValidationError aggregates every semantic problem found in a document.
type ValidationError struct {
	Doc      string
	Problems []string
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("hml: document %q invalid: %s", e.Doc, strings.Join(e.Problems, "; "))
}

// Validate checks the semantic rules the service relies on:
//
//   - the document has a title;
//   - every timed media element has a SOURCE and a unique, non-empty ID
//     ("each component of a hypermedia object has a unique identification
//     number");
//   - start times and durations are non-negative;
//   - audio and video streams have positive durations (stills may be
//     open-ended, streams may not);
//   - AU_VI halves start and stop together, per the paper;
//   - hyperlinks have targets, and AT times are non-negative.
func Validate(d *Document) error {
	var probs []string
	add := func(format string, args ...interface{}) {
		probs = append(probs, fmt.Sprintf(format, args...))
	}
	if strings.TrimSpace(d.Title) == "" {
		add("missing document title")
	}
	ids := map[string]bool{}
	// First pass: collect every media id so AFTER references can be
	// checked regardless of declaration order.
	collect := func(m Media) {
		if m.ID != "" {
			ids[m.ID] = true
		}
	}
	for _, s := range d.Sentences {
		for _, it := range s.Items {
			switch v := it.(type) {
			case *Image:
				collect(v.Media)
			case *Audio:
				collect(v.Media)
			case *Video:
				collect(v.Media)
			case *AudioVideo:
				collect(v.Audio)
				collect(v.Video)
			}
		}
	}
	seen := map[string]bool{}
	checkMedia := func(m Media, kind string, stream bool) {
		if m.ID == "" {
			add("%s element missing ID", kind)
		} else if seen[m.ID] {
			add("duplicate media ID %q", m.ID)
		} else {
			seen[m.ID] = true
		}
		if m.After != "" {
			if !ids[m.After] {
				add("%s %q AFTER references unknown media %q", kind, m.ID, m.After)
			}
			if m.After == m.ID {
				add("%s %q AFTER references itself", kind, m.ID)
			}
		}
		if m.Source == "" {
			add("%s %q missing SOURCE", kind, m.ID)
		}
		if m.Start < 0 {
			add("%s %q has negative STARTIME", kind, m.ID)
		}
		if m.Duration < 0 {
			add("%s %q has negative DURATION", kind, m.ID)
		}
		if stream && m.Duration == 0 {
			add("%s %q requires a positive DURATION", kind, m.ID)
		}
		if m.Width < 0 || m.Height < 0 {
			add("%s %q has negative dimensions", kind, m.ID)
		}
	}
	for _, s := range d.Sentences {
		for _, it := range s.Items {
			switch v := it.(type) {
			case *Image:
				checkMedia(v.Media, "image", false)
			case *Audio:
				checkMedia(v.Media, "audio", true)
			case *Video:
				checkMedia(v.Media, "video", true)
			case *AudioVideo:
				checkMedia(v.Audio, "au_vi audio", true)
				checkMedia(v.Video, "au_vi video", true)
				if v.Audio.Start != v.Video.Start {
					add("au_vi group %q/%q halves start at different times", v.Audio.ID, v.Video.ID)
				}
				if v.Audio.Duration != v.Video.Duration {
					add("au_vi group %q/%q halves have different durations", v.Audio.ID, v.Video.ID)
				}
			case *Link:
				if v.Target == "" {
					add("hyperlink missing target")
				}
				if v.HasAt && v.At < 0 {
					add("hyperlink to %q has negative AT time", v.Target)
				}
			}
		}
	}
	if len(probs) > 0 {
		return &ValidationError{Doc: d.Name, Problems: probs}
	}
	return nil
}

// Stats summarizes a document's composition; used by tooling and tests.
type Stats struct {
	Sentences  int
	Headings   int
	Texts      int
	Images     int
	Audios     int
	Videos     int
	SyncGroups int
	Links      int
	TimedLinks int
	Chars      int // plain text characters
}

// Statistics computes document composition counts.
func Statistics(d *Document) Stats {
	var st Stats
	st.Sentences = len(d.Sentences)
	for _, s := range d.Sentences {
		if s.Heading != nil {
			st.Headings++
		}
		for _, it := range s.Items {
			switch v := it.(type) {
			case *Text:
				st.Texts++
				st.Chars += len(v.Plain())
			case *Image:
				st.Images++
			case *Audio:
				st.Audios++
			case *Video:
				st.Videos++
			case *AudioVideo:
				st.SyncGroups++
			case *Link:
				st.Links++
				if v.HasAt {
					st.TimedLinks++
				}
			}
		}
	}
	return st
}
