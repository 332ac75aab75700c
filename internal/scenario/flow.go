package scenario

import (
	"sort"
	"time"
)

// RateFunc maps a stream to its nominal transmission rate in bits per
// second. The flow scheduler is parameterized on it so the media package can
// supply codec-accurate rates without a dependency cycle. For stills (image,
// text) the returned value is the total encoded size in bits — the nominal
// "deliver within one second" rate — which BuildFlow spreads over the
// still's actual transmission lead.
type RateFunc func(*Stream) float64

// FlowSpec is one stream's entry in the flow scenario: the sending start
// time instance and transmission properties the paper's flow scheduler
// derives from the presentation scenario.
type FlowSpec struct {
	Stream *Stream
	// SendAt is when the media server must begin transmitting, relative
	// to session start: the playout start minus the pre-roll lead that
	// fills the client's media time window.
	SendAt time.Duration
	// Rate is the nominal transmission rate in bits per second. For
	// stills it is the encoded size spread over the transmission lead, so
	// admission and peak-bandwidth sums price the still at what the wire
	// actually carries during [SendAt, Start).
	Rate float64
	// Bytes is the total payload volume for the stream (Rate × Duration
	// for streams; the one-shot encoded size for stills).
	Bytes int64
	// PreRoll is the lead applied (how far ahead of the playout deadline
	// transmission starts).
	PreRoll time.Duration
}

// FlowOptions tunes flow-scenario computation.
type FlowOptions struct {
	// PreRoll is the transmission lead: it equals the client's media time
	// window so that the buffer holds one window of data when playout
	// begins, and stills (images, text) get the same lead to arrive in full
	// before their appearance deadline.
	PreRoll time.Duration
	// Rate supplies per-stream nominal rates; nil uses DefaultRates.
	Rate RateFunc
}

// DefaultRates approximates mid-1990s codec rates: 1.5 Mb/s MPEG-1 video,
// 64 kb/s PCM telephone-quality audio, a 64 KiB still image delivered over
// its lead time, and negligible text.
func DefaultRates(s *Stream) float64 {
	switch s.Type {
	case TypeVideo:
		return 1_500_000
	case TypeAudio:
		return 64_000
	case TypeImage:
		return 512 * 1024 // bits, spread over the pre-roll lead
	default:
		return 8_000
	}
}

// BuildFlow computes the flow scenario for every timed stream: "the flow
// scheduler uses the retrieved presentation scenario to compute a flow
// scenario for each participating media stream" specifying "the sending
// start time instances ... as well as other transmission properties".
func BuildFlow(sc *Scenario, opts FlowOptions) []*FlowSpec {
	if opts.Rate == nil {
		opts.Rate = DefaultRates
	}
	if opts.PreRoll <= 0 {
		opts.PreRoll = 2 * time.Second
	}
	var out []*FlowSpec
	for _, s := range sc.TimedStreams() {
		sendAt := s.Start - opts.PreRoll
		if sendAt < 0 {
			sendAt = 0
		}
		rate := opts.Rate(s)
		var bytes int64
		if s.Type.TimeSensitive() {
			bytes = int64(rate * s.Duration.Seconds() / 8)
		} else {
			// For stills the RateFunc value is the total encoded size in
			// bits. The wire delivers that size once, spread over the
			// actual transmission lead, so the priced rate is size/lead —
			// not the raw "per second" figure, which overstated flows with
			// longer leads and understated clamped ones.
			totalBits := rate
			bytes = int64(totalBits / 8)
			effLead := s.Start - sendAt
			if effLead <= 0 {
				effLead = opts.PreRoll
			}
			rate = totalBits / effLead.Seconds()
		}
		out = append(out, &FlowSpec{
			Stream:  s,
			SendAt:  sendAt,
			Rate:    rate,
			Bytes:   bytes,
			PreRoll: s.Start - sendAt,
		})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].SendAt != out[j].SendAt {
			return out[i].SendAt < out[j].SendAt
		}
		return out[i].Stream.ID < out[j].Stream.ID
	})
	return out
}
