// Package media provides the synthetic media substrate: frame/sample
// generators for video, audio, images and text whose sizes, rates and
// structure match the formats the paper's prototype shipped (MPEG/AVI video,
// PCM/ADPCM/VADPCM audio, GIF/TIFF/BMP/JPEG images), together with the
// quality ladders the Media Stream Quality Converter grades across.
//
// The service machinery manipulates frame timing, sizes and rates — never
// pixel or sample content — so synthetic frames with the right size/rate
// structure exercise exactly the code paths the paper describes. Payload
// bytes are deterministic filler: a tag naming the stream and frame, then a
// window of one fixed pseudo-random table whose offset is keyed on the whole
// stream id and the frame index.
package media

import (
	"strconv"
	"time"

	"repro/internal/rtp"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// FrameKind classifies video frames within a group of pictures.
type FrameKind int

// Video frame kinds.
const (
	FrameI FrameKind = iota
	FrameP
	FrameB
	// FrameAudio marks audio sample blocks.
	FrameAudio
	// FrameStill marks one-shot image/text deliveries.
	FrameStill
)

func (k FrameKind) String() string {
	switch k {
	case FrameI:
		return "I"
	case FrameP:
		return "P"
	case FrameB:
		return "B"
	case FrameAudio:
		return "A"
	case FrameStill:
		return "S"
	default:
		return "?"
	}
}

// Frame is one access unit: a video frame, an audio block or a still chunk.
type Frame struct {
	// Index is the frame's ordinal within the stream.
	Index int
	// PTS is the presentation timestamp relative to the stream's start.
	PTS time.Duration
	// Kind is the frame class.
	Kind FrameKind
	// Size is the encoded size in bytes at the quality level requested.
	Size int
	// Marker flags the last packetizable unit of a visual frame.
	Marker bool
	// Level records the quality level the frame was encoded at.
	Level int
}

// Source generates a stream's frames at a requested quality level. Level 0
// is the best quality; higher levels are progressively degraded, down to
// Levels()-1 (the paper's lowest threshold before stream cut-off).
type Source interface {
	// Levels returns the number of quality levels.
	Levels() int
	// Bitrate returns the nominal rate in bits/s at a level.
	Bitrate(level int) float64
	// FrameInterval returns the nominal spacing between frames.
	FrameInterval() time.Duration
	// FrameAt returns the i-th frame encoded at the given level.
	FrameAt(i int, level int) Frame
	// PayloadType returns the RTP payload type at a level (grading can
	// switch codecs, e.g. PCM→ADPCM→VADPCM).
	PayloadType(level int) rtp.PayloadType
}

// clampLevel confines level to [0, n-1].
func clampLevel(level, n int) int {
	if level < 0 {
		return 0
	}
	if level >= n {
		return n - 1
	}
	return level
}

// Payload builds a deterministic filler payload of the given size, tagged
// with the stream id and frame index so tests can verify content integrity
// end to end.
func Payload(id string, index, size int) []byte {
	return AppendPayload(nil, id, index, size)
}

// AppendPayload appends the deterministic filler payload for (id, index) to
// dst and returns the extended slice. A sender reusing one scratch buffer
// across frames synthesizes payloads with zero steady-state allocations.
func AppendPayload(dst []byte, id string, index, size int) []byte {
	var w PayloadWriter
	w.Reset(id, index, size)
	return w.Append(dst, w.left)
}

// PayloadWriter streams the bytes of Payload(id, index, size) in pieces of
// any length, so a sender can write each fragment's share of a frame body
// straight into its packet. The payload is the tag "id#index|" (truncated
// when the payload is smaller) followed by a window of the fixed filler
// table, read from an offset keyed on the whole id and the index and
// wrapping at the table's end. The zero value has nothing left to write;
// Reset starts a payload.
type PayloadWriter struct {
	id     string
	suffix [22]byte // "#index|": '#', up to 20 digits with sign, '|'
	sufN   int
	tagOff int // tag bytes written so far
	pos    int // the next filler byte's offset in filler
	left   int // payload bytes not yet written
}

// Filler geometry. The table's length is prime, so the MTU-spaced fragments
// of one frame never read the same window; fillerStep (odd, near len/φ) moves
// each next frame of a stream to a fresh offset.
const (
	fillerLen  = 65521
	fillerStep = 40503
)

// filler is the read-only pseudo-random table every payload's filler is
// copied from; init fills it.
var filler [fillerLen]byte

func init() {
	r := stats.NewRNG(1)
	for i := range filler {
		filler[i] = byte(r.Uint64() >> 56)
	}
}

// Reset starts the payload for (id, index) of the given size. A size below
// one writes one byte, as Payload does.
func (w *PayloadWriter) Reset(id string, index, size int) {
	if size <= 0 {
		size = 1
	}
	w.id = id
	w.suffix[0] = '#'
	s := strconv.AppendInt(w.suffix[:1], int64(index), 10)
	w.sufN = len(append(s, '|'))
	w.tagOff = 0
	h := uint64(14695981039346656037) // FNV-1a over every byte of the id
	for i := 0; i < len(id); i++ {
		h = (h ^ uint64(id[i])) * 1099511628211
	}
	w.pos = int((h%fillerLen + uint64(index)%fillerLen*fillerStep) % fillerLen)
	w.left = size
}

// Append appends the payload's next n bytes to dst (fewer when less than n
// remain) and returns the extended slice.
func (w *PayloadWriter) Append(dst []byte, n int) []byte {
	n = min(n, w.left)
	if n <= 0 {
		return dst
	}
	w.left -= n
	start := len(dst)
	dst = extend(dst, n)
	buf := dst[start:]
	for len(buf) > 0 && w.tagOff < len(w.id)+w.sufN {
		var k int
		if w.tagOff < len(w.id) {
			k = copy(buf, w.id[w.tagOff:])
		} else {
			k = copy(buf, w.suffix[w.tagOff-len(w.id):w.sufN])
		}
		w.tagOff += k
		buf = buf[k:]
	}
	for len(buf) > 0 {
		k := copy(buf, filler[w.pos:])
		buf = buf[k:]
		if w.pos += k; w.pos == fillerLen {
			w.pos = 0
		}
	}
	return dst
}

// extend grows dst by n bytes (reallocating only when capacity is short) and
// returns the lengthened slice; the added bytes are uninitialized garbage the
// caller overwrites.
func extend(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst[:len(dst)+n]
	}
	out := make([]byte, len(dst)+n)
	copy(out, dst)
	return out
}

// ForStream builds the appropriate Source for a scenario stream.
func ForStream(s *scenario.Stream) Source {
	switch s.Type {
	case scenario.TypeVideo:
		return NewVideo(s.ID, DefaultVideoLadder())
	case scenario.TypeAudio:
		return NewAudio(DefaultAudioLadder())
	case scenario.TypeImage:
		w, h := s.Width, s.Height
		if w == 0 {
			w = 320
		}
		if h == 0 {
			h = 240
		}
		return NewImage(w, h)
	default:
		return NewText(s.Text)
	}
}
