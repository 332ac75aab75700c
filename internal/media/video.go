package media

import (
	"time"

	"repro/internal/rtp"
	"repro/internal/stats"
)

// VideoProfile is one rung of a video quality ladder: an MPEG encoding at a
// given compression factor. Increasing the compression factor is exactly the
// paper's long-term degradation action for video.
type VideoProfile struct {
	// CompressionFactor scales frame sizes down (1 = base quality).
	CompressionFactor float64
	// PayloadType is the RTP payload type for this rung.
	PayloadType rtp.PayloadType
}

// DefaultVideoLadder is a five-rung MPEG ladder from ~1.5 Mb/s down to
// ~0.19 Mb/s; the bottom rung is the paper's "lower threshold" below which
// the service stops the stream.
func DefaultVideoLadder() []VideoProfile {
	return []VideoProfile{
		{CompressionFactor: 1.0, PayloadType: rtp.PTMPEG},
		{CompressionFactor: 1.7, PayloadType: rtp.PTMPEG},
		{CompressionFactor: 2.8, PayloadType: rtp.PTMPEG},
		{CompressionFactor: 4.7, PayloadType: rtp.PTMPEG},
		{CompressionFactor: 8.0, PayloadType: rtp.PTAVI},
	}
}

// Video is a synthetic MPEG-like video source: 25 fps with a 12-frame GoP
// (IBBPBBPBBPBB) and VBR noise, sized so level 0 averages ≈1.5 Mb/s.
type Video struct {
	id     string
	ladder []VideoProfile
	fps    int
	gop    []FrameKind
	// base sizes per kind at compression factor 1 (bytes).
	baseI, baseP, baseB int
	noise               *stats.RNG
	noiseAmp            float64
}

// NewVideo creates a video source.
func NewVideo(id string, ladder []VideoProfile) *Video {
	if len(ladder) == 0 {
		ladder = DefaultVideoLadder()
	}
	return &Video{
		id:     id,
		ladder: ladder,
		fps:    25,
		gop: []FrameKind{FrameI, FrameB, FrameB, FrameP, FrameB, FrameB,
			FrameP, FrameB, FrameB, FrameP, FrameB, FrameB},
		// 25 fps, GoP of 12: 1 I (20000) + 3 P (8000) + 8 B (3000)
		// ≈ 68 KB per 480 ms ≈ 1.4 Mb/s at cf=1.
		baseI: 20000, baseP: 8000, baseB: 3000,
		noiseAmp: 0.15,
	}
}

// Levels implements Source.
func (v *Video) Levels() int { return len(v.ladder) }

// FrameInterval implements Source.
func (v *Video) FrameInterval() time.Duration {
	return time.Second / time.Duration(v.fps)
}

// Bitrate implements Source.
func (v *Video) Bitrate(level int) float64 {
	level = clampLevel(level, len(v.ladder))
	gopBytes := 0
	for _, k := range v.gop {
		gopBytes += v.baseSize(k)
	}
	cf := v.ladder[level].CompressionFactor
	gopDur := float64(len(v.gop)) / float64(v.fps)
	return float64(gopBytes) * 8 / cf / gopDur
}

func (v *Video) baseSize(k FrameKind) int {
	switch k {
	case FrameI:
		return v.baseI
	case FrameP:
		return v.baseP
	default:
		return v.baseB
	}
}

// FrameAt implements Source. Sizes carry deterministic VBR noise derived
// from the stream id and frame index so replays are identical.
func (v *Video) FrameAt(i, level int) Frame {
	level = clampLevel(level, len(v.ladder))
	kind := v.gop[i%len(v.gop)]
	cf := v.ladder[level].CompressionFactor
	base := float64(v.baseSize(kind)) / cf
	// Deterministic noise: seed per (id, index). The RNG lives on the stack —
	// FrameAt runs once per emitted frame and must not allocate.
	seed := uint64(i)*0x9E3779B1 + hashID(v.id)
	var r stats.RNG
	r.Seed(seed)
	size := int(base * (1 + v.noiseAmp*(2*r.Float64()-1)))
	if size < 64 {
		size = 64
	}
	return Frame{
		Index:  i,
		PTS:    time.Duration(i) * v.FrameInterval(),
		Kind:   kind,
		Size:   size,
		Marker: true,
		Level:  level,
	}
}

// PayloadType implements Source.
func (v *Video) PayloadType(level int) rtp.PayloadType {
	return v.ladder[clampLevel(level, len(v.ladder))].PayloadType
}

func hashID(id string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return h
}

// AudioProfile is one rung of an audio quality ladder. Lowering the sampling
// frequency (and switching PCM→ADPCM→VADPCM) is the paper's degradation
// action for audio.
type AudioProfile struct {
	SampleRate  int // Hz
	BitsPerSamp int // effective bits per sample after compression
	PayloadType rtp.PayloadType
}

// Bitrate returns the profile's rate in bits/s.
func (p AudioProfile) Bitrate() float64 { return float64(p.SampleRate * p.BitsPerSamp) }

// DefaultAudioLadder is a four-rung ladder: 16 kHz PCM, 8 kHz PCM,
// 8 kHz ADPCM (4 bits/sample), 8 kHz VADPCM (2 bits/sample).
func DefaultAudioLadder() []AudioProfile {
	return []AudioProfile{
		{SampleRate: 16000, BitsPerSamp: 8, PayloadType: rtp.PTPCM},
		{SampleRate: 8000, BitsPerSamp: 8, PayloadType: rtp.PTPCM},
		{SampleRate: 8000, BitsPerSamp: 4, PayloadType: rtp.PTADPCM},
		{SampleRate: 8000, BitsPerSamp: 2, PayloadType: rtp.PTVADPCM},
	}
}

// Audio is a synthetic audio source emitting fixed 20 ms sample blocks.
type Audio struct {
	ladder []AudioProfile
	block  time.Duration
}

// NewAudio creates an audio source.
func NewAudio(ladder []AudioProfile) *Audio {
	if len(ladder) == 0 {
		ladder = DefaultAudioLadder()
	}
	return &Audio{ladder: ladder, block: 20 * time.Millisecond}
}

// Levels implements Source.
func (a *Audio) Levels() int { return len(a.ladder) }

// FrameInterval implements Source.
func (a *Audio) FrameInterval() time.Duration { return a.block }

// Bitrate implements Source.
func (a *Audio) Bitrate(level int) float64 {
	return a.ladder[clampLevel(level, len(a.ladder))].Bitrate()
}

// FrameAt implements Source: audio blocks are constant-size per level.
func (a *Audio) FrameAt(i, level int) Frame {
	level = clampLevel(level, len(a.ladder))
	p := a.ladder[level]
	size := int(p.Bitrate() * a.block.Seconds() / 8)
	if size < 16 {
		size = 16
	}
	return Frame{
		Index:  i,
		PTS:    time.Duration(i) * a.block,
		Kind:   FrameAudio,
		Size:   size,
		Marker: i == 0,
		Level:  level,
	}
}

// PayloadType implements Source.
func (a *Audio) PayloadType(level int) rtp.PayloadType {
	return a.ladder[clampLevel(level, len(a.ladder))].PayloadType
}

// Image is a still-image source: the whole image is a single "frame",
// chunked by the transport. Quality levels trade JPEG quality for size;
// level names cycle through the prototype's supported formats.
type Image struct {
	width, height int
}

// NewImage creates an image source for the given pixel dimensions.
func NewImage(width, height int) *Image {
	return &Image{width: width, height: height}
}

// Levels implements Source: full-quality JPEG, medium JPEG, GIF-reduced.
func (im *Image) Levels() int { return 3 }

// FrameInterval implements Source; a still has a single delivery.
func (im *Image) FrameInterval() time.Duration { return time.Second }

// Size returns the encoded byte size at a level (≈0.25 byte/pixel JPEG).
func (im *Image) Size(level int) int {
	level = clampLevel(level, im.Levels())
	pixels := im.width * im.height
	per := []float64{0.5, 0.25, 0.1}[level]
	size := int(float64(pixels) * per)
	if size < 256 {
		size = 256
	}
	return size
}

// Bitrate implements Source: nominal rate to deliver the still in 1 s.
func (im *Image) Bitrate(level int) float64 { return float64(im.Size(level) * 8) }

// FrameAt implements Source: index 0 is the image; others are empty.
func (im *Image) FrameAt(i, level int) Frame {
	if i > 0 {
		return Frame{Index: i, PTS: time.Duration(i) * time.Second, Kind: FrameStill, Size: 0, Level: level}
	}
	return Frame{Index: 0, PTS: 0, Kind: FrameStill, Size: im.Size(level), Marker: true, Level: clampLevel(level, im.Levels())}
}

// PayloadType implements Source.
func (im *Image) PayloadType(level int) rtp.PayloadType {
	if clampLevel(level, im.Levels()) == 2 {
		return rtp.PTGIF
	}
	return rtp.PTJPEG
}

// Text is a text-content source: one still frame holding the content.
type Text struct {
	content string
}

// NewText creates a text source.
func NewText(content string) *Text { return &Text{content: content} }

// Levels implements Source: text is never degraded.
func (t *Text) Levels() int { return 1 }

// FrameInterval implements Source.
func (t *Text) FrameInterval() time.Duration { return time.Second }

// Bitrate implements Source.
func (t *Text) Bitrate(int) float64 { return float64(len(t.content)+1) * 8 }

// FrameAt implements Source.
func (t *Text) FrameAt(i, level int) Frame {
	size := len(t.content)
	if size == 0 {
		size = 1
	}
	if i > 0 {
		size = 0
	}
	return Frame{Index: i, PTS: 0, Kind: FrameStill, Size: size, Marker: true}
}

// PayloadType implements Source.
func (t *Text) PayloadType(int) rtp.PayloadType { return rtp.PTText }

var (
	_ Source = (*Video)(nil)
	_ Source = (*Audio)(nil)
	_ Source = (*Image)(nil)
	_ Source = (*Text)(nil)
)
