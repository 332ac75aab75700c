package media

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/rtp"
	"repro/internal/scenario"
)

func TestVideoGoPStructure(t *testing.T) {
	v := NewVideo("v1", nil)
	kinds := make([]FrameKind, 12)
	for i := range kinds {
		kinds[i] = v.FrameAt(i, 0).Kind
	}
	want := []FrameKind{FrameI, FrameB, FrameB, FrameP, FrameB, FrameB, FrameP, FrameB, FrameB, FrameP, FrameB, FrameB}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("frame %d kind %v, want %v", i, kinds[i], want[i])
		}
	}
	// GoP repeats.
	if v.FrameAt(12, 0).Kind != FrameI {
		t.Fatal("GoP does not repeat")
	}
}

func TestVideoFrameSizeOrdering(t *testing.T) {
	v := NewVideo("v1", nil)
	// On average across many GoPs, I > P > B at a fixed level.
	sum := map[FrameKind]int{}
	cnt := map[FrameKind]int{}
	for i := 0; i < 600; i++ {
		f := v.FrameAt(i, 0)
		sum[f.Kind] += f.Size
		cnt[f.Kind]++
	}
	avgI := sum[FrameI] / cnt[FrameI]
	avgP := sum[FrameP] / cnt[FrameP]
	avgB := sum[FrameB] / cnt[FrameB]
	if !(avgI > avgP && avgP > avgB) {
		t.Fatalf("avg sizes I=%d P=%d B=%d", avgI, avgP, avgB)
	}
}

func TestVideoBitrateLadderMonotone(t *testing.T) {
	v := NewVideo("v1", nil)
	for l := 1; l < v.Levels(); l++ {
		if v.Bitrate(l) >= v.Bitrate(l-1) {
			t.Fatalf("bitrate not decreasing: L%d=%v L%d=%v", l-1, v.Bitrate(l-1), l, v.Bitrate(l))
		}
	}
	// Level 0 ≈ 1.4 Mb/s.
	if r := v.Bitrate(0); r < 1_000_000 || r > 2_000_000 {
		t.Fatalf("base rate = %v", r)
	}
}

func TestVideoFramesDeterministic(t *testing.T) {
	a, b := NewVideo("same", nil), NewVideo("same", nil)
	for i := 0; i < 50; i++ {
		if a.FrameAt(i, 1) != b.FrameAt(i, 1) {
			t.Fatal("video frames not deterministic")
		}
	}
	c := NewVideo("other", nil)
	diff := 0
	for i := 0; i < 50; i++ {
		if a.FrameAt(i, 1).Size != c.FrameAt(i, 1).Size {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different streams produce identical noise")
	}
}

func TestVideoLevelClamping(t *testing.T) {
	v := NewVideo("v", nil)
	if v.FrameAt(0, -5).Level != 0 {
		t.Fatal("negative level not clamped")
	}
	if v.FrameAt(0, 99).Level != v.Levels()-1 {
		t.Fatal("high level not clamped")
	}
	if v.PayloadType(99) != rtp.PTAVI {
		t.Fatal("bottom rung must be AVI")
	}
	if v.PayloadType(0) != rtp.PTMPEG {
		t.Fatal("top rung must be MPEG")
	}
}

func TestAudioBlocks(t *testing.T) {
	a := NewAudio(nil)
	f := a.FrameAt(0, 1) // PCM 8 kHz
	// 64 kb/s × 20 ms / 8 = 160 bytes.
	if f.Size != 160 {
		t.Fatalf("PCM block = %d bytes, want 160", f.Size)
	}
	if a.FrameAt(0, 2).Size != 80 { // ADPCM 4-bit
		t.Fatalf("ADPCM block = %d", a.FrameAt(0, 2).Size)
	}
	if pts := a.FrameAt(50, 0).PTS; pts != time.Second {
		t.Fatalf("block 50 at %v, want 1s: 50 blocks a second", pts)
	}
}

func TestAudioLadderCodecsAndRates(t *testing.T) {
	a := NewAudio(nil)
	pts := []rtp.PayloadType{rtp.PTPCM, rtp.PTPCM, rtp.PTADPCM, rtp.PTVADPCM}
	for l, want := range pts {
		if a.PayloadType(l) != want {
			t.Fatalf("level %d PT = %v, want %v", l, a.PayloadType(l), want)
		}
	}
	for l := 1; l < a.Levels(); l++ {
		if a.Bitrate(l) >= a.Bitrate(l-1) {
			t.Fatal("audio ladder not decreasing")
		}
	}
	if a.Bitrate(1) != 64000 {
		t.Fatalf("PCM 8kHz rate = %v", a.Bitrate(1))
	}
}

func TestImageSizesByLevel(t *testing.T) {
	im := NewImage(320, 240)
	s0, s1, s2 := im.Size(0), im.Size(1), im.Size(2)
	if !(s0 > s1 && s1 > s2) {
		t.Fatalf("sizes %d %d %d", s0, s1, s2)
	}
	if s0 != 320*240/2 {
		t.Fatalf("JPEG q90 size = %d", s0)
	}
	if im.PayloadType(0) != rtp.PTJPEG || im.PayloadType(2) != rtp.PTGIF {
		t.Fatal("image payload types")
	}
	if f := im.FrameAt(0, 0); f.Size != s0 || !f.Marker {
		t.Fatalf("image frame = %+v", f)
	}
	if im.FrameAt(1, 0).Size != 0 {
		t.Fatal("image delivered twice")
	}
}

func TestImageMinimumSize(t *testing.T) {
	im := NewImage(8, 8)
	if im.Size(2) < 256 {
		t.Fatalf("size floor violated: %d", im.Size(2))
	}
}

func TestTextSource(t *testing.T) {
	tx := NewText("hello world")
	if tx.Levels() != 1 {
		t.Fatal("text must have one level")
	}
	f := tx.FrameAt(0, 0)
	if f.Size != 11 {
		t.Fatalf("text frame size = %d", f.Size)
	}
	if tx.PayloadType(0) != rtp.PTText {
		t.Fatal("text PT")
	}
	empty := NewText("")
	if empty.FrameAt(0, 0).Size != 1 {
		t.Fatal("empty text frame must have size 1")
	}
}

func TestPayloadDeterministicAndTagged(t *testing.T) {
	p1 := Payload("v1", 7, 100)
	p2 := Payload("v1", 7, 100)
	if !bytes.Equal(p1, p2) {
		t.Fatal("payload not deterministic")
	}
	if !bytes.HasPrefix(p1, []byte("v1#7|")) {
		t.Fatalf("payload tag missing: %q", p1[:10])
	}
	if len(Payload("x", 0, 0)) != 1 {
		t.Fatal("zero size not clamped")
	}
}

func TestForStreamDispatch(t *testing.T) {
	cases := []struct {
		s    *scenario.Stream
		want string
	}{
		{&scenario.Stream{ID: "v", Type: scenario.TypeVideo}, "*media.Video"},
		{&scenario.Stream{ID: "a", Type: scenario.TypeAudio}, "*media.Audio"},
		{&scenario.Stream{ID: "i", Type: scenario.TypeImage, Width: 100, Height: 100}, "*media.Image"},
		{&scenario.Stream{ID: "t", Type: scenario.TypeText, Text: "x"}, "*media.Text"},
	}
	for _, c := range cases {
		src := ForStream(c.s)
		if got := typeName(src); got != c.want {
			t.Errorf("ForStream(%v) = %s, want %s", c.s.Type, got, c.want)
		}
	}
	// Default image dimensions applied.
	im := ForStream(&scenario.Stream{ID: "i2", Type: scenario.TypeImage}).(*Image)
	if im.Size(0) != 320*240/2 {
		t.Fatalf("default image size = %d", im.Size(0))
	}
}

func typeName(v interface{}) string {
	switch v.(type) {
	case *Video:
		return "*media.Video"
	case *Audio:
		return "*media.Audio"
	case *Image:
		return "*media.Image"
	case *Text:
		return "*media.Text"
	default:
		return "?"
	}
}

func TestFrameKindStrings(t *testing.T) {
	names := map[FrameKind]string{FrameI: "I", FrameP: "P", FrameB: "B", FrameAudio: "A", FrameStill: "S", FrameKind(99): "?"}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("kind %d = %q, want %q", k, k.String(), want)
		}
	}
}

// Property: bitrate ladders are strictly decreasing for video and audio.
func TestQuickLadderMonotone(t *testing.T) {
	srcs := []Source{NewVideo("v", nil), NewAudio(nil), NewImage(640, 480)}
	for i, s := range srcs {
		for l := 1; l < s.Levels(); l++ {
			if s.Bitrate(l) >= s.Bitrate(l-1) {
				t.Fatalf("source %d: ladder not decreasing at level %d", i, l)
			}
		}
	}
}
