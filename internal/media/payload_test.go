package media

import (
	"bytes"
	"hash/crc32"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestAppendPayloadMatchesPayload(t *testing.T) {
	for _, size := range []int{1, 2, 7, 8, 9, 100, MTU, MTU + 1, 4096} {
		want := Payload("vid", 17, size)
		prefix := []byte("hdr")
		got := AppendPayload(append([]byte(nil), prefix...), "vid", 17, size)
		if !bytes.Equal(got[:len(prefix)], prefix) {
			t.Fatalf("size %d: prefix clobbered", size)
		}
		if !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("size %d: appended payload differs from Payload", size)
		}
	}
}

func TestPayloadTagEdgeCases(t *testing.T) {
	a := Payload("stream-a", 42, 512)
	if bytes.Equal(a, Payload("stream-a", 43, 512)) || bytes.Equal(a, Payload("stream-b", 42, 512)) {
		t.Fatal("payloads must differ across frames and streams")
	}
	// Tiny payloads truncate the tag instead of overflowing.
	tiny := Payload("stream-a", 42, 3)
	if len(tiny) != 3 || string(tiny) != "str" {
		t.Fatalf("tiny payload = %q", tiny)
	}
	// Long ids are written whole.
	long := strings.Repeat("x", 200)
	p := Payload(long, 5, 300)
	if !strings.HasPrefix(string(p), long+"#5|") {
		t.Fatal("long-id tag corrupted")
	}
}

// TestAppendPayloadAllocFree: with a pre-grown destination the synthesis path
// must not allocate — its writer runs once per emitted frame on the server.
func TestAppendPayloadAllocFree(t *testing.T) {
	scratch := make([]byte, 0, 8192)
	avg := testing.AllocsPerRun(100, func() {
		scratch = AppendPayload(scratch[:0], "vid", 7, 8000)
	})
	if avg != 0 {
		t.Fatalf("AppendPayload allocates %.1f objects/frame with warm scratch", avg)
	}
}

// TestVideoFrameAtAllocFree: frame metadata synthesis is on the per-frame
// emit path and must not allocate (its VBR noise RNG lives on the stack).
func TestVideoFrameAtAllocFree(t *testing.T) {
	v := NewVideo("v", nil)
	i := 0
	avg := testing.AllocsPerRun(100, func() {
		_ = v.FrameAt(i, 0)
		i++
	})
	if avg != 0 {
		t.Fatalf("Video.FrameAt allocates %.1f objects/frame", avg)
	}
}

// TestFragmentSpanMatchesFragments: a frame's fragments, FragmentSpan of
// each index below FragmentCount, start at index×MTU, tile the frame
// without a gap and hold at most MTU bytes each.
func TestFragmentSpanMatchesFragments(t *testing.T) {
	f := func(size uint32) bool {
		s := int(size % 500000)
		end := 0
		for i := range FragmentCount(s) {
			off, n := FragmentSpan(s, i)
			if off != i*MTU || off != end || n > MTU {
				return false
			}
			end += n
		}
		return end == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if c := FragmentCount(0); c != 1 {
		t.Fatalf("FragmentCount(0) = %d, want 1 (empty frames still ship one packet)", c)
	}
	if off, n := FragmentSpan(0, 0); off != 0 || n != 0 {
		t.Fatalf("FragmentSpan(0,0) = %d,%d", off, n)
	}
}

// TestFrameHeaderAppendToMatchesMarshal keeps the frame header appended
// after an RTP header bit-identical to one appended to nothing.
func TestFrameHeaderAppendToMatchesMarshal(t *testing.T) {
	h := FrameHeader{Index: 9999, Level: 2, Kind: FrameB, Frag: 3, FragCount: 8, FrameSize: 150000}
	prefix := []byte("rtp-header-bytes")
	out := h.AppendTo(append([]byte(nil), prefix...))
	if !bytes.Equal(out[:len(prefix)], prefix) || !bytes.Equal(out[len(prefix):], h.AppendTo(nil)) {
		t.Fatal("AppendTo after a prefix corrupted the encoding")
	}
}

// TestPayloadBytesPinned pins the payload bytes themselves: an OnFrame
// observer (the bench's check repetition, the client integrity tests) checks
// frame bodies against Payload, so a change here would pass end to end while
// changing what every stream carries. The rows no longer than the tag pin
// the tag alone.
func TestPayloadBytesPinned(t *testing.T) {
	for _, c := range []struct {
		id          string
		index, size int
		crc         uint32
	}{
		{"vid", 17, 1, 0x6b643b84},
		{"vid", 17, 5, 0x56374e5c},
		{"vid", 17, 7, 0x0f07a724},
		{"vid", 17, 4096, 0xfbabeee8},
		{"algorithmsu1a0", 123456, MTU, 0x302f79b1},
		{strings.Repeat("x", 200), -5, MTU + 1, 0x79f08ef9},
		{"s", 0, 0, 0x1b0ecf0b},
	} {
		if got := crc32.ChecksumIEEE(Payload(c.id, c.index, c.size)); got != c.crc {
			t.Errorf("Payload(%.8q, %d, %d) crc32 = %08x, want %08x", c.id, c.index, c.size, got, c.crc)
		}
	}
}

// TestPayloadDistinctPastTag: past the tag, two streams whose ids have the
// same length, and two consecutive frames of one stream, carry different
// bytes in every fragment, so a fragment delivered into the wrong frame
// fails a Payload check even when it carries no tag.
func TestPayloadDistinctPastTag(t *testing.T) {
	const size = 5 * MTU
	differ := func(a, b []byte) bool {
		for f := 1; f < FragmentCount(size); f++ {
			off, n := FragmentSpan(size, f)
			if bytes.Equal(a[off:off+n], b[off:off+n]) {
				return false
			}
		}
		return true
	}
	for _, pair := range [][2]string{
		{"algorithmsu1a0", "algorithmsu1v0"},
		{"algorithmsu1v0", "algorithmsu1s0"},
		{"algorithmsu1a0", "algorithmsu2a0"},
		{"algou1v0", "algou2v0"},
	} {
		for _, i := range []int{0, 7, 123456} {
			if !differ(Payload(pair[0], i, size), Payload(pair[1], i, size)) {
				t.Errorf("%s and %s frame %d share a fragment past the tag", pair[0], pair[1], i)
			}
		}
	}
	for _, i := range []int{0, 7, 9, 99, 4095} {
		if !differ(Payload("algorithmsu1v0", i, size), Payload("algorithmsu1v0", i+1, size)) {
			t.Errorf("frames %d and %d share a fragment past the tag", i, i+1)
		}
	}
}

// TestStillFragmentsDistinct: no two MTU fragments of one 256 KB still are
// byte-equal, so a fragment misplaced within a large frame fails the check.
func TestStillFragmentsDistinct(t *testing.T) {
	const size = 256 << 10
	p := Payload("algorithmsu1s0", 0, size)
	seen := make(map[string]int)
	for f := 0; f < FragmentCount(size); f++ {
		off, n := FragmentSpan(size, f)
		if g, dup := seen[string(p[off:off+n])]; dup {
			t.Fatalf("fragments %d and %d are byte-equal", g, f)
		}
		seen[string(p[off:off+n])] = f
	}
}

// BenchmarkPayloadWriter times one MTU fragment: a Reset and its Append.
func BenchmarkPayloadWriter(b *testing.B) {
	b.SetBytes(MTU)
	dst := make([]byte, 0, MTU)
	var w PayloadWriter
	i := 0
	for b.Loop() {
		w.Reset("algorithmsu1v0", i, MTU)
		dst = w.Append(dst[:0], MTU)
		i++
	}
}

// FuzzPayloadWriter: a PayloadWriter fed any split schedule writes exactly
// Payload's bytes. Each byte of split is the length of the next piece.
func FuzzPayloadWriter(f *testing.F) {
	long := strings.Repeat("x", 200) // a tag longer than any fixed scratch
	f.Add("vid", 17, 4096, []byte{7, 1, 0, 255})
	f.Add(long, 5, 300, []byte{3, 250})
	f.Add("stream-a", 42, 3, []byte{1, 1})      // smaller than the tag
	f.Add("stream-a", -42, 12, []byte{2, 9, 9}) // tag ends mid-piece
	f.Add("s", 0, 0, []byte{0})
	for _, size := range []int{MTU - 1, MTU, MTU + 1, 2*MTU - 1, 2 * MTU, 2*MTU + 1} {
		f.Add("algorithmsu1v0", 9999, size, []byte{255, 255, 255, 255, 255, 120})
	}
	// Payloads that cross the filler table's end, found by search: the wrap
	// falls inside a piece in one and on a piece boundary in the other.
	var w PayloadWriter
	for index, inside, boundary := 0, false, false; !inside || !boundary; index++ {
		w.Reset("algorithmsu1v0", index, MTU)
		tag := len("algorithmsu1v0#|") + len(strconv.Itoa(index))
		wrap := tag + fillerLen - w.pos // payload offset of the table's first byte
		switch {
		case !inside && wrap < MTU && wrap%255 != 0:
			f.Add("algorithmsu1v0", index, MTU, []byte{255, 255, 255, 255, 255, 255})
			inside = true
		case !boundary && wrap < 256:
			f.Add("algorithmsu1v0", index, MTU, []byte{byte(wrap), 255})
			boundary = true
		}
	}
	f.Fuzz(func(t *testing.T, id string, index, size int, split []byte) {
		size %= 1 << 16 // bound the work per input
		want := Payload(id, index, size)
		var w PayloadWriter
		w.Reset(id, index, size)
		got := []byte("hdr")
		for _, n := range split {
			got = w.Append(got, int(n))
		}
		got = w.Append(got, len(want)) // the rest, if the schedule fell short
		if !bytes.Equal(got[3:], want) || string(got[:3]) != "hdr" {
			t.Fatalf("Payload(%q, %d, %d) split %v: pieces differ from Payload", id, index, size, split)
		}
		if more := w.Append(nil, 1); len(more) != 0 {
			t.Fatalf("writer kept writing past the payload's %d bytes", len(want))
		}
	})
}
