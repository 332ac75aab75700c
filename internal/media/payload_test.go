package media

import (
	"bytes"
	"hash/crc32"
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

func TestFragmentSpanMatchesFragments(t *testing.T) {
	f := func(size uint32) bool {
		s := int(size % 500000)
		frags := Fragments(s)
		if FragmentCount(s) != len(frags) {
			return false
		}
		for i, n := range frags {
			off, fn := FragmentSpan(s, i)
			if fn != n || off != i*MTU {
				return false
			}
		}
		return true
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

// TestFrameHeaderAppendToMatchesMarshal keeps the append-style frame-header
// encoder bit-identical to the allocating one.
func TestFrameHeaderAppendToMatchesMarshal(t *testing.T) {
	h := FrameHeader{Index: 9999, Level: 2, Kind: FrameB, Frag: 3, FragCount: 8, FrameSize: 150000}
	if !bytes.Equal(h.AppendTo(nil), h.Marshal(nil)) {
		t.Fatal("AppendTo(nil) differs from Marshal(nil)")
	}
	prefix := []byte("rtp-header-bytes")
	out := h.AppendTo(append([]byte(nil), prefix...))
	if !bytes.Equal(out[:len(prefix)], prefix) || !bytes.Equal(out[len(prefix):], h.Marshal(nil)) {
		t.Fatal("AppendTo after a prefix corrupted the encoding")
	}
}

// TestPayloadBytesPinned pins the filler bytes themselves: the client checks
// every frame body against Payload, so a change here would pass end to end
// while changing what every stream carries.
func TestPayloadBytesPinned(t *testing.T) {
	for _, c := range []struct {
		id          string
		index, size int
		crc         uint32
	}{
		{"vid", 17, 1, 0x6b643b84},
		{"vid", 17, 5, 0x56374e5c},
		{"vid", 17, 7, 0x0f07a724},
		{"vid", 17, 4096, 0x627bfcbd},
		{"algorithmsu1a0", 123456, MTU, 0xf6555219},
		{strings.Repeat("x", 200), -5, MTU + 1, 0xf3100857},
		{"s", 0, 0, 0x1b0ecf0b},
	} {
		if got := crc32.ChecksumIEEE(Payload(c.id, c.index, c.size)); got != c.crc {
			t.Errorf("Payload(%.8q, %d, %d) crc32 = %08x, want %08x", c.id, c.index, c.size, got, c.crc)
		}
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
