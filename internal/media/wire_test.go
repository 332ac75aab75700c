package media

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"
)

func TestFrameHeaderRoundTrip(t *testing.T) {
	h := FrameHeader{Index: 123456, Level: 3, Kind: FrameP, Frag: 2, FragCount: 5, FrameSize: 7000}
	data := []byte("fragment payload")
	buf := append(h.AppendTo(nil), data...)
	if len(buf) != FrameHeaderSize+len(data) {
		t.Fatalf("wire size = %d", len(buf))
	}
	got, rest, err := ParseFrameHeader(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("header = %+v, want %+v", got, h)
	}
	if !bytes.Equal(rest, data) {
		t.Fatalf("data = %q", rest)
	}
}

func TestParseFrameHeaderShort(t *testing.T) {
	if _, _, err := ParseFrameHeader(make([]byte, FrameHeaderSize-1)); err != ErrShortHeader {
		t.Fatalf("err = %v", err)
	}
}

// Property: a header is accepted exactly when its geometry is consistent,
// and an accepted header round-trips. Arbitrary geometry is almost never
// consistent, so each case also checks the consistent header nearest to it.
func TestQuickFrameHeaderRoundTrip(t *testing.T) {
	roundTrips := func(h FrameHeader, data []byte) bool {
		consistent := int(h.FragCount) == FragmentCount(int(h.FrameSize)) && h.Frag < h.FragCount
		got, rest, err := ParseFrameHeader(append(h.AppendTo(nil), data...))
		if !consistent {
			return err != nil
		}
		return err == nil && got == h && bytes.Equal(rest, data)
	}
	f := func(index uint32, level, kind uint8, frag, count uint16, size uint32, data []byte) bool {
		h := FrameHeader{Index: index, Level: level, Kind: FrameKind(kind),
			Frag: frag, FragCount: count, FrameSize: size}
		fit := h
		fit.FrameSize = size % (0xFFFF * MTU)
		fit.FragCount = uint16(FragmentCount(int(fit.FrameSize)))
		fit.Frag = frag % fit.FragCount
		return roundTrips(h, data) && roundTrips(fit, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Regression: a header whose fragment lies outside its frame used to parse,
// and the client then sliced reassembly scratch out of range (FrameSize 10
// with fragment 65534 of 65535) or sized it by a FrameSize near 4 GiB.
func TestParseFrameHeaderRejectsBadGeometry(t *testing.T) {
	for _, h := range []FrameHeader{
		{FrameSize: 10, FragCount: 65535, Frag: 65534},
		{FrameSize: 0xFFFFFFF0, FragCount: 65535},
		{FrameSize: 10, FragCount: 0},
		{FrameSize: 3 * MTU, FragCount: 3, Frag: 3},
		{FrameSize: 3 * MTU, FragCount: 4, Frag: 3},
	} {
		if _, _, err := ParseFrameHeader(h.AppendTo(nil)); err == nil {
			t.Errorf("ParseFrameHeader(%+v) accepted a fragment outside its frame", h)
		}
	}
	for _, h := range []FrameHeader{
		{FrameSize: 0, FragCount: 1},
		{FrameSize: 3 * MTU, FragCount: 3, Frag: 2},
		{FrameSize: 0xFFFF * MTU, FragCount: 0xFFFF, Frag: 0xFFFE},
	} {
		if _, _, err := ParseFrameHeader(h.AppendTo(nil)); err != nil {
			t.Errorf("ParseFrameHeader(%+v) = %v, want accepted", h, err)
		}
	}
}

// FuzzParseFrameHeader: whatever a packet carries, an accepted header
// re-encodes to the same 14 bytes and its fragment lies inside the frame.
func FuzzParseFrameHeader(f *testing.F) {
	for _, h := range []FrameHeader{
		{Index: 7, Level: 1, Kind: FrameP, Frag: 2, FragCount: 5, FrameSize: 7000},
		{FrameSize: 10, FragCount: 65535, Frag: 65534},
		{FrameSize: 0, FragCount: 1},
	} {
		f.Add(append(h.AppendTo(nil), "fragment"...))
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		h, rest, err := ParseFrameHeader(buf)
		if err != nil {
			return
		}
		if wire := h.AppendTo(nil); !bytes.Equal(wire, buf[:FrameHeaderSize]) {
			t.Fatalf("header %+v re-encodes to %x, parsed from %x", h, wire, buf[:FrameHeaderSize])
		}
		if !bytes.Equal(rest, buf[FrameHeaderSize:]) {
			t.Fatal("fragment data is not the bytes after the header")
		}
		if off, n := FragmentSpan(int(h.FrameSize), int(h.Frag)); off < 0 || n < 0 || off+n > int(h.FrameSize) {
			t.Fatalf("header %+v: fragment span [%d, %d) outside the frame", h, off, off+n)
		}
	})
}

// Regression: frame sizes past 64 KiB must survive the wire header intact.
// A full-quality 640×480 still encodes to 153600 bytes, which a uint16
// FrameSize silently truncated to 22528 — corrupting the size the client
// reassembles against.
func TestFrameHeaderLargeFrameSize(t *testing.T) {
	im := NewImage(640, 480)
	size := im.Size(0)
	if size <= 0xFFFF {
		t.Fatalf("test premise broken: 640×480 still = %d bytes, want > 64 KiB", size)
	}
	h := FrameHeader{Index: 0, Kind: FrameStill, Frag: 0,
		FragCount: uint16(FragmentCount(size)), FrameSize: uint32(size)}
	got, _, err := ParseFrameHeader(append(h.AppendTo(nil), 'x'))
	if err != nil {
		t.Fatal(err)
	}
	if got.FrameSize != uint32(size) || int(got.FrameSize) != size {
		t.Fatalf("FrameSize = %d, want %d", got.FrameSize, size)
	}
}

func TestFragments(t *testing.T) {
	cases := []struct {
		size int
		want []int
	}{
		{0, []int{0}},
		{-5, []int{0}},
		{1, []int{1}},
		{MTU, []int{MTU}},
		{MTU + 1, []int{MTU, 1}},
		{3*MTU + 7, []int{MTU, MTU, MTU, 7}},
	}
	for _, c := range cases {
		if n := FragmentCount(c.size); n != len(c.want) {
			t.Fatalf("FragmentCount(%d) = %d, want %d", c.size, n, len(c.want))
		}
		for i, want := range c.want {
			if _, n := FragmentSpan(c.size, i); n != want {
				t.Fatalf("FragmentSpan(%d, %d) = %d bytes, want %d", c.size, i, n, want)
			}
		}
	}
}

// Property: fragments always sum to the frame size and never exceed MTU.
func TestQuickFragmentsConserve(t *testing.T) {
	f := func(size uint16) bool {
		sum := 0
		for i := range FragmentCount(int(size)) {
			_, n := FragmentSpan(int(size), i)
			if n > MTU || n < 0 {
				return false
			}
			sum += n
		}
		return sum == int(size)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSourceLevelNamesAndIntervals(t *testing.T) {
	v := NewVideo("v", nil)
	a := NewAudio(nil)
	im := NewImage(100, 100)
	tx := NewText("x")
	if v.FrameInterval() != 40*time.Millisecond || a.FrameInterval() != 20*time.Millisecond {
		t.Fatal("frame intervals")
	}
	if im.FrameInterval() <= 0 || tx.FrameInterval() <= 0 {
		t.Fatal("still intervals must be positive")
	}
	if tx.Bitrate(0) <= 0 || im.Bitrate(1) <= 0 {
		t.Fatal("still bitrates")
	}
	// Image secondary frames are empty.
	if f := im.FrameAt(3, 0); f.Size != 0 {
		t.Fatalf("image frame 3 size = %d", f.Size)
	}
	if f := tx.FrameAt(2, 0); f.Size != 0 {
		t.Fatalf("text frame 2 size = %d", f.Size)
	}
}
