package media

import (
	"encoding/binary"
	"errors"
)

// FrameHeaderSize is the wire size of the in-payload frame header carried at
// the start of every RTP fragment.
const FrameHeaderSize = 14

// FrameHeader is the per-fragment metadata the media servers prepend inside
// the RTP payload: which frame the fragment belongs to, the quality level it
// was encoded at, the frame kind, and the fragment position.
type FrameHeader struct {
	// Index is the frame ordinal in the stream.
	Index uint32
	// Level is the quality level the frame was encoded at.
	Level uint8
	// Kind is the frame kind.
	Kind FrameKind
	// Frag and FragCount position this fragment within the frame.
	Frag, FragCount uint16
	// FrameSize is the full encoded frame size in bytes. 32 bits wide: a
	// full-quality still already exceeds 64 KiB at 640×480 (0.5 B/px →
	// 153600 bytes), so a uint16 here silently truncated the size the
	// client reassembles against.
	FrameSize uint32
}

// ErrShortHeader reports a payload too small for a frame header.
var ErrShortHeader = errors.New("media: short frame header")

// AppendTo appends the 14-byte wire header to dst and returns the extended
// slice. The sender hot path uses it to assemble header and fragment into
// one pooled buffer.
func (h *FrameHeader) AppendTo(dst []byte) []byte {
	return append(dst,
		byte(h.Index>>24), byte(h.Index>>16), byte(h.Index>>8), byte(h.Index),
		h.Level,
		uint8(h.Kind),
		byte(h.Frag>>8), byte(h.Frag),
		byte(h.FragCount>>8), byte(h.FragCount),
		byte(h.FrameSize>>24), byte(h.FrameSize>>16), byte(h.FrameSize>>8), byte(h.FrameSize),
	)
}

// ParseFrameHeader splits a payload into header and fragment data. It accepts
// only the geometry senders emit (FragCount is FragmentCount(FrameSize), Frag
// lies below it), so FragmentSpan of the result lies inside the frame.
func ParseFrameHeader(buf []byte) (FrameHeader, []byte, error) {
	if len(buf) < FrameHeaderSize {
		return FrameHeader{}, nil, ErrShortHeader
	}
	h := FrameHeader{
		Index:     binary.BigEndian.Uint32(buf[0:]),
		Level:     buf[4],
		Kind:      FrameKind(buf[5]),
		Frag:      binary.BigEndian.Uint16(buf[6:]),
		FragCount: binary.BigEndian.Uint16(buf[8:]),
		FrameSize: binary.BigEndian.Uint32(buf[10:]),
	}
	if int(h.FragCount) != FragmentCount(int(h.FrameSize)) || h.Frag >= h.FragCount {
		return FrameHeader{}, nil, errors.New("media: fragment outside its frame")
	}
	return h, buf[FrameHeaderSize:], nil
}

// MTU is the maximum RTP payload carried per packet (fragment data after the
// frame header), chosen to keep packets under a typical 1500-byte Ethernet
// MTU with RTP/UDP/IP headers.
const MTU = 1400

// FragmentCount returns the number of MTU-bounded fragments a frame of the
// given size splits into (at least one, even for empty frames). Together
// with FragmentSpan it lets the sender iterate fragments without building a
// slice.
func FragmentCount(size int) int {
	if size <= 0 {
		return 1
	}
	return (size + MTU - 1) / MTU
}

// FragmentSpan returns the byte range [off, off+n) of fragment i within a
// frame of the given size. Fragment i always starts at i×MTU, which is also
// the offset receivers use to place a fragment into reassembly scratch.
func FragmentSpan(size, i int) (off, n int) {
	off = i * MTU
	if size <= off {
		return off, 0
	}
	n = size - off
	if n > MTU {
		n = MTU
	}
	return off, n
}
