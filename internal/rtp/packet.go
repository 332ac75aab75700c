// Package rtp implements the Real-time Transport Protocol and its control
// protocol RTCP per RFC 1889 (the 1995 Internet-Draft the paper cites as
// [SCH 95]): RTP data packet marshaling, RTCP sender/receiver reports with
// the standard interarrival-jitter estimator and fraction-lost computation,
// and per-stream sender/receiver session state.
//
// The service uses RTP for time-sensitive media (audio/video) and the
// presentation scenario, and RTCP receiver reports as the feedback channel
// that drives the server's quality-grading decisions.
package rtp

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Version is the RTP protocol version implemented (RFC 1889).
const Version = 2

// HeaderSize is the fixed RTP header size without CSRCs.
const HeaderSize = 12

// PayloadType identifies the media coding of an RTP packet. Values follow
// the RFC 1890 static audio/video profile where one exists.
type PayloadType uint8

// Payload types used by the service.
const (
	PTPCM      PayloadType = 0   // PCMU audio
	PTADPCM    PayloadType = 5   // DVI4/ADPCM audio
	PTVADPCM   PayloadType = 6   // variable-rate ADPCM (profile-specific)
	PTJPEG     PayloadType = 26  // JPEG stills
	PTMPEG     PayloadType = 32  // MPEG video
	PTAVI      PayloadType = 97  // dynamic: AVI-wrapped video
	PTScenario PayloadType = 100 // dynamic: HML presentation scenario
	PTGIF      PayloadType = 101 // dynamic: GIF stills
	PTText     PayloadType = 102 // dynamic: text content
)

func (pt PayloadType) String() string {
	switch pt {
	case PTPCM:
		return "PCM"
	case PTADPCM:
		return "ADPCM"
	case PTVADPCM:
		return "VADPCM"
	case PTJPEG:
		return "JPEG"
	case PTMPEG:
		return "MPEG"
	case PTAVI:
		return "AVI"
	case PTScenario:
		return "scenario"
	case PTGIF:
		return "GIF"
	case PTText:
		return "text"
	default:
		return fmt.Sprintf("PT%d", uint8(pt))
	}
}

// Packet is one RTP data packet.
type Packet struct {
	// Marker flags a significant event (end of a frame for video, start
	// of a talkspurt for audio).
	Marker bool
	// PayloadType is the media coding.
	PayloadType PayloadType
	// SequenceNumber increments by one per packet, wrapping at 2^16.
	SequenceNumber uint16
	// Timestamp is the sampling instant in media clock units.
	Timestamp uint32
	// SSRC identifies the synchronization source (one per stream).
	SSRC uint32
	// Payload is the media data.
	Payload []byte
}

// AppendHeader appends a 12-byte RTP header with the given fields to dst.
func AppendHeader(dst []byte, marker bool, pt PayloadType, seq uint16, ts, ssrc uint32) []byte {
	b1 := uint8(pt) & 0x7f
	if marker {
		b1 |= 0x80
	}
	return append(dst,
		Version<<6, // V=2, P=0, X=0, CC=0
		b1,
		byte(seq>>8), byte(seq),
		byte(ts>>24), byte(ts>>16), byte(ts>>8), byte(ts),
		byte(ssrc>>24), byte(ssrc>>16), byte(ssrc>>8), byte(ssrc),
	)
}

// ErrMalformed reports an undecodable RTP/RTCP packet.
var ErrMalformed = errors.New("rtp: malformed packet")

// Unmarshal decodes an RTP packet from wire format into p, so a receiver can
// parse into a value on its stack. p's Payload is a zero-copy view into buf:
// it stays valid only as long as the caller owns buf. Receivers that hand the
// buffer back to a transport (or a pool) after the handler returns must copy
// whatever payload bytes they keep — the client's frame reassembly copies an
// observer's fragments into its own pooled scratch for exactly this reason.
// On error p is left unchanged.
func (p *Packet) Unmarshal(buf []byte) error {
	if len(buf) < HeaderSize {
		return fmt.Errorf("%w: %d bytes", ErrMalformed, len(buf))
	}
	if v := buf[0] >> 6; v != Version {
		return fmt.Errorf("%w: version %d", ErrMalformed, v)
	}
	cc := int(buf[0] & 0x0f)
	hdr := HeaderSize + 4*cc
	if len(buf) < hdr {
		return fmt.Errorf("%w: truncated CSRC list", ErrMalformed)
	}
	*p = Packet{
		Marker:         buf[1]&0x80 != 0,
		PayloadType:    PayloadType(buf[1] & 0x7f),
		SequenceNumber: binary.BigEndian.Uint16(buf[2:]),
		Timestamp:      binary.BigEndian.Uint32(buf[4:]),
		SSRC:           binary.BigEndian.Uint32(buf[8:]),
		Payload:        buf[hdr:],
	}
	return nil
}

// Unmarshal decodes an RTP packet from wire format into a new Packet; see
// (*Packet).Unmarshal.
func Unmarshal(buf []byte) (*Packet, error) {
	p := new(Packet)
	if err := p.Unmarshal(buf); err != nil {
		return nil, err
	}
	return p, nil
}
