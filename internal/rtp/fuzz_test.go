package rtp

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// FuzzUnmarshal holds the RTP decoder to its contract on any input: it never
// panics; the value decoder (*Packet).Unmarshal and the allocating Unmarshal
// agree, error for error and field for field; an accepted packet's Payload is
// the tail of the input itself, not a copy; and a packet with a plain first
// octet (no CSRCs, padding or extension bits) re-encodes to the same bytes.
// The corpus is seeded from the package's test vectors.
func FuzzUnmarshal(f *testing.F) {
	for _, p := range []*Packet{
		{Marker: true, PayloadType: PTMPEG, SequenceNumber: 0xBEEF, Timestamp: 0x12345678, SSRC: 0xCAFEBABE, Payload: []byte("frame data")},
		{Marker: true, PayloadType: PTJPEG, SequenceNumber: 7, Timestamp: 90000, SSRC: 0x1996, Payload: []byte("still bytes")},
		{PayloadType: PTPCM, Payload: []byte("audio")},
		{PayloadType: PTPCM},
	} {
		f.Add(encode(p))
	}
	f.Add([]byte{1, 2, 3})
	truncatedCSRC := make([]byte, HeaderSize)
	truncatedCSRC[0] = Version<<6 | 5
	f.Add(truncatedCSRC)
	wrongVersion := encode(&Packet{PayloadType: PTPCM})
	wrongVersion[0] = 1 << 6
	f.Add(wrongVersion)

	f.Fuzz(func(t *testing.T, buf []byte) {
		var p Packet
		err := p.Unmarshal(buf)
		q, qerr := Unmarshal(buf)
		if (err == nil) != (qerr == nil) {
			t.Fatalf("(*Packet).Unmarshal err %v, Unmarshal err %v", err, qerr)
		}
		if err != nil {
			if !errors.Is(err, ErrMalformed) || err.Error() != qerr.Error() || q != nil {
				t.Fatalf("errors disagree: %v vs %v (packet %+v)", err, qerr, q)
			}
			if !reflect.DeepEqual(p, Packet{}) {
				t.Fatalf("a failed Unmarshal changed its packet: %+v", p)
			}
			return
		}
		if q.Marker != p.Marker || q.PayloadType != p.PayloadType || q.SequenceNumber != p.SequenceNumber ||
			q.Timestamp != p.Timestamp || q.SSRC != p.SSRC {
			t.Fatalf("headers disagree: %+v vs %+v", p, *q)
		}
		hdr := HeaderSize + 4*int(buf[0]&0x0f)
		for _, pl := range [][]byte{p.Payload, q.Payload} {
			if len(pl) != len(buf)-hdr || cap(pl) != cap(buf)-hdr || (len(pl) > 0 && &pl[0] != &buf[hdr]) {
				t.Fatalf("Payload is not the input's tail after a %d-byte header", hdr)
			}
		}
		if buf[0] == Version<<6 && !bytes.Equal(encode(&p), buf) {
			t.Fatalf("re-encoding differs:\n got  %x\n want %x", encode(&p), buf)
		}
	})
}

// FuzzUnmarshalControl holds the RTCP decode to its contract on any input:
// the server's SplitCompound then (*ReceiverReport).Unmarshal of each part,
// and the test-only (*SenderReport).Unmarshal of a whole datagram. Neither panics, every error wraps ErrMalformed, and a decoded
// report re-encodes with AppendTo to bytes that decode to the same report.
// The corpus is seeded with SR, RR, SDES and BYE packets and a compound.
func FuzzUnmarshalControl(f *testing.F) {
	sr := (&SenderReport{
		SSRC: 0x11223344, NTPTime: 0xAABBCCDDEEFF0011, RTPTime: 90000,
		PacketCount: 1000, OctetCount: 500000,
		Reports: []ReceptionReport{{
			SSRC: 5, FractionLost: 64, CumulativeLost: 123,
			ExtendedHighSeq: 70000, Jitter: 450, LastSR: 99, DelaySinceLastSR: 88,
		}},
	}).AppendTo(nil)
	rr := (&ReceiverReport{SSRC: 9, Reports: []ReceptionReport{
		{SSRC: 1, FractionLost: 10, CumulativeLost: 5, ExtendedHighSeq: 100, Jitter: 7},
		{SSRC: 2, CumulativeLost: -3, ExtendedHighSeq: 50, Jitter: 1},
	}}).AppendTo(nil)
	// An SDES from SSRC 31337 with one CNAME item, and a BYE from SSRC 77
	// with a reason, each padded to a 32-bit boundary.
	sdes := append([]byte{0x81, 202, 0, 5, 0, 0, 0x7a, 0x69, 1, 11}, "client@host\x00\x00\x00"...)
	bye := append([]byte{0x81, 203, 0, 5, 0, 0, 0, 77, 12}, "session over\x00\x00\x00"...)
	for _, seed := range [][]byte{sr, rr, sdes, bye, bytes.Join([][]byte{sr, rr, bye}, nil), {0x80, TypeSR}} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, buf []byte) {
		parts, err := SplitCompound(nil, buf)
		if err != nil && !errors.Is(err, ErrMalformed) {
			t.Fatalf("SplitCompound error %v does not wrap ErrMalformed", err)
		}
		for _, part := range parts {
			var rr, again ReceiverReport
			if err := rr.Unmarshal(part); err != nil {
				if !errors.Is(err, ErrMalformed) {
					t.Fatalf("RR error %v does not wrap ErrMalformed", err)
				}
				continue
			}
			if err := again.Unmarshal(rr.AppendTo(nil)); err != nil || !reflect.DeepEqual(again, rr) {
				t.Fatalf("re-encoded %+v decodes to %+v, %v", rr, again, err)
			}
		}
		var sr, again SenderReport
		if err := sr.Unmarshal(buf); err != nil {
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("SR error %v does not wrap ErrMalformed", err)
			}
			return
		}
		if err := again.Unmarshal(sr.AppendTo(nil)); err != nil || !reflect.DeepEqual(again, sr) {
			t.Fatalf("re-encoded %+v decodes to %+v, %v", sr, again, err)
		}
	})
}
