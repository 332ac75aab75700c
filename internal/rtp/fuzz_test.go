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
		f.Add(p.Marshal())
	}
	f.Add([]byte{1, 2, 3})
	truncatedCSRC := make([]byte, HeaderSize)
	truncatedCSRC[0] = Version<<6 | 5
	f.Add(truncatedCSRC)
	wrongVersion := (&Packet{PayloadType: PTPCM}).Marshal()
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
		if buf[0] == Version<<6 && !bytes.Equal(p.Marshal(), buf) {
			t.Fatalf("re-encoding differs:\n got  %x\n want %x", p.Marshal(), buf)
		}
	})
}

// FuzzUnmarshalControl holds the RTCP decoder, which the server runs on the
// feedback every client sends, to its contract on any input: splitting a
// compound datagram and decoding it, whole or part by part, never panics;
// every error wraps ErrMalformed; and a packet that decodes to an SR or RR
// re-encodes to bytes that decode to the same report. The corpus is seeded
// from the package's SR, RR, SDES and BYE vectors.
func FuzzUnmarshalControl(f *testing.F) {
	sr := (&SenderReport{
		SSRC: 0x11223344, NTPTime: 0xAABBCCDDEEFF0011, RTPTime: 90000,
		PacketCount: 1000, OctetCount: 500000,
		Reports: []ReceptionReport{{
			SSRC: 5, FractionLost: 64, CumulativeLost: 123,
			ExtendedHighSeq: 70000, Jitter: 450, LastSR: 99, DelaySinceLastSR: 88,
		}},
	}).Marshal()
	rr := (&ReceiverReport{SSRC: 9, Reports: []ReceptionReport{
		{SSRC: 1, FractionLost: 10, CumulativeLost: 5, ExtendedHighSeq: 100, Jitter: 7},
		{SSRC: 2, CumulativeLost: -3, ExtendedHighSeq: 50, Jitter: 1},
	}}).Marshal()
	sdes := (&SourceDescription{SSRC: 31337, CNAME: "client@host"}).Marshal()
	bye := (&Goodbye{SSRC: 77, Reason: "session over"}).Marshal()
	for _, seed := range [][]byte{sr, rr, sdes, bye, bytes.Join([][]byte{sr, rr, bye}, nil), {0x80, TypeSR}} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, buf []byte) {
		parts, err := SplitCompound(nil, buf)
		if err != nil && !errors.Is(err, ErrMalformed) {
			t.Fatalf("SplitCompound error %v does not wrap ErrMalformed", err)
		}
		for _, part := range append(parts, buf) {
			cp, err := UnmarshalControl(part)
			if err != nil {
				if !errors.Is(err, ErrMalformed) || cp != nil {
					t.Fatalf("UnmarshalControl = %+v, %v: want nil and an ErrMalformed", cp, err)
				}
				continue
			}
			var again []byte
			switch {
			case cp.SR != nil:
				again = cp.SR.Marshal()
			case cp.RR != nil:
				again = cp.RR.Marshal()
			default:
				continue
			}
			cp2, err := UnmarshalControl(again)
			if err != nil || !reflect.DeepEqual(cp2, cp) {
				t.Fatalf("re-encoded %+v decodes to %+v, %v", cp, cp2, err)
			}
		}
	})
}
