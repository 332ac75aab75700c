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
