package rtp

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func TestPacketRoundTrip(t *testing.T) {
	p := &Packet{
		Marker:         true,
		PayloadType:    PTMPEG,
		SequenceNumber: 0xBEEF,
		Timestamp:      0x12345678,
		SSRC:           0xCAFEBABE,
		Payload:        []byte("frame data"),
	}
	buf := encode(p)
	if len(buf) != HeaderSize+len(p.Payload) {
		t.Fatalf("wire size = %d", len(buf))
	}
	q, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.Marker != p.Marker || q.PayloadType != p.PayloadType ||
		q.SequenceNumber != p.SequenceNumber || q.Timestamp != p.Timestamp ||
		q.SSRC != p.SSRC || !bytes.Equal(q.Payload, p.Payload) {
		t.Fatalf("round trip: %+v vs %+v", q, p)
	}
}

func TestPacketVersionBits(t *testing.T) {
	p := &Packet{PayloadType: PTPCM}
	buf := encode(p)
	if buf[0]>>6 != 2 {
		t.Fatalf("version bits = %d", buf[0]>>6)
	}
	buf[0] = 1 << 6 // wrong version
	if _, err := Unmarshal(buf); err == nil {
		t.Fatal("accepted wrong version")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal([]byte{1, 2, 3}); err == nil {
		t.Fatal("accepted short packet")
	}
	// CSRC count beyond buffer.
	buf := make([]byte, HeaderSize)
	buf[0] = Version<<6 | 5
	if _, err := Unmarshal(buf); err == nil {
		t.Fatal("accepted truncated CSRC list")
	}
}

func TestQuickPacketRoundTrip(t *testing.T) {
	f := func(marker bool, pt uint8, seq uint16, ts, ssrc uint32, payload []byte) bool {
		p := &Packet{
			Marker: marker, PayloadType: PayloadType(pt & 0x7f),
			SequenceNumber: seq, Timestamp: ts, SSRC: ssrc, Payload: payload,
		}
		q, err := Unmarshal(encode(p))
		if err != nil {
			return false
		}
		return q.Marker == p.Marker && q.PayloadType == p.PayloadType &&
			q.SequenceNumber == p.SequenceNumber && q.Timestamp == p.Timestamp &&
			q.SSRC == p.SSRC && bytes.Equal(q.Payload, p.Payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// encode is p's wire form: its header, then its payload.
func encode(p *Packet) []byte {
	return append(AppendHeader(nil, p.Marker, p.PayloadType, p.SequenceNumber, p.Timestamp, p.SSRC), p.Payload...)
}

// TestAppendToMatchesMarshal: the append-style header encoder is the
// single-pass assembly primitive; appending after an existing prefix leaves
// the prefix alone and adds the same bytes as appending to nothing.
func TestAppendToMatchesMarshal(t *testing.T) {
	prefix := []byte("prefix-")
	out := AppendHeader(append([]byte(nil), prefix...), true, PTJPEG, 7, 90000, 0x1996)
	if !bytes.Equal(out[:len(prefix)], prefix) || !bytes.Equal(out[len(prefix):], AppendHeader(nil, true, PTJPEG, 7, 90000, 0x1996)) {
		t.Fatal("AppendHeader after a prefix corrupted the encoding")
	}
}

// next has s emit its next packet for payload through AppendNext, the way
// the server's emit path does, and decodes it back.
func next(t *testing.T, s *Sender, ts time.Duration, payload []byte, marker bool) *Packet {
	t.Helper()
	p, err := Unmarshal(append(s.AppendNext(nil, ts, marker, len(payload)), payload...))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestAppendNextMatchesNext: the header AppendNext writes carries the
// sender's SSRC and payload type, the next sequence number and ts in media
// clock units, and the report counters count the payload the caller
// appends.
func TestAppendNextMatchesNext(t *testing.T) {
	s := NewSender(0xAB, PTMPEG, 65533)
	payloads := [][]byte{[]byte("i-frame"), []byte("p"), nil, []byte("bigger payload here")}
	octets := 0
	for i, pl := range payloads {
		ts := time.Duration(i) * 40 * time.Millisecond
		marker := i%2 == 0
		got := next(t, s, ts, pl, marker)
		want := Packet{Marker: marker, PayloadType: PTMPEG, SequenceNumber: uint16(65533 + i), Timestamp: ToTimestamp(ts), SSRC: 0xAB, Payload: pl}
		if got.Marker != want.Marker || got.PayloadType != want.PayloadType || got.SequenceNumber != want.SequenceNumber ||
			got.Timestamp != want.Timestamp || got.SSRC != want.SSRC || !bytes.Equal(got.Payload, pl) {
			t.Fatalf("packet %d = %+v, want %+v", i, *got, want)
		}
		octets += len(pl)
	}
	if r := s.Report(time.Time{}, 0); r.PacketCount != 4 || int(r.OctetCount) != octets {
		t.Fatalf("counters = %d/%d, want 4/%d", r.PacketCount, r.OctetCount, octets)
	}
}

// TestUnmarshalZeroCopy pins the receive-path contract: the decoded Payload
// is a view into the input buffer (no per-packet copy), so callers that keep
// it must copy — and callers that don't get it for free.
func TestUnmarshalZeroCopy(t *testing.T) {
	p := &Packet{PayloadType: PTPCM, Payload: []byte("audio")}
	buf := encode(p)
	q, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Payload) == 0 || &q.Payload[0] != &buf[HeaderSize] {
		t.Fatal("Unmarshal copied the payload; it must return a view into the input")
	}
	buf[HeaderSize] = 'X'
	if q.Payload[0] != 'X' {
		t.Fatal("payload view detached from the input buffer")
	}
}

func TestPayloadTypeNames(t *testing.T) {
	for _, pt := range []PayloadType{PTPCM, PTADPCM, PTVADPCM, PTJPEG, PTMPEG, PTAVI, PTScenario, PTGIF, PTText} {
		if s := pt.String(); s == "" || s[0] == 'P' && s[1] == 'T' && pt != PTPCM {
			// only unknown types render as PTn
			if s == "" {
				t.Errorf("PT %d has empty name", pt)
			}
		}
	}
	if PayloadType(77).String() != "PT77" {
		t.Fatal("unknown PT name wrong")
	}
}

func TestSenderSequencing(t *testing.T) {
	s := NewSender(42, PTMPEG, 65534)
	p1 := next(t, s, 0, []byte("a"), false)
	p2 := next(t, s, time.Second, []byte("b"), false)
	p3 := next(t, s, 2*time.Second, []byte("c"), true)
	if p1.SequenceNumber != 65534 || p2.SequenceNumber != 65535 || p3.SequenceNumber != 0 {
		t.Fatalf("seqs = %d,%d,%d", p1.SequenceNumber, p2.SequenceNumber, p3.SequenceNumber)
	}
	if s.PacketCount() != 3 {
		t.Fatalf("count = %d", s.PacketCount())
	}
	if p2.Timestamp != ClockRate {
		t.Fatalf("ts = %d, want %d", p2.Timestamp, ClockRate)
	}
	sr := s.Report(time.Unix(1000, 0), 2*time.Second)
	if sr.PacketCount != 3 || sr.OctetCount != 3 {
		t.Fatalf("SR = %+v", sr)
	}
}

func TestTimestampConversion(t *testing.T) {
	for _, d := range []time.Duration{0, time.Millisecond, time.Second, 90 * time.Second} {
		ts := ToTimestamp(d)
		back := FromTimestamp(ts)
		if diff := back - d; diff < -time.Millisecond || diff > time.Millisecond {
			t.Errorf("conversion %v → %d → %v", d, ts, back)
		}
	}
}

func TestReceiverLossAccounting(t *testing.T) {
	r := NewReceiver(7)
	at := time.Unix(100, 0)
	// Deliver seqs 0,1,2,4,5 (3 lost).
	for _, seq := range []uint16{0, 1, 2, 4, 5} {
		p := &Packet{SequenceNumber: seq, Timestamp: uint32(seq) * 3000, SSRC: 7}
		r.Observe(p, at, time.Time{})
		at = at.Add(33 * time.Millisecond)
	}
	if r.Expected() != 6 || r.received != 5 {
		t.Fatalf("expected/received = %d/%d", r.Expected(), r.received)
	}
	if r.CumulativeLost() != 1 {
		t.Fatalf("lost = %d", r.CumulativeLost())
	}
	rep := r.Report()
	if rep.CumulativeLost != 1 || rep.ExtendedHighSeq != 5 {
		t.Fatalf("report = %+v", rep)
	}
	// fraction = 1/6 * 256 ≈ 42
	if rep.FractionLost < 40 || rep.FractionLost > 44 {
		t.Fatalf("fraction = %d", rep.FractionLost)
	}
	// Second interval with no loss → fraction 0.
	for _, seq := range []uint16{6, 7, 8} {
		r.Observe(&Packet{SequenceNumber: seq, Timestamp: uint32(seq) * 3000}, at, time.Time{})
		at = at.Add(33 * time.Millisecond)
	}
	rep2 := r.Report()
	if rep2.FractionLost != 0 {
		t.Fatalf("interval fraction = %d", rep2.FractionLost)
	}
}

func TestReceiverSequenceWraparound(t *testing.T) {
	r := NewReceiver(7)
	at := time.Unix(100, 0)
	for _, seq := range []uint16{65533, 65534, 65535, 0, 1} {
		r.Observe(&Packet{SequenceNumber: seq}, at, time.Time{})
		at = at.Add(time.Millisecond)
	}
	if r.ExtendedHighSeq() != (1<<16)+1 {
		t.Fatalf("ext high seq = %d", r.ExtendedHighSeq())
	}
	if r.Expected() != 5 {
		t.Fatalf("expected = %d", r.Expected())
	}
	if r.CumulativeLost() != 0 {
		t.Fatalf("lost = %d", r.CumulativeLost())
	}
}

func TestReceiverJitterZeroForPerfectSpacing(t *testing.T) {
	r := NewReceiver(1)
	at := time.Unix(100, 0)
	for i := 0; i < 100; i++ {
		// Arrival spacing exactly matches timestamp spacing → D = 0.
		p := &Packet{SequenceNumber: uint16(i), Timestamp: ToTimestamp(time.Duration(i) * 40 * time.Millisecond)}
		r.Observe(p, at.Add(time.Duration(i)*40*time.Millisecond), time.Time{})
	}
	if r.Jitter() != 0 {
		t.Fatalf("jitter = %d for perfect spacing", r.Jitter())
	}
}

func TestReceiverJitterGrowsWithVariance(t *testing.T) {
	r := NewReceiver(1)
	at := time.Unix(100, 0)
	for i := 0; i < 200; i++ {
		jit := time.Duration(i%2) * 20 * time.Millisecond // alternate ±20ms
		p := &Packet{SequenceNumber: uint16(i), Timestamp: ToTimestamp(time.Duration(i) * 40 * time.Millisecond)}
		r.Observe(p, at.Add(time.Duration(i)*40*time.Millisecond+jit), time.Time{})
	}
	j := r.JitterDuration()
	if j < 5*time.Millisecond || j > 40*time.Millisecond {
		t.Fatalf("jitter = %v, want ≈20ms scale", j)
	}
}

func TestReceiverDelayTracking(t *testing.T) {
	r := NewReceiver(1)
	sent := time.Unix(100, 0)
	r.Observe(&Packet{SequenceNumber: 0}, sent.Add(80*time.Millisecond), sent)
	if r.LastDelay() != 80*time.Millisecond {
		t.Fatalf("delay = %v", r.LastDelay())
	}
}

func TestSenderReportRoundTrip(t *testing.T) {
	sr := &SenderReport{
		SSRC: 0x11223344, NTPTime: 0xAABBCCDDEEFF0011, RTPTime: 90000,
		PacketCount: 1000, OctetCount: 500000,
		Reports: []ReceptionReport{{
			SSRC: 5, FractionLost: 64, CumulativeLost: 123,
			ExtendedHighSeq: 70000, Jitter: 450, LastSR: 99, DelaySinceLastSR: 88,
		}},
	}
	var got SenderReport
	if err := got.Unmarshal(sr.Marshal()); err != nil {
		t.Fatal(err)
	}
	if got.SSRC != sr.SSRC || got.NTPTime != sr.NTPTime ||
		got.PacketCount != sr.PacketCount || got.OctetCount != sr.OctetCount {
		t.Fatalf("SR = %+v", got)
	}
	if len(got.Reports) != 1 || got.Reports[0] != sr.Reports[0] {
		t.Fatalf("blocks = %+v", got.Reports)
	}
}

func TestReceiverReportRoundTrip(t *testing.T) {
	rr := &ReceiverReport{
		SSRC: 9,
		Reports: []ReceptionReport{
			{SSRC: 1, FractionLost: 10, CumulativeLost: 5, ExtendedHighSeq: 100, Jitter: 7},
			{SSRC: 2, FractionLost: 0, CumulativeLost: 0, ExtendedHighSeq: 50, Jitter: 1},
		},
	}
	var got ReceiverReport
	if err := got.Unmarshal(rr.AppendTo(nil)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, rr) {
		t.Fatalf("RR = %+v, want %+v", got, rr)
	}
}

// TestReportsBeyond31Blocks: a report naming more sources than the 5-bit
// count can hold marshals as a compound whose SR or RRs carry at most 31
// blocks each, and decoding every packet of it gives back all 40 blocks in
// order, with the reporter's SSRC on each packet.
func TestReportsBeyond31Blocks(t *testing.T) {
	blocks := make([]ReceptionReport, 40)
	for i := range blocks {
		blocks[i] = ReceptionReport{SSRC: uint32(100 + i), FractionLost: uint8(i), ExtendedHighSeq: uint32(i) << 16}
	}
	sr := &SenderReport{SSRC: 7, NTPTime: 1 << 40, PacketCount: 3, Reports: blocks}
	rr := &ReceiverReport{SSRC: 9, Reports: blocks}
	for _, tc := range []struct {
		name  string
		buf   []byte
		ssrc  uint32
		types []uint8
	}{
		{"SR", sr.Marshal(), 7, []uint8{TypeSR, TypeRR}},
		{"RR", rr.AppendTo(nil), 9, []uint8{TypeRR, TypeRR}},
	} {
		parts, err := SplitCompound(nil, tc.buf)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var got []ReceptionReport
		for i, part := range parts {
			if part[1] != tc.types[min(i, len(tc.types)-1)] {
				t.Fatalf("%s: packet %d has type %d", tc.name, i, part[1])
			}
			if part[1] == TypeSR {
				var gotSR SenderReport
				if err := gotSR.Unmarshal(part); err != nil {
					t.Fatalf("%s: packet %d: %v", tc.name, i, err)
				}
				if gotSR.SSRC != tc.ssrc || gotSR.NTPTime != sr.NTPTime || gotSR.PacketCount != sr.PacketCount {
					t.Fatalf("%s: SR = %+v", tc.name, gotSR)
				}
				got = append(got, gotSR.Reports...)
				continue
			}
			var gotRR ReceiverReport
			if err := gotRR.Unmarshal(part); err != nil {
				t.Fatalf("%s: packet %d: %v", tc.name, i, err)
			}
			if gotRR.SSRC != tc.ssrc {
				t.Fatalf("%s: packet %d from SSRC %d, want %d", tc.name, i, gotRR.SSRC, tc.ssrc)
			}
			got = append(got, gotRR.Reports...)
		}
		if len(parts) != 2 || !reflect.DeepEqual(got, blocks) {
			t.Fatalf("%s: %d packets carry %d blocks, want 2 carrying the 40 sent", tc.name, len(parts), len(got))
		}
	}
}

// TestReportCodecAllocFree: encoding into a buffer with room, and decoding
// into a report whose blocks have room, allocate nothing.
func TestReportCodecAllocFree(t *testing.T) {
	rr := ReceiverReport{SSRC: 9, Reports: make([]ReceptionReport, 4)}
	sr := SenderReport{SSRC: 7, NTPTime: 1 << 40}
	buf := make([]byte, 0, 256)
	var gotRR ReceiverReport
	gotRR.Reports = make([]ReceptionReport, 0, 4)
	var gotSR SenderReport
	allocs := testing.AllocsPerRun(100, func() {
		buf = rr.AppendTo(buf[:0])
		if gotRR.Unmarshal(buf) != nil {
			t.Fatal("RR does not decode")
		}
		buf = sr.AppendTo(buf[:0])
		if gotSR.Unmarshal(buf) != nil {
			t.Fatal("SR does not decode")
		}
	})
	if allocs != 0 {
		t.Fatalf("report encode and decode allocate %.1f objects, want 0", allocs)
	}
	if !reflect.DeepEqual(gotRR, rr) || !reflect.DeepEqual(gotSR, sr) {
		t.Fatalf("decoded %+v and %+v, want %+v and %+v", gotRR, gotSR, rr, sr)
	}
	if gotRR.Unmarshal(buf) == nil || gotSR.Unmarshal(buf[:27]) == nil {
		t.Fatal("an SR decoded as an RR, or a truncated SR decoded")
	}
}

func TestNegativeCumulativeLostSignExtension(t *testing.T) {
	rr := &ReceiverReport{SSRC: 1, Reports: []ReceptionReport{{SSRC: 2, CumulativeLost: -3}}}
	var got ReceiverReport
	if err := got.Unmarshal(rr.AppendTo(nil)); err != nil {
		t.Fatal(err)
	}
	if got.Reports[0].CumulativeLost != -3 {
		t.Fatalf("cum lost = %d, want -3", got.Reports[0].CumulativeLost)
	}
}

func TestCompoundSplit(t *testing.T) {
	sr := (&SenderReport{SSRC: 1}).Marshal()
	rr := (&ReceiverReport{SSRC: 2}).AppendTo(nil)
	bye := []byte{0x81, 203, 0, 1, 0, 0, 0, 3} // a BYE from SSRC 3, no reason
	var comp []byte
	comp = append(comp, sr...)
	comp = append(comp, rr...)
	comp = append(comp, bye...)
	parts, err := SplitCompound(nil, comp)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 3 {
		t.Fatalf("parts = %d", len(parts))
	}
	types := []int{TypeSR, TypeRR, 203}
	for i, p := range parts {
		if int(p[1]) != types[i] {
			t.Fatalf("part %d type %d", i, p[1])
		}
	}
	if _, err := SplitCompound(nil, comp[:len(comp)-2]); err == nil {
		t.Fatal("accepted truncated compound")
	}
}

func TestUnmarshalControlErrors(t *testing.T) {
	var rr ReceiverReport
	var sr SenderReport
	if rr.Unmarshal([]byte{0x80, TypeRR}) == nil || sr.Unmarshal([]byte{0x80, TypeSR}) == nil {
		t.Fatal("accepted short RTCP")
	}
	bad := (&ReceiverReport{SSRC: 1}).AppendTo(nil)
	bad[1] = 250 // unknown type
	if rr.Unmarshal(bad) == nil || sr.Unmarshal(bad) == nil {
		t.Fatal("accepted unknown RTCP type")
	}
	bad2 := (&ReceiverReport{SSRC: 1}).AppendTo(nil)
	bad2[0] = 1 << 6
	if rr.Unmarshal(bad2) == nil {
		t.Fatal("accepted wrong RTCP version")
	}
}

func TestNTPTimeMonotone(t *testing.T) {
	a := NTPTime(time.Unix(1000, 0))
	b := NTPTime(time.Unix(1000, 500_000_000))
	c := NTPTime(time.Unix(1001, 0))
	if !(a < b && b < c) {
		t.Fatalf("NTP times not monotone: %d %d %d", a, b, c)
	}
	if c-a != 1<<32 {
		t.Fatalf("1s != 2^32 NTP units: %d", c-a)
	}
}

func TestLossFraction(t *testing.T) {
	r := ReceptionReport{FractionLost: 128}
	if r.LossFraction() != 0.5 {
		t.Fatalf("LossFraction = %v", r.LossFraction())
	}
}

// TestSenderForkSeamlessContinuation pins the detach contract the shared-flow
// layer relies on: a fork carries the same SSRC and payload type, continues
// the sequence space and report counters exactly where the original stands,
// and then advances independently.
func TestSenderForkSeamlessContinuation(t *testing.T) {
	s := NewSender(0xABCD, PTMPEG, 100)
	for i := 0; i < 5; i++ {
		next(t, s, time.Duration(i)*40*time.Millisecond, []byte("frame"), true)
	}
	f := s.Fork()
	if f.SSRC != s.SSRC || f.PayloadType != s.PayloadType {
		t.Fatalf("fork identity differs: %x/%d vs %x/%d", f.SSRC, f.PayloadType, s.SSRC, s.PayloadType)
	}
	if f.Seq() != s.Seq() {
		t.Fatalf("fork seq %d, original %d — receiver would see a gap", f.Seq(), s.Seq())
	}
	if f.PacketCount() != s.PacketCount() {
		t.Fatalf("fork packet count %d, original %d", f.PacketCount(), s.PacketCount())
	}
	// The receiver that follows the fork sees a contiguous stream…
	p := next(t, f, 200*time.Millisecond, []byte("frame"), true)
	if p.SequenceNumber != 105 {
		t.Fatalf("fork's first packet seq = %d, want 105", p.SequenceNumber)
	}
	// …and the original is untouched by the fork's progress.
	if s.Seq() != 105 {
		t.Fatalf("original seq moved to %d by the fork", s.Seq())
	}
	if q := next(t, s, 200*time.Millisecond, []byte("frame"), true); q.SequenceNumber != 105 {
		t.Fatalf("original's next seq = %d, want its own 105", q.SequenceNumber)
	}
}

func BenchmarkRTCPReceiverReport(b *testing.B) {
	r := NewReceiver(7)
	at := time.Unix(100, 0)
	for i := 0; i < 1000; i++ {
		r.Observe(&Packet{SequenceNumber: uint16(i), Timestamp: uint32(i) * 3600}, at, time.Time{})
		at = at.Add(40 * time.Millisecond)
	}
	b.ReportAllocs()
	var buf []byte
	var got ReceiverReport
	for i := 0; i < b.N; i++ {
		rr := ReceiverReport{SSRC: 1, Reports: []ReceptionReport{r.Report()}}
		buf = rr.AppendTo(buf[:0])
		if err := got.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}
