package rtp

import (
	"encoding/binary"
	"fmt"
	"slices"
	"time"
)

// RTCP packet types (RFC 1889 §6).
const (
	TypeSR = 200 // sender report
	TypeRR = 201 // receiver report
)

// ReceptionReport is one reception report block of an SR/RR: the per-source
// statistics the paper's Client QoS Manager feeds back to the server
// ("packet's transmission delay, delay jitter and packet loss").
type ReceptionReport struct {
	// SSRC identifies the source this block reports on.
	SSRC uint32
	// FractionLost is the fraction of packets lost since the previous
	// report, in 1/256 units.
	FractionLost uint8
	// CumulativeLost is the total packets lost for the whole session
	// (24-bit signed in the wire format).
	CumulativeLost int32
	// ExtendedHighSeq is the highest sequence number received, extended
	// with the wrap count in the top 16 bits.
	ExtendedHighSeq uint32
	// Jitter is the interarrival jitter estimate in timestamp units.
	Jitter uint32
	// LastSR and DelaySinceLastSR support RTT estimation (middle 32 bits
	// of the SR NTP timestamp, and the delay in 1/65536 s units).
	LastSR           uint32
	DelaySinceLastSR uint32
}

// LossFraction converts FractionLost to a float in [0,1].
func (r *ReceptionReport) LossFraction() float64 { return float64(r.FractionLost) / 256 }

// SenderReport is an RTCP SR.
type SenderReport struct {
	SSRC        uint32
	NTPTime     uint64 // 64-bit NTP timestamp
	RTPTime     uint32
	PacketCount uint32
	OctetCount  uint32
	Reports     []ReceptionReport
}

// ReceiverReport is an RTCP RR.
type ReceiverReport struct {
	SSRC    uint32 // the reporting receiver
	Reports []ReceptionReport
}

const rrBlockSize = 24

func marshalHeader(buf []byte, count int, ptype uint8, words int) {
	buf[0] = Version<<6 | uint8(count&0x1f)
	buf[1] = ptype
	binary.BigEndian.PutUint16(buf[2:], uint16(words))
}

func marshalReport(buf []byte, r *ReceptionReport) {
	binary.BigEndian.PutUint32(buf[0:], r.SSRC)
	cum := uint32(r.CumulativeLost) & 0x00ffffff
	binary.BigEndian.PutUint32(buf[4:], uint32(r.FractionLost)<<24|cum)
	binary.BigEndian.PutUint32(buf[8:], r.ExtendedHighSeq)
	binary.BigEndian.PutUint32(buf[12:], r.Jitter)
	binary.BigEndian.PutUint32(buf[16:], r.LastSR)
	binary.BigEndian.PutUint32(buf[20:], r.DelaySinceLastSR)
}

func unmarshalReport(buf []byte) ReceptionReport {
	word := binary.BigEndian.Uint32(buf[4:])
	cum := int32(word & 0x00ffffff)
	if cum&0x00800000 != 0 { // sign-extend 24-bit
		cum |= ^int32(0x00ffffff)
	}
	return ReceptionReport{
		SSRC:             binary.BigEndian.Uint32(buf[0:]),
		FractionLost:     uint8(word >> 24),
		CumulativeLost:   cum,
		ExtendedHighSeq:  binary.BigEndian.Uint32(buf[8:]),
		Jitter:           binary.BigEndian.Uint32(buf[12:]),
		LastSR:           binary.BigEndian.Uint32(buf[16:]),
		DelaySinceLastSR: binary.BigEndian.Uint32(buf[20:]),
	}
}

// maxBlocks is the most reception-report blocks one SR or RR carries: the
// header's count field is five bits wide.
const maxBlocks = 31

// AppendTo appends the encoded sender report to dst. More than 31 blocks
// do not fit one SR: it carries the first 31, and RRs from the same SSRC
// follow it with the rest (RFC 3550 §6.4.2).
func (sr *SenderReport) AppendTo(dst []byte) []byte {
	n := min(len(sr.Reports), maxBlocks)
	off := len(dst)
	dst = grow(dst, 28+n*rrBlockSize)
	buf := dst[off:]
	marshalHeader(buf, n, TypeSR, len(buf)/4-1)
	binary.BigEndian.PutUint32(buf[4:], sr.SSRC)
	binary.BigEndian.PutUint64(buf[8:], sr.NTPTime)
	binary.BigEndian.PutUint32(buf[16:], sr.RTPTime)
	binary.BigEndian.PutUint32(buf[20:], sr.PacketCount)
	binary.BigEndian.PutUint32(buf[24:], sr.OctetCount)
	for i := range sr.Reports[:n] {
		marshalReport(buf[28+i*rrBlockSize:], &sr.Reports[i])
	}
	if n == len(sr.Reports) {
		return dst
	}
	return appendRRs(dst, sr.SSRC, sr.Reports[n:])
}

// Marshal encodes the sender report.
func (sr *SenderReport) Marshal() []byte { return sr.AppendTo(nil) }

// AppendTo appends the encoded receiver report to dst: one RR per 31
// blocks, and one RR when there are none (RFC 3550 §6.4.2).
func (rr *ReceiverReport) AppendTo(dst []byte) []byte {
	return appendRRs(dst, rr.SSRC, rr.Reports)
}

// appendRRs appends RRs from ssrc carrying blocks, at most 31 in each, and
// one RR when blocks is empty.
func appendRRs(dst []byte, ssrc uint32, blocks []ReceptionReport) []byte {
	for {
		n := min(len(blocks), maxBlocks)
		off := len(dst)
		dst = grow(dst, 8+n*rrBlockSize)
		buf := dst[off:]
		marshalHeader(buf, n, TypeRR, len(buf)/4-1)
		binary.BigEndian.PutUint32(buf[4:], ssrc)
		for i := range blocks[:n] {
			marshalReport(buf[8+i*rrBlockSize:], &blocks[i])
		}
		if blocks = blocks[n:]; len(blocks) == 0 {
			return dst
		}
	}
}

// grow extends dst by n bytes.
func grow(dst []byte, n int) []byte {
	return slices.Grow(dst, n)[:len(dst)+n]
}

// parseHeader checks the RTCP header common to every packet type and
// returns its count field and packet type.
func parseHeader(buf []byte) (count int, ptype uint8, err error) {
	if len(buf) < 8 {
		return 0, 0, fmt.Errorf("%w: rtcp %d bytes", ErrMalformed, len(buf))
	}
	if v := buf[0] >> 6; v != Version {
		return 0, 0, fmt.Errorf("%w: rtcp version %d", ErrMalformed, v)
	}
	words := int(binary.BigEndian.Uint16(buf[2:]))
	if len(buf) < (words+1)*4 {
		return 0, 0, fmt.Errorf("%w: rtcp truncated", ErrMalformed)
	}
	return int(buf[0] & 0x1f), buf[1], nil
}

// Unmarshal decodes one SR packet into sr, reusing the storage of
// sr.Reports.
func (sr *SenderReport) Unmarshal(buf []byte) error {
	count, ptype, err := parseHeader(buf)
	if err != nil {
		return err
	}
	if ptype != TypeSR {
		return fmt.Errorf("%w: rtcp type %d, want SR", ErrMalformed, ptype)
	}
	if len(buf) < 28+count*rrBlockSize {
		return fmt.Errorf("%w: SR truncated", ErrMalformed)
	}
	sr.SSRC = binary.BigEndian.Uint32(buf[4:])
	sr.NTPTime = binary.BigEndian.Uint64(buf[8:])
	sr.RTPTime = binary.BigEndian.Uint32(buf[16:])
	sr.PacketCount = binary.BigEndian.Uint32(buf[20:])
	sr.OctetCount = binary.BigEndian.Uint32(buf[24:])
	unmarshalReports(&sr.Reports, buf[28:], count)
	return nil
}

// Unmarshal decodes one RR packet into rr, reusing the storage of
// rr.Reports.
func (rr *ReceiverReport) Unmarshal(buf []byte) error {
	count, ptype, err := parseHeader(buf)
	if err != nil {
		return err
	}
	if ptype != TypeRR {
		return fmt.Errorf("%w: rtcp type %d, want RR", ErrMalformed, ptype)
	}
	if len(buf) < 8+count*rrBlockSize {
		return fmt.Errorf("%w: RR truncated", ErrMalformed)
	}
	rr.SSRC = binary.BigEndian.Uint32(buf[4:])
	unmarshalReports(&rr.Reports, buf[8:], count)
	return nil
}

// unmarshalReports decodes the count blocks at the front of buf into *dst,
// reusing its storage when it has room. It reslices *dst in place rather
// than appending, so a caller's stack-backed blocks stay on the stack.
func unmarshalReports(dst *[]ReceptionReport, buf []byte, count int) {
	if cap(*dst) >= count {
		*dst = (*dst)[:count]
	} else {
		*dst = make([]ReceptionReport, count)
	}
	for i := range *dst {
		(*dst)[i] = unmarshalReport(buf[i*rrBlockSize:])
	}
}

// SplitCompound appends the packets of a compound RTCP datagram to dst, as
// views into buf; a datagram whose framing breaks anywhere yields none.
func SplitCompound(dst [][]byte, buf []byte) ([][]byte, error) {
	n := len(dst)
	for len(buf) > 0 {
		if len(buf) < 4 {
			return dst[:n], fmt.Errorf("%w: compound remainder %d bytes", ErrMalformed, len(buf))
		}
		words := int(binary.BigEndian.Uint16(buf[2:]))
		size := (words + 1) * 4
		if len(buf) < size {
			return dst[:n], fmt.Errorf("%w: compound truncated", ErrMalformed)
		}
		dst = append(dst, buf[:size])
		buf = buf[size:]
	}
	return dst, nil
}

// NTPTime converts a wall instant to the 64-bit NTP timestamp format used by
// sender reports.
func NTPTime(t time.Time) uint64 {
	const ntpEpochOffset = 2208988800 // seconds between 1900 and 1970
	secs := uint64(t.Unix()) + ntpEpochOffset
	frac := uint64(t.Nanosecond()) * (1 << 32) / 1_000_000_000
	return secs<<32 | frac
}
