package rtp

import (
	"encoding/binary"
	"fmt"
)

// The client drops the server's sender reports unread, so only the codec's
// own tests decode an SR.

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
