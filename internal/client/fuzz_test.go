package client

import (
	"encoding/binary"
	"testing"

	"repro/internal/buffer"
	"repro/internal/clock"
	"repro/internal/media"
	"repro/internal/netsim"
	"repro/internal/protocol"
	"repro/internal/rtp"
)

// mediaOp is one FuzzClientMedia packet, mediaOpLen bytes of the input:
//
//	[0]     bit 0 the port (stream n's or cv's), bits 1–2 the SSRC (n's,
//	        cv's, the complement of their XOR, which for most inputs no
//	        stream carries, or cv's with the low bit flipped),
//	        bit 3 send twice, bit 4 raw geometry, bit 5 one byte short,
//	        bit 6 a sender report instead, bit 7 the next document
//	        instead (the same clip, announcing n's and cv's SSRCs swapped
//	        when bit 0 is set, unchanged otherwise)
//	[1:5]   frame index
//	[5:9]   frame size, below 64 MTUs
//	[9:11]  fragment: taken modulo the fragment count unless raw
//	[11:13] fragment count, used only when raw
const mediaOpLen = 13

// encodeMediaOp is the inverse of the layout above, for seeds.
func encodeMediaOp(flags byte, index, size uint32, frag, count uint16) []byte {
	op := make([]byte, mediaOpLen)
	op[0] = flags
	binary.BigEndian.PutUint32(op[1:], index)
	binary.BigEndian.PutUint32(op[5:], size)
	binary.BigEndian.PutUint16(op[9:], frag)
	binary.BigEndian.PutUint16(op[11:], count)
	return op
}

const (
	opCV     = 1      // cv's port
	opSSRCcv = 1 << 1 // cv's SSRC
	opAlien  = 2 << 1 // an SSRC no stream carries
	opDup    = 1 << 3
	opRaw    = 1 << 4
	opShort  = 1 << 5
	opSR     = 1 << 6
	opNext   = 1 << 7
)

// FuzzClientMedia feeds arbitrary fragments to a browser holding an
// announced two-stream document, through each port's bound record, and
// replaces the document between them. The first 8 input bytes are the two
// announced SSRCs (they may be equal), the rest mediaOps. It requires that
// nothing panics; that each SSRC has one receive record; that right after a
// frame completes no live assembly of its stream is more than 50 frames
// behind it; that a completed frame reaches only the current document's
// buffer, and no buffer twice; and that after each teardown no stream holds
// an assembly and every observer's pooled scratch is back in its pool.
func FuzzClientMedia(f *testing.F) {
	ssrcs := []byte{0, 0, 0, 1, 0, 0, 0, 2}
	// TestClientSurvivesBadFragmentGeometry: fragment 65534 of 65535 in a
	// 10-byte frame, then a good frame on the same stream.
	f.Add(append(append(ssrcs[:8:8],
		encodeMediaOp(opCV|opSSRCcv|opRaw, 1<<30, 10, 65534, 65535)...),
		encodeMediaOp(opCV|opSSRCcv, 1, 10, 0, 0)...))
	// TestClientToleratesDuplicatedPackets: duplicated single-fragment audio
	// frames and a duplicated fragment of a two-fragment video frame, on
	// each other's ports too.
	dup := ssrcs[:8:8]
	for i := uint32(0); i < 6; i++ {
		dup = append(dup, encodeMediaOp(opDup, i, 200, 0, 0)...)
		dup = append(dup, encodeMediaOp(opCV|opSSRCcv|opDup, i, media.MTU+10, uint16(i), 0)...)
		dup = append(dup, encodeMediaOp(opSSRCcv, i, media.MTU+10, uint16(i+1), 0)...)
	}
	f.Add(dup)
	// Stale assemblies: frames 199 and 200 wait while frame 250 completes,
	// then their last fragments and a sender report arrive; an alien SSRC,
	// a short fragment and equal SSRCs are mixed in.
	stale := ssrcs[:8:8]
	for _, op := range [][]byte{
		encodeMediaOp(opCV|opSSRCcv, 199, media.MTU+10, 0, 0),
		encodeMediaOp(opCV|opSSRCcv, 200, media.MTU+10, 0, 0),
		encodeMediaOp(opSSRCcv, 250, 10, 0, 0),
		encodeMediaOp(opCV|opSSRCcv, 199, media.MTU+10, 1, 0),
		encodeMediaOp(opCV|opSSRCcv|opShort, 200, media.MTU+10, 1, 0),
		encodeMediaOp(opCV|opSSRCcv, 200, media.MTU+10, 1, 0),
		encodeMediaOp(opAlien, 7, 10, 0, 0),
		encodeMediaOp(opSR, 0, 0, 0, 0),
	} {
		stale = append(stale, op...)
	}
	f.Add(stale)
	f.Add(append([]byte{0, 0, 0, 9, 0, 0, 0, 9}, stale[8:]...))

	// Next documents: cv's two-fragment frame 5 waits when the document
	// changes, and the next one announces the SSRCs swapped; frame 5 then
	// arrives whole on cv's new SSRC through n's port, and a third document
	// re-announces the same SSRCs while frame 6 waits.
	next := ssrcs[:8:8]
	for _, op := range [][]byte{
		encodeMediaOp(opCV|opSSRCcv, 5, media.MTU+10, 0, 0),
		encodeMediaOp(opNext|opCV, 0, 0, 0, 0),
		encodeMediaOp(opSSRCcv, 5, media.MTU+10, 1, 0),
		encodeMediaOp(opSSRCcv, 5, media.MTU+10, 0, 0),
		encodeMediaOp(opCV|opSSRCcv, 6, media.MTU+10, 0, 0),
		encodeMediaOp(opNext, 0, 0, 0, 0),
		encodeMediaOp(opCV, 7, 10, 0, 0),
	} {
		next = append(next, op...)
	}
	f.Add(next)

	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 8 {
			return
		}
		// ann holds the SSRCs the document on screen announces for n and cv.
		ann := [2]uint32{binary.BigEndian.Uint32(in), binary.BigEndian.Uint32(in[4:])}
		clk := clock.NewSim()
		net := netsim.New(clk, 1)
		var (
			c         *Client
			cur       uint32 // the SSRC of the packet being handled
			completed = map[string]map[uint32]bool{}
			retired   = map[*buffer.Buffer]int{} // earlier documents' buffers and their pushes
			seen      = map[*assembly]bool{}
		)
		onFrame := func(id string, hdr media.FrameHeader, _ []byte) {
			rec := c.pres.stream(nil, cur)
			for _, a := range rec.asm {
				if a.hdr.Index == hdr.Index {
					t.Fatalf("completed frame %d still assembling", hdr.Index)
				}
				if a.hdr.Index+50 < hdr.Index {
					t.Fatalf("frame %d completed with frame %d still assembling", hdr.Index, a.hdr.Index)
				}
			}
			if rec.buf != c.pres.bufs.Get(id) {
				t.Fatalf("frame %d of %s completed into another document's buffer", hdr.Index, id)
			}
			if completed[id] == nil {
				completed[id] = map[uint32]bool{}
			}
			completed[id][hdr.Index] = true
		}
		c, err := New("laptop", clk, net, Options{OnFrame: onFrame})
		if err != nil {
			t.Fatal(err)
		}
		show := func() {
			c.onDocResponse("server", protocol.DocResponse{OK: true, Name: "clip", ScenarioSrc: shortAV,
				Streams: []protocol.StreamAnnounce{
					{StreamID: "n", SSRC: ann[0], Port: 7000, FrameIntervalUS: 20_000},
					{StreamID: "cv", SSRC: ann[1], Port: 7001, FrameIntervalUS: 40_000},
				}})
		}
		// retire checks that the document on screen pushed each distinct
		// completed frame once, and notes its buffers' counts, which must
		// not move once it is replaced.
		retire := func() {
			for _, id := range []string{"n", "cv"} {
				b := c.pres.bufs.Get(id)
				if got, want := b.Stats().Pushed, len(completed[id]); got != want {
					t.Fatalf("stream %s: %d frames pushed, %d distinct frames completed", id, got, want)
				}
				retired[b] = b.Stats().Pushed
			}
			clear(completed)
		}
		// released checks what every teardown leaves: no assembly on any
		// stream and every observer's scratch back in its pool.
		released := func() {
			for _, rec := range c.pres.rx {
				if len(rec.asm) != 0 {
					t.Fatalf("stream %s (SSRC %d) holds %d assemblies after teardown", rec.id, rec.ssrc, len(rec.asm))
				}
			}
			for a := range seen {
				if a.pb != nil {
					t.Fatalf("frame %d's scratch was not returned", a.hdr.Index)
				}
			}
		}
		show()
		for ops := in[8:]; len(ops) >= mediaOpLen; ops = ops[mediaOpLen:] {
			op := ops[:mediaOpLen]
			flags := op[0]
			if flags&opNext != 0 {
				retire()
				if flags&opCV != 0 {
					ann[0], ann[1] = ann[1], ann[0]
				}
				show()
				released()
			} else {
				port, portSSRC := 7000, ann[0]
				if flags&opCV != 0 {
					port, portSSRC = 7001, ann[1]
				}
				cur = [4]uint32{ann[0], ann[1], ^ann[0] ^ ann[1], ann[1] ^ 1}[flags>>1&3]
				index := binary.BigEndian.Uint32(op[1:])
				size := binary.BigEndian.Uint32(op[5:]) % (64 * media.MTU)
				frag, count := binary.BigEndian.Uint16(op[9:]), binary.BigEndian.Uint16(op[11:])
				if flags&opRaw == 0 {
					count = uint16(media.FragmentCount(int(size)))
					frag %= count
				}
				var payload []byte
				if flags&opSR != 0 {
					sr := rtp.SenderReport{SSRC: cur, RTPTime: index}
					payload = sr.AppendTo(nil)
				} else {
					_, n := media.FragmentSpan(int(size), int(frag))
					if flags&opShort != 0 && n > 0 {
						n--
					}
					hdr := media.FrameHeader{Index: index, FrameSize: size, FragCount: count, Frag: frag}
					payload = rtp.AppendHeader(nil, false, rtp.PTMPEG, uint16(index), index, cur)
					payload = append(hdr.AppendTo(payload), make([]byte, n)...)
				}
				c.mu.Lock()
				bound := c.pres.stream(nil, portSSRC) // the record port's listener is bound to
				c.mu.Unlock()
				for range 1 + int(flags>>3&1) {
					c.handleMedia(bound, netsim.Packet{From: "server:5004", To: netsim.MakeAddr("laptop", port), Payload: payload})
				}
			}
			ssrcs := map[uint32]bool{}
			for _, rec := range c.pres.rx {
				if ssrcs[rec.ssrc] {
					t.Fatalf("SSRC %d has two receive records", rec.ssrc)
				}
				ssrcs[rec.ssrc] = true
				for _, a := range rec.asm {
					seen[a] = true
				}
			}
			for b, pushed := range retired {
				if b.Stats().Pushed != pushed {
					t.Fatalf("a closed document's buffer took %d frames", b.Stats().Pushed-pushed)
				}
			}
		}
		retire()
		c.mu.Lock()
		c.pres.close(c.net)
		c.mu.Unlock()
		released()
	})
}
