package client

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/media"
	"repro/internal/netsim"
	"repro/internal/server"
)

// TestFramePayloadIntegrityUnderPoolReuse is the end-to-end proof of the
// pooled data plane's buffer ownership: a full client/server session runs
// over a lossy, duplicating link (so the simulator's free lists of in-flight
// payloads see drops, recycling and double deliveries) while the server's packet
// pool and the client's reassembly pool churn, and every frame the client
// completes must be byte-identical to the deterministic synthesis of that
// frame. A single shared or stale buffer anywhere on the path shows up as a
// content mismatch. Run under -race by make race / make check, it also
// proves the pooling introduces no data races.
func TestFramePayloadIntegrityUnderPoolReuse(t *testing.T) {
	link := netsim.LinkConfig{
		Bandwidth: 50_000_000,
		Delay:     3 * time.Millisecond,
		Jitter:    4 * time.Millisecond,
		Loss:      0.02, // incomplete frames must simply never complete
		Dup:       0.2,  // dup deliveries must neither corrupt nor double-count
	}
	var (
		frames     int
		fragmented int
		mismatch   string
	)
	copts := Options{
		AutoFollowLinks: false,
		OnFrame: func(id string, hdr media.FrameHeader, payload []byte) {
			frames++
			if hdr.FragCount > 1 {
				fragmented++
			}
			if mismatch != "" {
				return
			}
			if len(payload) != int(hdr.FrameSize) {
				mismatch = fmt.Sprintf("stream %s frame %d: %d bytes reassembled, header says %d",
					id, hdr.Index, len(payload), hdr.FrameSize)
				return
			}
			want := media.Payload(id, int(hdr.Index), int(hdr.FrameSize))
			if !bytes.Equal(payload, want) {
				mismatch = fmt.Sprintf("stream %s frame %d (%d frags, %d bytes): reassembled content differs from synthesis",
					id, hdr.Index, hdr.FragCount, hdr.FrameSize)
			}
		},
	}
	w := newWorld(t, link, copts, server.Options{}, "srv")
	w.subscribe(t, "alice", "pw")
	putDoc(t, w.servers["srv"], "clip", shortAV)

	w.c.Connect("srv")
	w.run(time.Second)
	if lc := w.c.LastConnect(); lc == nil || !lc.OK {
		t.Fatalf("connect result = %+v (err %q)", lc, w.c.LastError())
	}
	w.c.RequestDoc("clip")
	w.run(2 * time.Second)
	// Mid-stream fault drops exercise the simulator's decided-before-copy
	// drop path while media is flowing.
	w.net.DropNext("srv", "laptop", 25)
	w.run(8 * time.Second)

	if mismatch != "" {
		t.Fatal(mismatch)
	}
	// 5s of 20ms audio + 40ms video ≈ 375 frames minus losses.
	if frames < 200 {
		t.Fatalf("only %d frames completed; the link should deliver most of the clip", frames)
	}
	if fragmented == 0 {
		t.Fatal("no multi-fragment frame completed; the test must cover fragment reassembly")
	}
}
