package client

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/media"
	"repro/internal/netsim"
	"repro/internal/playout"
	"repro/internal/server"
)

// lossyLink drops and duplicates fragments, so reassembly sees incomplete
// frames, repeats and out-of-order arrivals.
var lossyLink = netsim.LinkConfig{
	Bandwidth: 50_000_000,
	Delay:     3 * time.Millisecond,
	Jitter:    4 * time.Millisecond,
	Loss:      0.02, // incomplete frames must simply never complete
	Dup:       0.2,  // dup deliveries must neither corrupt nor double-count
}

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
	w := newWorld(t, lossyLink, copts, server.Options{}, "srv")
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

// TestObserverParity plays one lossy, duplicating session twice, once with
// an OnFrame observer and once without, and requires the same display
// trace, playout report and delivery digest: gathering frame bodies for an
// observer changes nothing a viewer sees. The trace is compared as its
// decoded events, which the display's byte log encodes deterministically.
func TestObserverParity(t *testing.T) {
	const doc = shortAV + `
<IMG SOURCE=img/p ID=p STARTIME=1 DURATION=3 WIDTH=320 HEIGHT=240> </IMG>`
	type outcome struct {
		events []playout.Event
		report playout.Report
		digest uint64
	}
	play := func(onFrame func(string, media.FrameHeader, []byte)) outcome {
		w := newWorld(t, lossyLink, Options{OnFrame: onFrame}, server.Options{}, "srv")
		w.subscribe(t, "alice", "pw")
		putDoc(t, w.servers["srv"], "clip", doc)
		w.c.Connect("srv")
		w.run(time.Second)
		w.c.RequestDoc("clip")
		w.run(2 * time.Second)
		w.net.DropNext("srv", "laptop", 25)
		w.run(8 * time.Second)
		return outcome{w.c.Display().Events(), w.c.Player().Report(), w.net.DeliveryDigest()}
	}
	observed := 0
	with := play(func(string, media.FrameHeader, []byte) { observed++ })
	without := play(nil)
	if observed < 200 || len(with.events) < 200 {
		t.Fatalf("%d frames observed, %d display events; the session should play most of the clip",
			observed, len(with.events))
	}
	if !reflect.DeepEqual(with.events, without.events) {
		t.Fatalf("display traces differ: %d events with an observer, %d without",
			len(with.events), len(without.events))
	}
	if !reflect.DeepEqual(with.report, without.report) {
		t.Fatalf("reports differ:\nwith observer    %+v\nwithout observer %+v", with.report, without.report)
	}
	if with.digest != without.digest {
		t.Fatalf("delivery digests differ: %x with an observer, %x without", with.digest, without.digest)
	}
}
