package client

import (
	"testing"
	"time"

	"repro/internal/media"
	"repro/internal/netsim"
	"repro/internal/rtp"
	"repro/internal/server"
)

// lateAV is shortAV with its media starting at 20 s: the server sends no
// media for the first seconds, so every packet the receive-path tests count
// is one they injected.
const lateAV = `<TITLE>late av</TITLE>
<AU_VI SOURCE=au/n SOURCE=vi/c ID=n ID=cv STARTIME=20 DURATION=5> </AU_VI>`

// injectFragment sends fragment frag of a size-byte frame on ssrc to the
// client's media port and lets it arrive; frame index i carries PTS
// i×40 ms.
func injectFragment(w *world, port int, ssrc, index uint32, size int, frag uint16) {
	sendFragment(w, port, ssrc, index, size, frag)
	w.run(50 * time.Millisecond)
}

// sendFragment is injectFragment without the wait for delivery.
func sendFragment(w *world, port int, ssrc, index uint32, size int, frag uint16) {
	hdr := media.FrameHeader{Index: index, FrameSize: uint32(size), FragCount: uint16(media.FragmentCount(size)), Frag: frag}
	_, n := media.FragmentSpan(size, int(frag))
	p := rtp.AppendHeader(nil, false, rtp.PTMPEG, uint16(index), rtp.ToTimestamp(time.Duration(index)*40*time.Millisecond), ssrc)
	p = append(hdr.AppendTo(p), make([]byte, n)...)
	w.net.Send(netsim.Packet{From: "attacker:1", To: netsim.MakeAddr("laptop", port), Payload: p})
}

// TestReceivePathRules pins how a media packet finds its stream: by SSRC,
// not by port; an SSRC no stream carries is dropped; a previous document's
// SSRC still feeds the receiver tracked for its ID; and an incomplete frame
// more than 50 frames behind or ahead of a completed one is recycled.
func TestReceivePathRules(t *testing.T) {
	w := newWorld(t, netsim.DefaultLAN(), Options{}, server.Options{}, "server-a")
	w.subscribe(t, "alice", "pw")
	putDoc(t, w.servers["server-a"], "late", lateAV)
	w.c.Connect("server-a")
	w.run(time.Second)
	w.c.RequestDoc("late")
	w.run(time.Second)
	n, okN := w.c.StreamInfo("n")
	cv, okV := w.c.StreamInfo("cv")
	if !okN || !okV || n.SSRC == cv.SSRC || n.Port == cv.Port {
		t.Fatalf("announces n=%+v cv=%+v", n, cv)
	}
	pushed := func(id string) int { return w.c.Buffers().Get(id).Stats().Pushed }
	expected := func(id string) uint32 { return w.c.Monitor().Receiver(id).Expected() }
	check := func(step string, wantN, wantV int, expN, expV uint32) {
		t.Helper()
		if got := pushed("n"); got != wantN {
			t.Errorf("%s: n pushed %d frames, want %d", step, got, wantN)
		}
		if got := pushed("cv"); got != wantV {
			t.Errorf("%s: cv pushed %d frames, want %d", step, got, wantV)
		}
		if got := expected("n"); got != expN {
			t.Errorf("%s: n's receiver expects %d packets, want %d", step, got, expN)
		}
		if got := expected("cv"); got != expV {
			t.Errorf("%s: cv's receiver expects %d packets, want %d", step, got, expV)
		}
	}
	check("before injection", 0, 0, 0, 0)

	// An SSRC no tracked stream carries is dropped before any receiver.
	injectFragment(w, n.Port, 0xDEAD, 1, 10, 0)
	check("unknown SSRC", 0, 0, 0, 0)

	// The SSRC names the stream: cv's packet on n's port lands in cv.
	injectFragment(w, n.Port, cv.SSRC, 1, 10, 0)
	check("cv's SSRC on n's port", 0, 1, 0, 1)

	// Frames 199 and 200 wait for their second fragment when frame 250
	// completes: 199 is 51 frames behind and is recycled, so its late
	// fragment starts a new incomplete frame; 200 is exactly 50 behind and
	// completes.
	two := media.MTU + 10
	injectFragment(w, cv.Port, cv.SSRC, 199, two, 0)
	injectFragment(w, cv.Port, cv.SSRC, 200, two, 0)
	injectFragment(w, cv.Port, cv.SSRC, 250, 10, 0)
	check("frame 250", 0, 2, 0, 250)
	injectFragment(w, cv.Port, cv.SSRC, 199, two, 1)
	check("late fragment of recycled frame 199", 0, 2, 0, 250)
	injectFragment(w, cv.Port, cv.SSRC, 200, two, 1)
	check("last fragment of frame 200", 0, 3, 0, 250)

	// Junk first fragments far ahead of the stream never complete either:
	// once frame 251 completes, they are recycled with the restarted frame
	// 199 instead of piling up until teardown.
	for i := range uint32(500) {
		sendFragment(w, cv.Port, cv.SSRC, 1<<20+i, two, 0)
		w.run(2 * time.Millisecond) // paced to the link's rate
	}
	injectFragment(w, cv.Port, cv.SSRC, 251, 10, 0)
	w.c.mu.Lock()
	held := len(w.c.pres.stream(nil, cv.SSRC).asm)
	w.c.mu.Unlock()
	if got := pushed("cv"); got != 4 || held != 0 {
		t.Errorf("after frame 251: cv pushed %d frames and holds %d incomplete ones, want 4 and 0", got, held)
	}

	// A second document re-tracks both IDs under new SSRCs; the first
	// document's SSRC for cv still feeds cv's current receiver and buffer.
	w.c.Reload()
	w.run(time.Second)
	cv2, _ := w.c.StreamInfo("cv")
	if cv2.SSRC == cv.SSRC {
		t.Fatalf("reload kept cv's SSRC %d", cv.SSRC)
	}
	check("second document", 0, 0, 0, 0)
	injectFragment(w, cv2.Port, cv.SSRC, 1, 10, 0)
	check("first document's SSRC", 0, 1, 0, 1)
}
