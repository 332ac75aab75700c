package protocol

import (
	"errors"
	"testing"
	"time"

	"repro/internal/qos"
)

var ticketKey = []byte("test-cluster-key")

// ticketNow is the verification time. The tests tell a signature failure
// from an expiry with errors.Is, so any expiry works.
var ticketNow = time.UnixMilli(0)

// nulSplit is a signed ticket and a forgery that moves its field boundaries:
// the same bytes joined by NUL re-split into a different user, a higher
// class and a different route.
func nulSplit() (signed, forged HandoffTicket) {
	signed = HandoffTicket{User: "mallory\x002", Class: qos.Economy, Doc: "d", From: "s1", Target: "s2", ExpiresUnixMilli: 60_000}
	forged = HandoffTicket{User: "mallory", Class: qos.Premium, Doc: "0", From: "d", Target: "s1\x00s2", ExpiresUnixMilli: 60_000}
	return signed, forged
}

// TestTicketFieldsCannotBeResplit: a ticket's signature binds each field,
// not their concatenation, so re-splitting a signed ticket's bytes into
// other fields never verifies — not even after the forgery crosses the wire
// inside a Connect.
func TestTicketFieldsCannotBeResplit(t *testing.T) {
	signed, forged := nulSplit()
	signed.Sign(ticketKey)
	if err := signed.Verify(ticketKey, ticketNow); err != nil {
		t.Fatalf("signed ticket: %v", err)
	}
	forged.Sig = signed.Sig
	frame := MustEncodeReq(MsgConnect, 7, Connect{User: forged.User, Class: forged.Class, Handoff: &forged})
	_, _, body, err := DecodeReq(frame)
	if err != nil {
		t.Fatal(err)
	}
	var got Connect
	if err := DecodeBody(body, &got); err != nil || got.Handoff == nil || got.Handoff.Target != forged.Target {
		t.Fatalf("forged Connect does not round-trip: %+v (%v)", got.Handoff, err)
	}
	if err := got.Handoff.Verify(ticketKey, ticketNow); !errors.Is(err, ErrTicketSig) {
		t.Fatalf("forged ticket %+v verified (err %v)", *got.Handoff, err)
	}
}

// FuzzTicketVerify: a signature verifies only the ticket it was made for. A
// ticket built from other fields never verifies under it, and no truncation
// of a signature verifies its own ticket.
func FuzzTicketVerify(f *testing.F) {
	signed, forged := nulSplit()
	add := func(a, b HandoffTicket, cut uint8) {
		f.Add(a.User, int(a.Class), a.Doc, a.From, a.Target, a.ExpiresUnixMilli,
			b.User, int(b.Class), b.Doc, b.From, b.Target, b.ExpiresUnixMilli, cut)
	}
	add(signed, forged, 31)
	add(signed, signed, 0)
	add(forged, forged, 16)
	f.Fuzz(func(t *testing.T, u1 string, c1 int, d1, f1, t1 string, e1 int64,
		u2 string, c2 int, d2, f2, t2 string, e2 int64, cut uint8) {
		a := HandoffTicket{User: u1, Class: qos.PricingClass(c1), Doc: d1, From: f1, Target: t1, ExpiresUnixMilli: e1}
		b := HandoffTicket{User: u2, Class: qos.PricingClass(c2), Doc: d2, From: f2, Target: t2, ExpiresUnixMilli: e2}
		a.Sign(ticketKey)
		b.Sig = a.Sig
		same := a.User == b.User && a.Class == b.Class && a.Doc == b.Doc &&
			a.From == b.From && a.Target == b.Target && a.ExpiresUnixMilli == b.ExpiresUnixMilli
		if sigOK := !errors.Is(b.Verify(ticketKey, ticketNow), ErrTicketSig); sigOK != same {
			t.Fatalf("ticket %+v under the signature of %+v: signature accepted = %v", b, a, sigOK)
		}
		a.Sig = a.Sig[:int(cut)%len(a.Sig)]
		if err := a.Verify(ticketKey, ticketNow); !errors.Is(err, ErrTicketSig) {
			t.Fatalf("signature truncated to %d bytes verified (err %v)", len(a.Sig), err)
		}
	})
}
