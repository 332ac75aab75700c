// Cross-server handoff tickets. When a client navigates to a document homed
// on another server of the federation, the source server suspends the
// session (grace machinery), mints a ticket naming the user and document,
// signs it with the cluster's shared key, and sends it to the client inside
// the DocResponse. The client presents the ticket in its Connect at the
// target, which verifies the signature and expiry and admits the session as
// a continuation: no password round-trip, watermark-exempt, counted as a
// resumed admission. The ticket is bearer-style but short-lived (it expires
// with the source's grace period) and bound to user+document, so a replayed
// or tampered ticket buys nothing beyond what the session already had.
package protocol

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/qos"
)

// Handoff ticket verification failures, distinguishable by errors.Is.
var (
	ErrTicketExpired = errors.New("handoff ticket expired")
	ErrTicketSig     = errors.New("handoff ticket signature mismatch")
	ErrTicketNoKey   = errors.New("no cluster key configured")
)

// HandoffTicket is the signed voucher for resuming a session at another
// server of the cluster.
type HandoffTicket struct {
	// User is the subscriber the source had authenticated.
	User string `json:"user"`
	// Class is the user's pricing contract, carried so the target can run
	// admission without a subscriber-database lookup.
	Class qos.PricingClass `json:"class"`
	// Doc is the document the handoff is for.
	Doc string `json:"doc"`
	// From is the issuing server; Target the replica it routed toward. Any
	// replica holding Doc may accept the ticket — Target is a routing hint,
	// not a restriction, so fallback to a sibling replica still works.
	From   string `json:"from"`
	Target string `json:"target,omitempty"`
	// ExpiresUnixMilli bounds the ticket's life to the source's grace
	// period.
	ExpiresUnixMilli int64 `json:"expires"`
	// Sig is the HMAC-SHA256 over the ticket fields under the cluster key.
	Sig []byte `json:"sig"`
}

func (t *HandoffTicket) wire(c *codec) {
	c.str("user", &t.User, keep)
	integer(c, "class", &t.Class, keep)
	c.str("doc", &t.Doc, keep)
	c.str("from", &t.From, keep)
	c.str("target", &t.Target, omit)
	integer(c, "expires", &t.ExpiresUnixMilli, keep)
	c.bytes("sig", &t.Sig, keep)
}

// mac computes the ticket's HMAC-SHA256 under key. Each field is prefixed
// with its length, so no two distinct tickets share a MAC input whatever
// bytes the names hold.
func (t *HandoffTicket) mac(key []byte) []byte {
	var in []byte
	for _, f := range []string{
		t.User, strconv.Itoa(int(t.Class)), t.Doc, t.From, t.Target,
		strconv.FormatInt(t.ExpiresUnixMilli, 10),
	} {
		in = binary.AppendUvarint(in, uint64(len(f)))
		in = append(in, f...)
	}
	h := hmac.New(sha256.New, key)
	h.Write(in)
	return h.Sum(nil)
}

// Sign fills Sig under the cluster key.
func (t *HandoffTicket) Sign(key []byte) {
	t.Sig = t.mac(key)
}

// Verify checks the signature and expiry at the accepting server.
func (t *HandoffTicket) Verify(key []byte, now time.Time) error {
	if len(key) == 0 {
		return ErrTicketNoKey
	}
	if !hmac.Equal(t.Sig, t.mac(key)) {
		return ErrTicketSig
	}
	if exp := time.UnixMilli(t.ExpiresUnixMilli); now.After(exp) {
		return fmt.Errorf("%w at %s", ErrTicketExpired, exp.UTC().Format(time.RFC3339))
	}
	return nil
}
