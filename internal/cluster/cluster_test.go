package cluster

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/clock"
	"repro/internal/netsim"
	"repro/internal/protocol"
	"repro/internal/qos"
	"repro/internal/server"
)

// TestNewRejectsDuplicateServer: two servers of one name would share a
// control address and be counted twice by CounterTotal, so New refuses them.
func TestNewRejectsDuplicateServer(t *testing.T) {
	clk := clock.NewSim()
	_, err := New(clk, netsim.New(clk, 1), auth.NewDB(), Config{Servers: []string{"a", "b", "a"}})
	if err == nil || !strings.Contains(err.Error(), `"a"`) {
		t.Fatalf("New with a duplicate server: err = %v, want one naming %q", err, "a")
	}
}

// --- claimSessionFor cross-shard reattach race (satellite) ---

// directNet is a synchronous netsim.Net: Send invokes the destination
// handler on the caller's goroutine. Two test goroutines sending at once
// therefore execute the server's control handler concurrently — exactly the
// interleaving claimSessionFor's ordered double-lock must survive, made
// visible to the race detector without the virtual clock serializing
// deliveries.
type directNet struct {
	mu       sync.Mutex
	handlers map[netsim.Addr]netsim.Handler
}

func newDirectNet() *directNet {
	return &directNet{handlers: map[netsim.Addr]netsim.Handler{}}
}

func (d *directNet) Listen(a netsim.Addr, h netsim.Handler) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if h == nil {
		delete(d.handlers, a)
		return nil
	}
	d.handlers[a] = h
	return nil
}

func (d *directNet) Send(p netsim.Packet) error {
	d.mu.Lock()
	h := d.handlers[p.To]
	d.mu.Unlock()
	if h != nil {
		h(p)
	}
	return nil
}

// probe is one fake client endpoint on the directNet: it records every
// ConnectResult addressed to it.
type probe struct {
	addr netsim.Addr
	mu   sync.Mutex
	res  []protocol.ConnectResult
}

func newProbe(t *testing.T, d *directNet, host string) *probe {
	t.Helper()
	p := &probe{addr: netsim.MakeAddr(host, 6000)}
	if err := d.Listen(p.addr, func(pkt netsim.Packet) {
		mt, _, body, err := protocol.DecodeReq(pkt.Payload)
		if err != nil || mt != protocol.MsgConnectResult {
			return
		}
		var cr protocol.ConnectResult
		if protocol.DecodeBody(body, &cr) != nil {
			return
		}
		p.mu.Lock()
		p.res = append(p.res, cr)
		p.mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	return p
}

func (p *probe) send(d *directNet, srv string, reqID uint32, m protocol.Connect) {
	_ = d.Send(netsim.Packet{
		From:     p.addr,
		To:       netsim.MakeAddr(srv, server.ControlPort),
		Payload:  protocol.MustEncodeReq(protocol.MsgConnect, reqID, m),
		Reliable: true,
	})
}

func (p *probe) last() *protocol.ConnectResult {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.res) == 0 {
		return nil
	}
	cr := p.res[len(p.res)-1]
	return &cr
}

// TestClaimSessionConcurrentReattach races the voluntary resume-token path
// against liveness-recovery ResumeSession connects for the SAME session,
// arriving from different client addresses (different control shards). The
// ordered double-lock in claimSessionFor must keep exactly one resident
// session through every interleaving; run under -race (the Makefile's race
// gate covers this package), concurrent shard maps or session fields would
// trip the detector.
func TestClaimSessionConcurrentReattach(t *testing.T) {
	clk := clock.NewSim()
	d := newDirectNet()
	users := auth.NewDB()
	if err := users.Subscribe(auth.User{
		Name: "alice", Password: "pw", RealName: "Race Tester",
		Email: "alice@example.gr", Class: qos.Standard,
	}, clk.Now()); err != nil {
		t.Fatal(err)
	}
	db := server.NewDatabase()
	const lesson = `<TITLE>lecture</TITLE>
<AU_VI SOURCE=au/n SOURCE=vi/c ID=n ID=cv STARTIME=0 DURATION=120> </AU_VI>`
	if err := db.Put("lecture", lesson, "race doc"); err != nil {
		t.Fatal(err)
	}
	srv, err := server.New("srv1", clk, d, users, db, server.Options{Grace: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	_ = srv

	home := newProbe(t, d, "laptop")
	home.send(d, "srv1", 1, protocol.Connect{
		User: "alice", Password: "pw", PeakRate: 1_000_000,
	})
	cr := home.last()
	if cr == nil || !cr.OK {
		t.Fatalf("connect failed: %+v", cr)
	}
	sessID := cr.SessionID

	// Park the session behind a resume token, as a handoff source would.
	var suspend protocol.SuspendResult
	if err := d.Listen(home.addr, func(pkt netsim.Packet) {
		mt, _, body, err := protocol.DecodeReq(pkt.Payload)
		if err == nil && mt == protocol.MsgSuspendResult {
			_ = protocol.DecodeBody(body, &suspend)
		}
	}); err != nil {
		t.Fatal(err)
	}
	_ = d.Send(netsim.Packet{
		From:     home.addr,
		To:       netsim.MakeAddr("srv1", server.ControlPort),
		Payload:  protocol.MustEncodeReq(protocol.MsgSuspend, 2, protocol.Suspend{}),
		Reliable: true,
	})
	if !suspend.OK || suspend.ResumeToken == "" {
		t.Fatalf("suspend failed: %+v", suspend)
	}

	// Three rivals on distinct addresses (hence, with high probability,
	// distinct control shards) fight over the same session: one by token
	// (the handoff/fallback path), two by session ID (concurrent failover
	// recovery), repeatedly and concurrently.
	const rounds = 40
	tokenP := newProbe(t, d, "rivalTok")
	idP1 := newProbe(t, d, "rivalA")
	idP2 := newProbe(t, d, "rivalB")
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		tokenP.send(d, "srv1", 1, protocol.Connect{
			User: "alice", ResumeToken: suspend.ResumeToken,
		})
	}()
	go func() {
		defer wg.Done()
		for i := uint32(0); i < rounds; i++ {
			idP1.send(d, "srv1", 10+i, protocol.Connect{
				User: "alice", ResumeSession: sessID,
			})
		}
	}()
	go func() {
		defer wg.Done()
		for i := uint32(0); i < rounds; i++ {
			idP2.send(d, "srv1", 10+i, protocol.Connect{
				User: "alice", ResumeSession: sessID,
			})
		}
	}()
	wg.Wait()

	// The token attempt either won the session or found the token already
	// consumed by a reattach — both are legal; a crash or a second resident
	// session is not.
	if cr := tokenP.last(); cr == nil {
		t.Fatal("token resume got no reply")
	} else if !cr.OK && !strings.Contains(cr.Reason, "resume token expired") {
		t.Fatalf("token resume: unexpected rejection %+v", cr)
	}
	for name, p := range map[string]*probe{"rivalA": idP1, "rivalB": idP2} {
		p.mu.Lock()
		n := len(p.res)
		p.mu.Unlock()
		if n != rounds {
			t.Fatalf("%s: %d replies to %d resumes", name, n, rounds)
		}
	}

	// Whatever the interleaving, the session survives with its identity:
	// one final recovery connect must land on the same session ID.
	final := newProbe(t, d, "final")
	final.send(d, "srv1", 1, protocol.Connect{User: "alice", ResumeSession: sessID})
	cr = final.last()
	if cr == nil || !cr.OK || cr.SessionID != sessID {
		t.Fatalf("final resume = %+v, want OK with session %s", cr, sessID)
	}
}
