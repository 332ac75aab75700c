// Package transport implements netsim.Net over real operating-system
// sockets, so the same server and client code that runs in simulation also
// runs as live networked binaries (cmd/hermesd, cmd/hermes).
//
// Host names are mapped onto distinct loopback addresses (127.0.0.x), which
// lets several "hosts" — multiple Hermes servers plus browsers — coexist on
// one machine with the same well-known ports the architecture uses.
// Unreliable packets travel as UDP datagrams to the destination address;
// reliable packets travel over per-host-pair TCP connections (one accept
// socket per host on MuxPort) with length-prefixed frames carrying the
// from/to addresses, matching the paper's TCP-for-control/stills,
// RTP-over-UDP-for-audio-video split (Figure 5).
//
// Reliable traffic toward each destination host is owned by a dedicated
// writer goroutine fed through a bounded queue: Send never blocks and never
// holds the transport lock across a socket write, frames are enqueued and
// dropped whole (never partially written), and when a TCP peer goes away
// the writer redials with capped exponential backoff plus jitter. Every
// counter lives in the telemetry scope's registry under a transport_* name.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
)

// MuxPort is the per-host TCP port multiplexing all reliable traffic.
const MuxPort = 4999

const (
	// DefaultQueueSize bounds each destination host's reliable send queue;
	// a full queue drops new frames whole (counted in transport_queue_drops).
	DefaultQueueSize = 256
	// maxFrame bounds one reliable frame on the wire.
	maxFrame = 64 << 20
	// dialTimeout caps one TCP dial attempt.
	dialTimeout = 2 * time.Second
	// backoffBase/backoffMax shape the reconnect schedule: the delay after
	// the n-th consecutive dial failure is drawn from
	// [b/2, b) with b = min(backoffBase·2ⁿ, backoffMax).
	backoffBase = 50 * time.Millisecond
	backoffMax  = 2 * time.Second
)

var (
	errClosed      = errors.New("transport: closed")
	errAddrTooLong = errors.New("transport: address longer than a frame's 16-bit length")
)

// Live is a netsim.Net backed by real sockets.
type Live struct {
	mu       sync.Mutex
	hosts    map[string]string // host name → IP
	handlers map[netsim.Addr]netsim.Handler
	udp      map[netsim.Addr]*net.UDPConn
	tcpLn    map[string]net.Listener // per local host
	writers  map[string]*hostWriter  // per destination host
	tcpIn    map[net.Conn]struct{}   // currently open inbound connections
	udpOut   *net.UDPConn            // shared datagram send socket
	closed   bool
	closeCh  chan struct{}
	wg       sync.WaitGroup

	// queueSize is the per-host send queue capacity (DefaultQueueSize;
	// tests shrink it to exercise overflow).
	queueSize int

	obs *obs.Scope
	met liveMetrics
}

// NewLive creates an empty live network with telemetry off.
func NewLive() *Live { return NewLiveObs(nil) }

// NewLiveObs creates an empty live network whose counters live in scope's
// metric registry and whose connection losses emit Reconnect trace events.
// A nil scope disables telemetry.
func NewLiveObs(scope *obs.Scope) *Live {
	return &Live{
		hosts:     map[string]string{},
		handlers:  map[netsim.Addr]netsim.Handler{},
		udp:       map[netsim.Addr]*net.UDPConn{},
		tcpLn:     map[string]net.Listener{},
		writers:   map[string]*hostWriter{},
		tcpIn:     map[net.Conn]struct{}{},
		closeCh:   make(chan struct{}),
		queueSize: DefaultQueueSize,
		obs:       scope,
		met:       newLiveMetrics(scope),
	}
}

// hostIP returns (assigning if needed) the loopback IP for a host name.
func (l *Live) hostIP(host string) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.hostIPLocked(host)
}

func (l *Live) hostIPLocked(host string) string {
	if ip, ok := l.hosts[host]; ok {
		return ip
	}
	// Derive a stable loopback address from the host name so independent
	// processes (cmd/hermesd and cmd/hermes) agree without coordination;
	// explicit MapHost entries override on collision.
	h := uint32(2166136261)
	for i := 0; i < len(host); i++ {
		h ^= uint32(host[i])
		h *= 16777619
	}
	ip := fmt.Sprintf("127.0.%d.%d", 1+h%200, 1+(h>>8)%250)
	l.hosts[host] = ip
	return ip
}

// MapHost pins a host name to a specific IP (overriding the derived
// loopback address); must be called before the host is used.
func (l *Live) MapHost(host, ip string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.hosts[host] = ip
}

// ParseHostMap parses "host=ip,host=ip" flag syntax into MapHost calls.
func (l *Live) ParseHostMap(s string) error {
	if s == "" {
		return nil
	}
	for _, part := range strings.FieldsFunc(s, func(r rune) bool { return r == ',' }) {
		i := strings.IndexByte(part, '=')
		if i <= 0 || i == len(part)-1 {
			return fmt.Errorf("transport: bad host mapping %q", part)
		}
		l.MapHost(part[:i], part[i+1:])
	}
	return nil
}

// Listen implements netsim.Net. The first listen on a host also starts its
// reliable-traffic TCP accept loop. A bind failure (either the host's TCP
// mux or the address's UDP socket) is returned to the caller and leaves no
// handler registered for the address; a TCP mux that did come up stays up
// for the host, since other addresses on the host share it.
func (l *Live) Listen(addr netsim.Addr, h netsim.Handler) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if h == nil {
		delete(l.handlers, addr)
		if c, ok := l.udp[addr]; ok {
			c.Close()
			delete(l.udp, addr)
		}
		return nil
	}
	if l.closed {
		return errClosed
	}
	port, ok := portOf(addr)
	if !ok {
		return fmt.Errorf("transport: listen %q: invalid port", addr)
	}
	host := addr.Host()
	ip := l.hostIPLocked(host)
	if l.tcpLn[host] == nil {
		ln, err := net.Listen("tcp", fmt.Sprintf("%s:%d", ip, MuxPort))
		if err != nil {
			return fmt.Errorf("transport: listen %q: reliable mux: %w", addr, err)
		}
		l.tcpLn[host] = ln
		l.wg.Add(1)
		go l.acceptLoop(ln)
	}
	if l.udp[addr] == nil {
		uc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.ParseIP(ip), Port: port})
		if err != nil {
			return fmt.Errorf("transport: listen %q: datagram socket: %w", addr, err)
		}
		l.udp[addr] = uc
		l.wg.Add(1)
		go l.udpLoop(uc)
	}
	l.handlers[addr] = h
	return nil
}

// portOf extracts and validates the port of an address. It rejects
// addresses without a colon, with non-digit port characters, or with ports
// outside [1, 65535].
func portOf(addr netsim.Addr) (int, bool) {
	s := string(addr)
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] != ':' {
			continue
		}
		p, err := strconv.Atoi(s[i+1:])
		if err != nil || p < 1 || p > 65535 {
			return 0, false
		}
		return p, true
	}
	return 0, false
}

func (l *Live) udpLoop(uc *net.UDPConn) {
	defer l.wg.Done()
	buf := make([]byte, 65535)
	for {
		n, _, err := uc.ReadFromUDP(buf)
		if err != nil {
			return
		}
		l.met.udpDatagramsRecv.Inc()
		l.met.udpBytesRecv.Add(int64(n))
		// The UDP payload is framed with from/to like TCP so the handler
		// sees the logical addresses.
		pkt, ok := decodeFrame(buf[:n])
		if !ok {
			l.met.decodeErrors.Inc()
			continue
		}
		l.dispatch(pkt)
	}
}

func (l *Live) acceptLoop(ln net.Listener) {
	defer l.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			conn.Close()
			return
		}
		l.tcpIn[conn] = struct{}{}
		l.met.acceptedConns.Inc()
		l.met.inboundConns.Inc()
		l.wg.Add(1)
		l.mu.Unlock()
		go l.readLoop(conn)
	}
}

func (l *Live) readLoop(conn net.Conn) {
	defer l.wg.Done()
	defer func() {
		conn.Close()
		l.mu.Lock()
		delete(l.tcpIn, conn)
		l.mu.Unlock()
		l.met.inboundConns.Dec()
	}()
	for {
		var sz [4]byte
		if _, err := io.ReadFull(conn, sz[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(sz[:])
		if n > maxFrame {
			return
		}
		frame := make([]byte, n)
		if _, err := io.ReadFull(conn, frame); err != nil {
			return
		}
		l.met.tcpFramesRecv.Inc()
		l.met.tcpBytesRecv.Add(int64(4 + len(frame)))
		pkt, ok := decodeFrame(frame)
		if !ok {
			l.met.decodeErrors.Inc()
			continue
		}
		l.dispatch(pkt)
	}
}

func (l *Live) dispatch(pkt netsim.Packet) {
	l.mu.Lock()
	h := l.handlers[pkt.To]
	l.mu.Unlock()
	if h != nil {
		h(pkt)
	}
}

// encodeFrame packs from/to/payload into one frame (without the TCP length
// prefix). Each address length is a uint16, so Send refuses longer ones.
func encodeFrame(pkt netsim.Packet) []byte {
	from, to := []byte(pkt.From), []byte(pkt.To)
	out := make([]byte, 2+len(from)+2+len(to)+len(pkt.Payload))
	i := 0
	binary.BigEndian.PutUint16(out[i:], uint16(len(from)))
	i += 2
	i += copy(out[i:], from)
	binary.BigEndian.PutUint16(out[i:], uint16(len(to)))
	i += 2
	i += copy(out[i:], to)
	copy(out[i:], pkt.Payload)
	return out
}

func decodeFrame(buf []byte) (netsim.Packet, bool) {
	if len(buf) < 2 {
		return netsim.Packet{}, false
	}
	fl := int(binary.BigEndian.Uint16(buf))
	if fl == 0 || len(buf) < 2+fl+2 {
		return netsim.Packet{}, false
	}
	from := netsim.Addr(buf[2 : 2+fl])
	rest := buf[2+fl:]
	tl := int(binary.BigEndian.Uint16(rest))
	if tl == 0 || len(rest) < 2+tl {
		return netsim.Packet{}, false
	}
	to := netsim.Addr(rest[2 : 2+tl])
	payload := append([]byte(nil), rest[2+tl:]...)
	return netsim.Packet{From: from, To: to, Payload: payload, SentAt: time.Now()}, true
}

// Send implements netsim.Net. The error reports local refusal only — a
// closed transport, an unparseable destination, an address too long for its
// 16-bit frame length, a saturated host queue, or a failed datagram write; an
// accepted frame may still be lost in flight.
func (l *Live) Send(pkt netsim.Packet) error {
	if len(pkt.From) > math.MaxUint16 || len(pkt.To) > math.MaxUint16 {
		return errAddrTooLong
	}
	pkt.SentAt = time.Now()
	if pkt.Reliable {
		return l.sendTCP(pkt)
	}
	return l.sendUDP(pkt)
}

func (l *Live) sendUDP(pkt netsim.Packet) error {
	port, ok := portOf(pkt.To)
	if !ok {
		l.met.udpSendErrors.Inc()
		return fmt.Errorf("transport: bad destination %q", pkt.To)
	}
	conn, err := l.udpSender()
	if err != nil {
		return err
	}
	raddr := &net.UDPAddr{IP: net.ParseIP(l.hostIP(pkt.To.Host())), Port: port}
	buf := encodeFrame(pkt)
	if _, err := conn.WriteToUDP(buf, raddr); err != nil {
		l.met.udpSendErrors.Inc()
		return fmt.Errorf("transport: udp send: %w", err)
	}
	l.met.udpDatagramsSent.Inc()
	l.met.udpBytesSent.Add(int64(len(buf)))
	return nil
}

// udpSender returns the shared outbound datagram socket, creating it on
// first use (one socket for all destinations instead of one dial per
// packet).
func (l *Live) udpSender() (*net.UDPConn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, errClosed
	}
	if l.udpOut == nil {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 0})
		if err != nil {
			l.met.udpSendErrors.Inc()
			return nil, err
		}
		l.udpOut = c
	}
	return l.udpOut, nil
}

// sendTCP hands the frame to the destination host's writer goroutine. The
// queue is bounded: when it is full the frame is dropped whole and counted,
// so a stalled peer back-pressures only its own host, never the caller and
// never the other destinations.
func (l *Live) sendTCP(pkt netsim.Packet) error {
	frame := encodeFrame(pkt)
	buf := make([]byte, 4+len(frame))
	binary.BigEndian.PutUint32(buf, uint32(len(frame)))
	copy(buf[4:], frame)

	host := pkt.To.Host()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return errClosed
	}
	w := l.writers[host]
	if w == nil {
		w = &hostWriter{l: l, host: host, queue: make(chan []byte, l.queueSize)}
		l.writers[host] = w
		l.wg.Add(1)
		go w.run()
	}
	l.mu.Unlock()

	select {
	case w.queue <- buf:
		l.met.queueHighWater.Observe(int64(len(w.queue)))
		return nil
	default:
		l.met.queueDrops.Inc()
		return fmt.Errorf("transport: queue full for host %s", host)
	}
}

// hostWriter owns all reliable traffic toward one destination host: one
// goroutine, one connection, one bounded queue.
type hostWriter struct {
	l     *Live
	host  string
	queue chan []byte

	mu   sync.Mutex
	conn net.Conn // current outbound connection (nil between dials)
}

func (w *hostWriter) run() {
	defer w.l.wg.Done()
	defer w.closeConn()
	rng := rand.New(rand.NewSource(int64(time.Now().UnixNano())))
	for {
		select {
		case <-w.l.closeCh:
			return
		case buf := <-w.queue:
			if !w.writeFrame(buf, rng) {
				return
			}
		}
	}
}

// writeFrame delivers one full frame, redialing as needed. A frame is
// retried across reconnects until it is written in full on one connection;
// the receiver parses each connection independently, so it only ever
// observes complete frames. Returns false when the transport closed first.
func (w *hostWriter) writeFrame(buf []byte, rng *rand.Rand) bool {
	for {
		select {
		case <-w.l.closeCh:
			return false
		default:
		}
		conn := w.currentConn()
		if conn == nil {
			var ok bool
			conn, ok = w.dial(rng)
			if !ok {
				return false
			}
		}
		if _, err := conn.Write(buf); err != nil {
			w.dropConn(conn)
			w.l.met.reconnects.Inc()
			w.l.obs.Emit(obs.EvReconnect, w.host, 0, "write error; redialing")
			continue
		}
		w.l.met.tcpFramesSent.Inc()
		w.l.met.tcpBytesSent.Add(int64(len(buf)))
		return true
	}
}

// dial connects to the host's mux, retrying failed attempts on a capped
// exponential backoff with jitter. Returns ok=false when the transport
// closed before a connection came up.
func (w *hostWriter) dial(rng *rand.Rand) (net.Conn, bool) {
	backoff := backoffBase
	for {
		addr := fmt.Sprintf("%s:%d", w.l.hostIP(w.host), MuxPort)
		c, err := net.DialTimeout("tcp", addr, dialTimeout)
		if err == nil {
			w.setConn(c)
			select {
			case <-w.l.closeCh:
				// Close ran while the dial was in flight and could not see
				// this connection; tear it down ourselves.
				w.dropConn(c)
				return nil, false
			default:
			}
			return c, true
		}
		w.l.met.dialFailures.Inc()
		w.l.obs.Emit(obs.EvReconnect, w.host, 1, "dial failed; backing off")
		// Jitter over [backoff/2, backoff) decorrelates many writers
		// redialing the same dead peer.
		sleep := backoff/2 + time.Duration(rng.Int63n(int64(backoff/2)))
		select {
		case <-w.l.closeCh:
			return nil, false
		case <-time.After(sleep):
		}
		backoff *= 2
		if backoff > backoffMax {
			backoff = backoffMax
		}
	}
}

func (w *hostWriter) currentConn() net.Conn {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.conn
}

// setConn installs a freshly dialed connection and starts its peer-close
// probe. Outbound connections are write-only — the peer never sends frames
// back on them (its replies travel over its own writer connection) — so a
// returning Read means the peer went away. Dropping the connection at that
// moment matters because the first write into a dead socket succeeds
// silently (the kernel buffers it until the RST arrives) and the frame
// would be lost without an error to trigger the redial.
func (w *hostWriter) setConn(c net.Conn) {
	w.mu.Lock()
	w.conn = c
	w.mu.Unlock()
	// wg.Add is safe here: setConn runs on the writer goroutine, which
	// itself holds a wg count, so Close cannot have passed wg.Wait yet.
	w.l.wg.Add(1)
	go func() {
		defer w.l.wg.Done()
		io.Copy(io.Discard, c)
		w.mu.Lock()
		stale := w.conn == c
		w.mu.Unlock()
		if stale {
			// The probe, not a failed write, discovered the loss.
			w.l.met.reconnects.Inc()
			w.l.obs.Emit(obs.EvReconnect, w.host, 0, "peer closed; redialing")
		}
		w.dropConn(c)
	}()
}

// dropConn closes a broken connection and clears it if still current.
func (w *hostWriter) dropConn(c net.Conn) {
	c.Close()
	w.mu.Lock()
	if w.conn == c {
		w.conn = nil
	}
	w.mu.Unlock()
}

func (w *hostWriter) closeConn() {
	w.mu.Lock()
	if w.conn != nil {
		w.conn.Close()
		w.conn = nil
	}
	w.mu.Unlock()
}

// Close shuts every socket down and waits for the loops to exit. Writer
// goroutines blocked in a backoff sleep or a socket write are interrupted.
func (l *Live) Close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	close(l.closeCh)
	for _, ln := range l.tcpLn {
		ln.Close()
	}
	for _, c := range l.udp {
		c.Close()
	}
	if l.udpOut != nil {
		l.udpOut.Close()
	}
	for c := range l.tcpIn {
		c.Close()
	}
	writers := make([]*hostWriter, 0, len(l.writers))
	for _, w := range l.writers {
		writers = append(writers, w)
	}
	l.mu.Unlock()
	for _, w := range writers {
		w.closeConn()
	}
	l.wg.Wait()
}

var _ netsim.Net = (*Live)(nil)
