package transport

import (
	"repro/internal/obs"
	"repro/internal/stats"
)

// liveMetrics holds the transport's concurrency-safe instruments, which live
// in the telemetry scope's registry under transport_* names (shared no-ops
// when the scope is nil), so periodic dumps, the exit table and the
// control-protocol stats snapshot all read the same values. Hot paths
// (writer goroutines, read loops) update them lock-free.
type liveMetrics struct {
	tcpFramesSent    *stats.Counter
	tcpBytesSent     *stats.Counter
	tcpFramesRecv    *stats.Counter
	tcpBytesRecv     *stats.Counter
	udpDatagramsSent *stats.Counter
	udpBytesSent     *stats.Counter
	udpDatagramsRecv *stats.Counter
	udpBytesRecv     *stats.Counter
	// queueHighWater is the deepest any per-host send queue ever got;
	// queueDrops counts reliable frames dropped whole on a full queue.
	queueHighWater *stats.HighWater
	queueDrops     *stats.Counter
	// reconnects counts outbound connections torn down and redialed;
	// dialFailures counts failed dial attempts (each retried on backoff).
	reconnects    *stats.Counter
	dialFailures  *stats.Counter
	udpSendErrors *stats.Counter
	decodeErrors  *stats.Counter
	// acceptedConns counts inbound connections over the transport's life;
	// inboundConns is how many are open now.
	acceptedConns *stats.Counter
	inboundConns  *stats.Gauge
}

func newLiveMetrics(scope *obs.Scope) liveMetrics {
	return liveMetrics{
		tcpFramesSent:    scope.Counter("transport_tcp_frames_sent"),
		tcpBytesSent:     scope.Counter("transport_tcp_bytes_sent"),
		tcpFramesRecv:    scope.Counter("transport_tcp_frames_recv"),
		tcpBytesRecv:     scope.Counter("transport_tcp_bytes_recv"),
		udpDatagramsSent: scope.Counter("transport_udp_datagrams_sent"),
		udpBytesSent:     scope.Counter("transport_udp_bytes_sent"),
		udpDatagramsRecv: scope.Counter("transport_udp_datagrams_recv"),
		udpBytesRecv:     scope.Counter("transport_udp_bytes_recv"),
		queueHighWater:   scope.HighWater("transport_queue_high_water"),
		queueDrops:       scope.Counter("transport_queue_drops"),
		reconnects:       scope.Counter("transport_reconnects"),
		dialFailures:     scope.Counter("transport_dial_failures"),
		udpSendErrors:    scope.Counter("transport_udp_send_errors"),
		decodeErrors:     scope.Counter("transport_decode_errors"),
		acceptedConns:    scope.Counter("transport_accepted_conns"),
		inboundConns:     scope.Gauge("transport_inbound_conns"),
	}
}
