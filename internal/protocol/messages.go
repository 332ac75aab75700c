// Package protocol defines the service's application protocol: the control
// messages exchanged between the Hermes browser and the multimedia servers
// (connection, authentication, subscription, topic lists, document requests,
// interactive operations, suspension) and the client/server state machine of
// the paper's Figure 4.
//
// Control messages travel over the reliable channel; they are encoded as a
// one-byte type tag, a 4-byte request ID (0 for fire-and-forget messages;
// replies echo the request's ID) and a JSON body, so the wire format is
// self-describing and diffable in traces.
package protocol

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"repro/internal/obs"

	"repro/internal/qos"
)

// ControlPort is the well-known control port of every multimedia server: the
// one address a browser knows before it has spoken to anyone.
const ControlPort = 5000

// MsgType tags each control message.
type MsgType byte

// Control message types.
const (
	MsgConnect MsgType = iota + 1
	MsgConnectResult
	MsgSubscribe
	MsgSubscribeResult
	MsgTopicList
	MsgTopics
	MsgSearch
	MsgSearchResult
	MsgDocRequest
	MsgDocResponse
	MsgPause
	MsgResume
	MsgReload
	MsgDisableMedia
	MsgAnnotate
	MsgSuspend
	MsgSuspendResult
	MsgDisconnect
	MsgError
	MsgFeedback
	MsgListAnnotations
	MsgAnnotations
	MsgStatsRequest
	MsgStatsResult
	MsgHeartbeat
	MsgHeartbeatAck
)

// msgTypeNames is indexed by MsgType; any other value prints as msg-N.
var msgTypeNames = [...]string{
	MsgConnect: "connect", MsgConnectResult: "connect-result",
	MsgSubscribe: "subscribe", MsgSubscribeResult: "subscribe-result",
	MsgTopicList: "topic-list", MsgTopics: "topics",
	MsgSearch: "search", MsgSearchResult: "search-result",
	MsgDocRequest: "doc-request", MsgDocResponse: "doc-response",
	MsgPause: "pause", MsgResume: "resume", MsgReload: "reload",
	MsgDisableMedia: "disable-media", MsgAnnotate: "annotate",
	MsgSuspend: "suspend", MsgSuspendResult: "suspend-result",
	MsgDisconnect: "disconnect", MsgError: "error", MsgFeedback: "feedback",
	MsgListAnnotations: "list-annotations", MsgAnnotations: "annotations",
	MsgStatsRequest: "stats-request", MsgStatsResult: "stats-result",
	MsgHeartbeat: "heartbeat", MsgHeartbeatAck: "heartbeat-ack",
}

func (t MsgType) String() string {
	if int(t) < len(msgTypeNames) && msgTypeNames[t] != "" {
		return msgTypeNames[t]
	}
	return fmt.Sprintf("msg-%d", byte(t))
}

// Connect asks for admission to the service.
type Connect struct {
	User string `json:"user"`
	// Password authenticates subscribed users.
	Password string `json:"password,omitempty"`
	// Class is the user's pricing contract.
	Class qos.PricingClass `json:"class"`
	// PeakRate/MinRate describe the connection's load and the user's
	// quality floor for admission control.
	PeakRate float64 `json:"peakRate"`
	MinRate  float64 `json:"minRate"`
	// FloorLevel is the worst quality level the user accepts.
	FloorLevel int `json:"floorLevel"`
	// Resume identifies a suspended session being returned to.
	ResumeToken string `json:"resumeToken,omitempty"`
	// ResumeSession recovers a live session by its ID after a liveness loss
	// (partition, server restart): the client never received a resume token
	// because it never chose to leave. The server re-attaches if the session
	// still exists (possibly auto-suspended), else answers SessionLost.
	ResumeSession string `json:"resumeSession,omitempty"`
	// Failover marks a re-admission after the original server died; the
	// admission layer records these separately.
	Failover bool `json:"failover,omitempty"`
	// Handoff carries the signed ticket minted by the source server of a
	// cross-server handoff: the target admits the session as a continuation
	// (no password, watermark-exempt) after verifying the signature.
	Handoff *HandoffTicket `json:"handoff,omitempty"`
}

// ConnectResult answers a Connect.
type ConnectResult struct {
	OK bool `json:"ok"`
	// NeedSubscription asks the user to fill the subscription form.
	NeedSubscription bool    `json:"needSubscription,omitempty"`
	SessionID        string  `json:"sessionId,omitempty"`
	GrantedRate      float64 `json:"grantedRate,omitempty"`
	Degraded         bool    `json:"degraded,omitempty"`
	Reason           string  `json:"reason,omitempty"`
	// GraceSecs tells the client how long a lost session stays resumable,
	// bounding its recovery probing before failover.
	GraceSecs int `json:"graceSecs,omitempty"`
	// Peers lists replica servers the client may fail over to.
	Peers []string `json:"peers,omitempty"`
	// Redirect is the cluster's load-aware admission answer: the server is
	// over its admission watermark and asks the client to retry at one of
	// Peers (ordered by advertised load) instead of rejecting outright.
	Redirect bool `json:"redirect,omitempty"`
	// Resumed marks a successful ResumeSession recovery: same session,
	// paused senders restarted.
	Resumed bool `json:"resumed,omitempty"`
	// SessionLost answers a ResumeSession for a session this server no
	// longer holds (grace expired, or the server restarted and lost state);
	// the client should fail over with fresh credentials.
	SessionLost bool `json:"sessionLost,omitempty"`
}

// SubscriptionForm is the paper's subscription form: "personal data such as
// name and address, telephone, e-mail".
type SubscriptionForm struct {
	User     string           `json:"user"`
	Password string           `json:"password"`
	RealName string           `json:"realName"`
	Address  string           `json:"address"`
	Email    string           `json:"email"`
	Phone    string           `json:"phone"`
	Class    qos.PricingClass `json:"class"`
}

// SubscribeResult answers a SubscriptionForm.
type SubscribeResult struct {
	OK     bool   `json:"ok"`
	Reason string `json:"reason,omitempty"`
}

// TopicListRequest asks for the list of available topics/lessons.
type TopicListRequest struct{}

// TopicInfo describes one available document.
type TopicInfo struct {
	Name        string `json:"name"`
	Title       string `json:"title"`
	Server      string `json:"server"`
	Description string `json:"description,omitempty"`
}

// Topics is the contents listing.
type Topics struct {
	Topics []TopicInfo `json:"topics"`
}

// Search is a federated content search: the receiving server scans its
// documents and forwards the query to every other server.
type Search struct {
	Token string `json:"token"`
	// NoForward marks server-to-server fan-out queries.
	NoForward bool `json:"noForward,omitempty"`
	// SearchID correlates fan-out replies.
	SearchID int `json:"searchId,omitempty"`
}

// SearchResult lists matches.
type SearchResult struct {
	SearchID int         `json:"searchId,omitempty"`
	Hits     []TopicInfo `json:"hits"`
}

// DocRequest asks for a document's presentation scenario.
type DocRequest struct {
	Name string `json:"name"`
	// MediaPortBase is the first client port for parallel media
	// connections; the server assigns one port per stream from here.
	MediaPortBase int `json:"mediaPortBase"`
	// WindowMS is the client's media time window in milliseconds; the
	// flow scheduler pre-rolls transmission by this much (plus a margin)
	// so the buffers hold one window when playout begins.
	WindowMS int `json:"windowMs,omitempty"`
}

// StreamAnnounce tells the client how one media stream will arrive.
type StreamAnnounce struct {
	StreamID string `json:"streamId"`
	SSRC     uint32 `json:"ssrc"`
	// Port is the client port the media server will send to.
	Port int `json:"port"`
	// PayloadType is the initial coding.
	PayloadType byte `json:"payloadType"`
	// Rate is the nominal full-quality rate (bits/s).
	Rate float64 `json:"rate"`
	// FrameIntervalUS is the nominal frame spacing in microseconds.
	FrameIntervalUS int64 `json:"frameIntervalUs"`
	// Levels is the quality ladder depth.
	Levels int `json:"levels"`
}

// DocResponse carries the scenario and the media connection plan.
type DocResponse struct {
	OK bool `json:"ok"`
	// Name is the document's database key.
	Name string `json:"name,omitempty"`
	// Redirect names the server holding the document when it lives
	// elsewhere (triggers suspend + reconnect at the client).
	Redirect string `json:"redirect,omitempty"`
	// Handoff accompanies Redirect: the signed ticket the client presents
	// at the target to resume as a continuation of this session.
	Handoff *HandoffTicket `json:"handoff,omitempty"`
	// ResumeToken/GraceSecs park the session at the source for the grace
	// period, so the client can fall back here if every replica is down.
	ResumeToken string `json:"resumeToken,omitempty"`
	GraceSecs   int    `json:"graceSecs,omitempty"`
	// Peers is the per-document replica set for this document: the servers
	// (besides the answering one) that also hold it, so failover mid-lesson
	// lands on a replica that can actually serve it.
	Peers []string `json:"peers,omitempty"`
	// ScenarioSrc is the HML text of the presentation scenario.
	ScenarioSrc string           `json:"scenarioSrc,omitempty"`
	Streams     []StreamAnnounce `json:"streams,omitempty"`
	Reason      string           `json:"reason,omitempty"`
}

// MediaOp addresses an interactive operation at the current document
// (pause, resume, reload) or one media stream (disable).
type MediaOp struct {
	StreamID string `json:"streamId,omitempty"`
}

// Annotate attaches a user remark to the current document.
type Annotate struct {
	StreamID string `json:"streamId,omitempty"`
	Text     string `json:"text"`
}

// ListAnnotations asks for the remarks attached to a document.
type ListAnnotations struct {
	Doc string `json:"doc"`
}

// AnnotationRecord is one stored user remark.
type AnnotationRecord struct {
	User string `json:"user"`
	Text string `json:"text"`
	// AtUnixMilli is the remark's timestamp.
	AtUnixMilli int64 `json:"at"`
}

// Annotations answers ListAnnotations.
type Annotations struct {
	Doc     string             `json:"doc"`
	Records []AnnotationRecord `json:"records"`
}

// Suspend asks the server to keep the session alive for the grace period
// while the client visits another server.
type Suspend struct{}

// SuspendResult grants a resume token and the grace period in seconds.
type SuspendResult struct {
	OK          bool   `json:"ok"`
	ResumeToken string `json:"resumeToken,omitempty"`
	GraceSecs   int    `json:"graceSecs,omitempty"`
}

// Disconnect ends the session; the pricing primitive is informed.
type Disconnect struct {
	Reason string `json:"reason,omitempty"`
}

// ErrorMsg reports a protocol-level failure.
type ErrorMsg struct {
	Msg string `json:"msg"`
}

// Feedback wraps an RTCP receiver report travelling on the control channel
// (the client's periodic QoS feedback).
type Feedback struct {
	// RTCP is the marshaled compound RTCP payload.
	RTCP []byte `json:"rtcp"`
}

// StatsRequest asks a server for its telemetry registry snapshot. It is
// sessionless (like TopicListRequest): monitoring must not require
// admission.
type StatsRequest struct{}

// StatsResult answers StatsRequest with the server's metric snapshot and
// the shape of its trace ring.
type StatsResult struct {
	OK     bool   `json:"ok"`
	Server string `json:"server,omitempty"`
	// Metrics is the sorted registry snapshot (empty when the server runs
	// with telemetry off).
	Metrics []obs.MetricPoint `json:"metrics,omitempty"`
	// TraceEvents/TraceDropped describe the server's trace ring.
	TraceEvents  int   `json:"traceEvents,omitempty"`
	TraceDropped int64 `json:"traceDropped,omitempty"`
}

// Heartbeat is the client's periodic liveness probe on the control channel.
type Heartbeat struct {
	SessionID string `json:"sessionId,omitempty"`
}

// HeartbeatAck answers a Heartbeat. OK=false tells the client the server no
// longer holds its session (a restart), so it can recover without waiting
// for missed beats.
type HeartbeatAck struct {
	OK        bool   `json:"ok"`
	SessionID string `json:"sessionId,omitempty"`
	// Peers refreshes the per-document replica set on every ack, so the
	// client's failover targets track the document it is currently viewing
	// (and any placement change) rather than the connect-time snapshot.
	Peers []string `json:"peers,omitempty"`
}

// headerSize is the frame header: one type byte plus a 4-byte big-endian
// request ID (0 = fire-and-forget, no reply correlation).
const headerSize = 5

// Encode frames a fire-and-forget message (request ID 0) as
// [type | reqID=0 | JSON body].
func Encode(t MsgType, body interface{}) ([]byte, error) {
	return EncodeReq(t, 0, body)
}

// EncodeReq frames a message as [type byte | 4-byte big-endian request ID |
// JSON body]. Requests carry a nonzero ID; replies echo it, which lets the
// client match replies to pending retransmissions and the server dedup
// duplicated requests.
func EncodeReq(t MsgType, reqID uint32, body interface{}) ([]byte, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return nil, fmt.Errorf("protocol: encode %s: %w", t, err)
	}
	out := make([]byte, headerSize+len(data))
	out[0] = byte(t)
	binary.BigEndian.PutUint32(out[1:headerSize], reqID)
	copy(out[headerSize:], data)
	return out, nil
}

// MustEncode is Encode for bodies that cannot fail.
func MustEncode(t MsgType, body interface{}) []byte {
	b, err := Encode(t, body)
	if err != nil {
		panic(err)
	}
	return b
}

// MustEncodeReq is EncodeReq for bodies that cannot fail.
func MustEncodeReq(t MsgType, reqID uint32, body interface{}) []byte {
	b, err := EncodeReq(t, reqID, body)
	if err != nil {
		panic(err)
	}
	return b
}

// Decode splits a framed message, discarding the request ID; the body
// remains JSON for DecodeBody.
func Decode(buf []byte) (MsgType, []byte, error) {
	t, _, body, err := DecodeReq(buf)
	return t, body, err
}

// DecodeReq splits a framed message into type, request ID and JSON body.
func DecodeReq(buf []byte) (MsgType, uint32, []byte, error) {
	if len(buf) < headerSize {
		return 0, 0, nil, fmt.Errorf("protocol: short message (%d bytes)", len(buf))
	}
	return MsgType(buf[0]), binary.BigEndian.Uint32(buf[1:headerSize]), buf[headerSize:], nil
}

// DecodeBody unmarshals a message body into out.
func DecodeBody(body []byte, out interface{}) error {
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("protocol: decode body: %w", err)
	}
	return nil
}
