// Package protocol defines the service's application protocol: the control
// messages exchanged between the Hermes browser and the multimedia servers
// (connection, authentication, subscription, topic lists, document requests,
// interactive operations, suspension) and the client/server state machine of
// the paper's Figure 4.
//
// Control messages travel over the reliable channel; they are encoded as a
// one-byte type tag, a 4-byte request ID (0 for fire-and-forget messages;
// replies echo the request's ID) and a JSON body, so the wire format is
// self-describing and diffable in traces. The body is written and read by
// a hand-written codec (codec.go) that produces exactly the bytes
// encoding/json produces for the struct tags below; encoding/json is kept
// only in the tests, as the oracle that holds the codec to that.
package protocol

import (
	"encoding/binary"
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
	_ // reserved: the retired reload tag, so later tags keep their wire values
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
	MsgPause: "pause", MsgResume: "resume",
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

func (m *Connect) wire(c *codec) {
	c.str("user", &m.User, keep)
	c.str("password", &m.Password, omit)
	integer(c, "class", &m.Class, keep)
	c.float("peakRate", &m.PeakRate, keep)
	c.float("minRate", &m.MinRate, keep)
	integer(c, "floorLevel", &m.FloorLevel, keep)
	c.str("resumeToken", &m.ResumeToken, omit)
	c.str("resumeSession", &m.ResumeSession, omit)
	c.boolean("failover", &m.Failover, omit)
	pointer(c, "handoff", &m.Handoff, omit, (*HandoffTicket).wire)
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

func (m *ConnectResult) wire(c *codec) {
	c.boolean("ok", &m.OK, keep)
	c.boolean("needSubscription", &m.NeedSubscription, omit)
	c.str("sessionId", &m.SessionID, omit)
	c.float("grantedRate", &m.GrantedRate, omit)
	c.boolean("degraded", &m.Degraded, omit)
	c.str("reason", &m.Reason, omit)
	integer(c, "graceSecs", &m.GraceSecs, omit)
	c.strs("peers", &m.Peers, omit)
	c.boolean("redirect", &m.Redirect, omit)
	c.boolean("resumed", &m.Resumed, omit)
	c.boolean("sessionLost", &m.SessionLost, omit)
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

func (m *SubscriptionForm) wire(c *codec) {
	c.str("user", &m.User, keep)
	c.str("password", &m.Password, keep)
	c.str("realName", &m.RealName, keep)
	c.str("address", &m.Address, keep)
	c.str("email", &m.Email, keep)
	c.str("phone", &m.Phone, keep)
	integer(c, "class", &m.Class, keep)
}

// SubscribeResult answers a SubscriptionForm.
type SubscribeResult struct {
	OK     bool   `json:"ok"`
	Reason string `json:"reason,omitempty"`
}

func (m *SubscribeResult) wire(c *codec) {
	c.boolean("ok", &m.OK, keep)
	c.str("reason", &m.Reason, omit)
}

// TopicListRequest asks for the list of available topics/lessons.
type TopicListRequest struct{}

func (*TopicListRequest) wire(*codec) {}

// TopicInfo describes one available document.
type TopicInfo struct {
	Name        string `json:"name"`
	Title       string `json:"title"`
	Server      string `json:"server"`
	Description string `json:"description,omitempty"`
}

func (m *TopicInfo) wire(c *codec) {
	c.str("name", &m.Name, keep)
	c.str("title", &m.Title, keep)
	c.str("server", &m.Server, keep)
	c.str("description", &m.Description, omit)
}

// Topics is the contents listing.
type Topics struct {
	Topics []TopicInfo `json:"topics"`
}

func (m *Topics) wire(c *codec) {
	list(c, "topics", &m.Topics, keep, (*TopicInfo).wire)
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

func (m *Search) wire(c *codec) {
	c.str("token", &m.Token, keep)
	c.boolean("noForward", &m.NoForward, omit)
	integer(c, "searchId", &m.SearchID, omit)
}

// SearchResult lists matches.
type SearchResult struct {
	SearchID int         `json:"searchId,omitempty"`
	Hits     []TopicInfo `json:"hits"`
}

func (m *SearchResult) wire(c *codec) {
	integer(c, "searchId", &m.SearchID, omit)
	list(c, "hits", &m.Hits, keep, (*TopicInfo).wire)
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

func (m *DocRequest) wire(c *codec) {
	c.str("name", &m.Name, keep)
	integer(c, "mediaPortBase", &m.MediaPortBase, keep)
	integer(c, "windowMs", &m.WindowMS, omit)
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

func (m *StreamAnnounce) wire(c *codec) {
	c.str("streamId", &m.StreamID, keep)
	integer(c, "ssrc", &m.SSRC, keep)
	integer(c, "port", &m.Port, keep)
	integer(c, "payloadType", &m.PayloadType, keep)
	c.float("rate", &m.Rate, keep)
	integer(c, "frameIntervalUs", &m.FrameIntervalUS, keep)
	integer(c, "levels", &m.Levels, keep)
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

func (m *DocResponse) wire(c *codec) {
	c.boolean("ok", &m.OK, keep)
	c.str("name", &m.Name, omit)
	c.str("redirect", &m.Redirect, omit)
	pointer(c, "handoff", &m.Handoff, omit, (*HandoffTicket).wire)
	c.str("resumeToken", &m.ResumeToken, omit)
	integer(c, "graceSecs", &m.GraceSecs, omit)
	c.strs("peers", &m.Peers, omit)
	c.str("scenarioSrc", &m.ScenarioSrc, omit)
	list(c, "streams", &m.Streams, omit, (*StreamAnnounce).wire)
	c.str("reason", &m.Reason, omit)
}

// MediaOp addresses an interactive operation at the current document
// (pause, resume, reload) or one media stream (disable).
type MediaOp struct {
	StreamID string `json:"streamId,omitempty"`
}

func (m *MediaOp) wire(c *codec) {
	c.str("streamId", &m.StreamID, omit)
}

// Annotate attaches a user remark to the current document.
type Annotate struct {
	StreamID string `json:"streamId,omitempty"`
	Text     string `json:"text"`
}

func (m *Annotate) wire(c *codec) {
	c.str("streamId", &m.StreamID, omit)
	c.str("text", &m.Text, keep)
}

// ListAnnotations asks for the remarks attached to a document.
type ListAnnotations struct {
	Doc string `json:"doc"`
}

func (m *ListAnnotations) wire(c *codec) {
	c.str("doc", &m.Doc, keep)
}

// AnnotationRecord is one stored user remark.
type AnnotationRecord struct {
	User string `json:"user"`
	Text string `json:"text"`
	// AtUnixMilli is the remark's timestamp.
	AtUnixMilli int64 `json:"at"`
}

func (m *AnnotationRecord) wire(c *codec) {
	c.str("user", &m.User, keep)
	c.str("text", &m.Text, keep)
	integer(c, "at", &m.AtUnixMilli, keep)
}

// Annotations answers ListAnnotations.
type Annotations struct {
	Doc     string             `json:"doc"`
	Records []AnnotationRecord `json:"records"`
}

func (m *Annotations) wire(c *codec) {
	c.str("doc", &m.Doc, keep)
	list(c, "records", &m.Records, keep, (*AnnotationRecord).wire)
}

// Suspend asks the server to keep the session alive for the grace period
// while the client visits another server.
type Suspend struct{}

func (*Suspend) wire(*codec) {}

// SuspendResult grants a resume token and the grace period in seconds.
type SuspendResult struct {
	OK          bool   `json:"ok"`
	ResumeToken string `json:"resumeToken,omitempty"`
	GraceSecs   int    `json:"graceSecs,omitempty"`
}

func (m *SuspendResult) wire(c *codec) {
	c.boolean("ok", &m.OK, keep)
	c.str("resumeToken", &m.ResumeToken, omit)
	integer(c, "graceSecs", &m.GraceSecs, omit)
}

// Disconnect ends the session; the pricing primitive is informed.
type Disconnect struct {
	Reason string `json:"reason,omitempty"`
}

func (m *Disconnect) wire(c *codec) {
	c.str("reason", &m.Reason, omit)
}

// ErrorMsg reports a protocol-level failure.
type ErrorMsg struct {
	Msg string `json:"msg"`
}

func (m *ErrorMsg) wire(c *codec) {
	c.str("msg", &m.Msg, keep)
}

// Feedback wraps an RTCP receiver report travelling on the control channel
// (the client's periodic QoS feedback).
type Feedback struct {
	// RTCP is the marshaled compound RTCP payload.
	RTCP []byte `json:"rtcp"`
}

func (m *Feedback) wire(c *codec) {
	c.bytes("rtcp", &m.RTCP, keep)
}

// StatsRequest asks a server for its telemetry registry snapshot. It is
// sessionless (like TopicListRequest): monitoring must not require
// admission.
type StatsRequest struct{}

func (*StatsRequest) wire(*codec) {}

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

func (m *StatsResult) wire(c *codec) {
	c.boolean("ok", &m.OK, keep)
	c.str("server", &m.Server, omit)
	list(c, "metrics", &m.Metrics, omit, metricPointWire)
	integer(c, "traceEvents", &m.TraceEvents, omit)
	integer(c, "traceDropped", &m.TraceDropped, omit)
}

// metricPointWire lists the wire fields of obs.MetricPoint, whose package
// knows nothing of the codec.
func metricPointWire(m *obs.MetricPoint, c *codec) {
	c.str("name", &m.Name, keep)
	c.str("kind", &m.Kind, keep)
	c.float("value", &m.Value, keep)
	integer(c, "count", &m.Count, omit)
	c.float("p50_ms", &m.P50, omit)
	c.float("p95_ms", &m.P95, omit)
	c.float("p99_ms", &m.P99, omit)
	c.float("min_ms", &m.Min, omit)
	c.float("max_ms", &m.Max, omit)
}

// Heartbeat is the client's periodic liveness probe on the control channel.
type Heartbeat struct {
	SessionID string `json:"sessionId,omitempty"`
}

func (m *Heartbeat) wire(c *codec) {
	c.str("sessionId", &m.SessionID, omit)
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

func (m *HeartbeatAck) wire(c *codec) {
	c.boolean("ok", &m.OK, keep)
	c.str("sessionId", &m.SessionID, omit)
	c.strs("peers", &m.Peers, omit)
}

// headerSize is the frame header: one type byte plus a 4-byte big-endian
// request ID (0 = fire-and-forget, no reply correlation).
const headerSize = 5

// bodyOf constrains P to *M for a message body M, so that the functions
// below can take a body by value.
type bodyOf[M any] interface {
	*M
	Message
}

// EncodeReq frames a message as [type byte | 4-byte big-endian request ID |
// JSON body], in an allocation of its own. Requests carry a nonzero ID;
// replies echo it, which lets the client match replies to pending
// retransmissions and the server dedup duplicated requests.
func EncodeReq[M any, P bodyOf[M]](t MsgType, reqID uint32, body M) ([]byte, error) {
	return NewFrame(t, reqID, P(&body))
}

// MustEncodeReq is EncodeReq for bodies that cannot fail.
func MustEncodeReq[M any, P bodyOf[M]](t MsgType, reqID uint32, body M) []byte {
	b, err := NewFrame(t, reqID, P(&body))
	if err != nil {
		panic(err)
	}
	return b
}

// MustEncode is MustEncodeReq for a fire-and-forget message (request ID 0).
func MustEncode[M any, P bodyOf[M]](t MsgType, body M) []byte {
	return MustEncodeReq[M, P](t, 0, body)
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
