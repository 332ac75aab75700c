package protocol

import "fmt"

// State is one node of the application state transition diagram (Figure 4).
type State int

// Application states.
const (
	// StIdle: no connection.
	StIdle State = iota
	// StConnecting: connect request sent, awaiting authentication.
	StConnecting
	// StSubscribing: authentication found no account; the subscription
	// form is being filled.
	StSubscribing
	// StBrowsing: connected; the topic list is available.
	StBrowsing
	// StRequesting: a document request is in flight.
	StRequesting
	// StViewing: a document presentation is playing.
	StViewing
	// StPaused: presentation paused by the user.
	StPaused
	// StSuspended: the connection is parked with a grace period while
	// the user visits another server.
	StSuspended
	// StDisconnected: terminal.
	StDisconnected
)

func (s State) String() string {
	switch s {
	case StIdle:
		return "idle"
	case StConnecting:
		return "connecting"
	case StSubscribing:
		return "subscribing"
	case StBrowsing:
		return "browsing"
	case StRequesting:
		return "requesting"
	case StViewing:
		return "viewing"
	case StPaused:
		return "paused"
	case StSuspended:
		return "suspended"
	case StDisconnected:
		return "disconnected"
	default:
		return "unknown"
	}
}

// Input is a state-machine event.
type Input int

// State machine inputs.
const (
	// InConnect: user initiates connection.
	InConnect Input = iota
	// InAuthOK: authentication succeeded.
	InAuthOK
	// InAuthNeedSubscribe: user unknown, subscription required.
	InAuthNeedSubscribe
	// InAuthReject: admission or authentication refused.
	InAuthReject
	// InSubscribed: subscription form accepted.
	InSubscribed
	// InSubscribeFail: subscription refused.
	InSubscribeFail
	// InRequestDoc: user selects a document.
	InRequestDoc
	// InDocReady: scenario received, presentation starts.
	InDocReady
	// InDocFail: request failed; back to browsing.
	InDocFail
	// InRedirect: the document lives on another server: suspend here.
	InRedirect
	// InPresentationEnd: the scenario completed: back to browsing. Only the
	// client observes it; the server never learns when playout ends.
	InPresentationEnd
	// InPause / InResume: user playback control.
	InPause
	// InResume resumes a paused presentation.
	InResume
	// InReturn: the user comes back to a suspended connection within the
	// grace period.
	InReturn
	// InGraceExpired: the suspended connection's keep-alive ran out.
	InGraceExpired
	// InDisconnect: user quits.
	InDisconnect
	// InPeerLost: heartbeats went unanswered; the session is involuntarily
	// suspended while the client probes for recovery.
	InPeerLost
	// InRecover: a suspended session was resumed in place after a liveness
	// loss — straight back to viewing, the presentation continues.
	InRecover
)

func (i Input) String() string {
	names := []string{
		"connect", "auth-ok", "auth-need-subscribe", "auth-reject",
		"subscribed", "subscribe-fail", "request-doc", "doc-ready",
		"doc-fail", "redirect", "presentation-end", "pause", "resume",
		"return", "grace-expired", "disconnect", "peer-lost", "recover",
	}
	if int(i) < len(names) {
		return names[i]
	}
	return "unknown"
}

// transitions is the Figure 4 edge table.
var transitions = map[State]map[Input]State{
	StIdle: {
		InConnect: StConnecting,
	},
	StConnecting: {
		InAuthOK:            StBrowsing,
		InAuthNeedSubscribe: StSubscribing,
		InAuthReject:        StIdle,
		InDisconnect:        StIdle,
	},
	StSubscribing: {
		InSubscribed:    StBrowsing,
		InSubscribeFail: StIdle,
		InDisconnect:    StIdle,
	},
	StBrowsing: {
		InRequestDoc: StRequesting,
		InDisconnect: StDisconnected,
		InPeerLost:   StSuspended,
	},
	StRequesting: {
		InDocReady:   StViewing,
		InDocFail:    StBrowsing,
		InRedirect:   StSuspended,
		InDisconnect: StDisconnected,
		InPeerLost:   StSuspended,
	},
	StViewing: {
		InPause:           StPaused,
		InPresentationEnd: StBrowsing,
		InRequestDoc:      StRequesting,
		InRedirect:        StSuspended,
		InDisconnect:      StDisconnected,
		InPeerLost:        StSuspended,
	},
	StPaused: {
		InResume:     StViewing,
		InRequestDoc: StRequesting,
		InDisconnect: StDisconnected,
		InRedirect:   StSuspended,
		InPeerLost:   StSuspended,
	},
	StSuspended: {
		InReturn:       StBrowsing,
		InRecover:      StViewing,
		InGraceExpired: StDisconnected,
		InDisconnect:   StDisconnected,
	},
	StDisconnected: {},
}

// TransitionError reports an input illegal in the current state.
type TransitionError struct {
	From  State
	Input Input
}

func (e *TransitionError) Error() string {
	return fmt.Sprintf("protocol: input %q illegal in state %q", e.Input, e.From)
}

// Machine tracks a session through the Figure 4 state diagram. Its zero
// value is idle.
type Machine struct {
	state State
}

// Step is one edge of the diagram.
type Step struct {
	From  State
	Input Input
	To    State
}

// State returns the current state.
func (m *Machine) State() State { return m.state }

// Apply performs one transition, returning a TransitionError if the input
// is illegal in the current state.
func (m *Machine) Apply(in Input) error {
	if m.Try(in) {
		return nil
	}
	return &TransitionError{From: m.state, Input: in}
}

// Try performs the transition when the input is legal in the current state
// and reports whether it did; an illegal input leaves the state as it was.
func (m *Machine) Try(in Input) bool {
	next, ok := transitions[m.state][in]
	if ok {
		m.state = next
	}
	return ok
}

// States enumerates all states.
func States() []State {
	return []State{StIdle, StConnecting, StSubscribing, StBrowsing,
		StRequesting, StViewing, StPaused, StSuspended, StDisconnected}
}

// Inputs enumerates all inputs.
func Inputs() []Input {
	return []Input{InConnect, InAuthOK, InAuthNeedSubscribe, InAuthReject,
		InSubscribed, InSubscribeFail, InRequestDoc, InDocReady, InDocFail,
		InRedirect, InPresentationEnd, InPause, InResume, InReturn,
		InGraceExpired, InDisconnect, InPeerLost, InRecover}
}

// Edges returns the full transition table as steps, for coverage checks.
func Edges() []Step {
	var out []Step
	for _, s := range States() {
		for _, in := range Inputs() {
			if to, ok := transitions[s][in]; ok {
				out = append(out, Step{From: s, Input: in, To: to})
			}
		}
	}
	return out
}
