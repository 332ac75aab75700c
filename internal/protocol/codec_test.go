package protocol

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// bodies maps every message type to its body type.
var bodies = []struct {
	mt  MsgType
	new func() Message
}{
	{MsgConnect, func() Message { return new(Connect) }},
	{MsgConnectResult, func() Message { return new(ConnectResult) }},
	{MsgSubscribe, func() Message { return new(SubscriptionForm) }},
	{MsgSubscribeResult, func() Message { return new(SubscribeResult) }},
	{MsgTopicList, func() Message { return new(TopicListRequest) }},
	{MsgTopics, func() Message { return new(Topics) }},
	{MsgSearch, func() Message { return new(Search) }},
	{MsgSearchResult, func() Message { return new(SearchResult) }},
	{MsgDocRequest, func() Message { return new(DocRequest) }},
	{MsgDocResponse, func() Message { return new(DocResponse) }},
	{MsgPause, func() Message { return new(MediaOp) }},
	{MsgResume, func() Message { return new(MediaOp) }},
	{MsgDisableMedia, func() Message { return new(MediaOp) }},
	{MsgAnnotate, func() Message { return new(Annotate) }},
	{MsgSuspend, func() Message { return new(Suspend) }},
	{MsgSuspendResult, func() Message { return new(SuspendResult) }},
	{MsgDisconnect, func() Message { return new(Disconnect) }},
	{MsgError, func() Message { return new(ErrorMsg) }},
	{MsgFeedback, func() Message { return new(Feedback) }},
	{MsgListAnnotations, func() Message { return new(ListAnnotations) }},
	{MsgAnnotations, func() Message { return new(Annotations) }},
	{MsgStatsRequest, func() Message { return new(StatsRequest) }},
	{MsgStatsResult, func() Message { return new(StatsResult) }},
	{MsgHeartbeat, func() Message { return new(Heartbeat) }},
	{MsgHeartbeatAck, func() Message { return new(HeartbeatAck) }},
}

// String pieces the generator joins: every escape class encoding/json has,
// invalid UTF-8, astral runes, and the two runes its key folding special-
// cases (U+017F and the Kelvin sign).
var pieces = []string{
	"", "a", "user-v0001", `<>&"\`, "/", "\x00\x01\x1f", "\b\f\n\r\t", "\x7f",
	"\u2028\u2029", "\xff", "\xe2\x80", "\xed\xa0\x80", "\U0001F600", "\u00e9 \u00fc",
	"\ufffd", "\u017f\u212a", "\\u0041", "null",
}

var floats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 1e-6, 9.99e-7, 1e-7, 5e-324, 1e20,
	1e21, -1e21, 123.456, -2.5e6, 1.5e6, math.MaxFloat64, -1e-9, 1e300,
}

// fill sets v to a random value, with zero values, nil against empty
// slices and nil pointers all likely.
func fill(r *rand.Rand, v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		var b strings.Builder
		for n := r.Intn(4); n > 0; n-- {
			b.WriteString(pieces[r.Intn(len(pieces))])
		}
		v.SetString(b.String())
	case reflect.Bool:
		v.SetBool(r.Intn(2) == 0)
	case reflect.Int, reflect.Int64:
		lim := []int64{0, 1, -1, math.MaxInt64, math.MinInt64, r.Int63(), -r.Int63n(1e6)}
		v.SetInt(lim[r.Intn(len(lim))])
	case reflect.Uint8, reflect.Uint32:
		v.SetUint(r.Uint64() >> (64 - v.Type().Bits()))
	case reflect.Float64:
		f := floats[r.Intn(len(floats))]
		if r.Intn(3) == 0 {
			f = r.NormFloat64() * math.Pow(10, float64(r.Intn(60)-30))
		}
		v.SetFloat(f)
	case reflect.Slice:
		switch r.Intn(3) {
		case 0: // nil
		case 1:
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
		default:
			n := 1 + r.Intn(3)
			if v.Type().Elem().Kind() == reflect.Uint8 {
				n = r.Intn(40)
			}
			v.Set(reflect.MakeSlice(v.Type(), n, n))
			for i := 0; i < n; i++ {
				fill(r, v.Index(i))
			}
		}
	case reflect.Pointer:
		if r.Intn(2) == 0 {
			v.Set(reflect.New(v.Type().Elem()))
			fill(r, v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if r.Intn(3) > 0 {
				fill(r, v.Field(i))
			}
		}
	default:
		panic("fill: no generator for " + v.Type().String())
	}
}

func sample(r *rand.Rand, i int) Message {
	m := bodies[i].new()
	fill(r, reflect.ValueOf(m).Elem())
	return m
}

// TestCodecMatchesEncodingJSON holds the codec to encoding/json on random
// values of every message type: the same body bytes, and the same value
// decoded from them, in struct order or not.
func TestCodecMatchesEncodingJSON(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i, b := range bodies {
		for n := 0; n < 400; n++ {
			m := sample(r, i)
			want, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			frame, err := NewFrame(b.mt, uint32(n), m)
			if err != nil {
				t.Fatalf("%s %+v: %v", b.mt, m, err)
			}
			mt, reqID, body, _ := DecodeReq(frame)
			if mt != b.mt || reqID != uint32(n) || !bytes.Equal(body, want) {
				t.Fatalf("%s frame\n got %s\nwant %s", b.mt, body, want)
			}
			// The same body with its keys sorted, so out of struct order.
			var byKey map[string]json.RawMessage
			if err := json.Unmarshal(body, &byKey); err != nil {
				t.Fatal(err)
			}
			sorted, err := json.Marshal(byKey)
			if err != nil {
				t.Fatal(err)
			}
			for _, in := range [][]byte{body, sorted} {
				got, oracle := b.new(), b.new()
				if err := DecodeBody(in, got); err != nil {
					t.Fatalf("%s %s: %v", b.mt, in, err)
				}
				if err := json.Unmarshal(in, oracle); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, oracle) {
					t.Fatalf("%s %s decoded\n got %#v\nwant %#v", b.mt, in, got, oracle)
				}
			}
		}
	}
}

// TestDecodeErrors: the decoder refuses what encoding/json refuses, and a
// few things it accepts but a peer never sends.
func TestDecodeErrors(t *testing.T) {
	if _, _, err := Decode(nil); err == nil {
		t.Fatal("empty decode accepted")
	}
	for _, body := range []string{
		`{bad json`, ``, `null`, `[]`, `{"user":"u"`, `{"user":"u"}x`,
		// numbers encoding/json refuses
		`{"floorLevel":01}`, `{"floorLevel":+1}`, `{"peakRate":.5}`, `{"peakRate":1.}`,
		`{"peakRate":0x10}`, `{"peakRate":1e}`, `{"peakRate":-}`, `{"peakRate":1e400}`,
		`{"floorLevel":1.0}`, `{"floorLevel":1e2}`, `{"floorLevel":99999999999999999999}`,
		`{"peakRate":NaN}`, `{"peakRate":"1"}`, `{"failover":1}`, `{"class":-9223372036854775809}`,
		// bad strings
		`{"user":"\ud800"}`, `{"user":"\udc00\ud800"}`, `{"user":"\ud800A"}`,
		`{"user":"\x"}`, `{"user":"\u12"}`, "{\"user\":\"\x01\"}", "{\"user\":\"\xff\"}",
		`{"user":"unterminated}`,
		// accepted by encoding/json, never sent by a peer of this build
		`{"user":"a","user":"b"}`, `{"User":"u"}`, `{"nope":1}`, `{ "user":"u"}`,
	} {
		var c Connect
		if err := DecodeBody([]byte(body), &c); err == nil {
			t.Errorf("%s accepted as %+v", body, c)
		}
	}
	for _, body := range []string{
		`{"ssrc":-1}`, `{"ssrc":4294967296}`, `{"payloadType":256}`, `{"payloadType":-0}`,
	} {
		var s StreamAnnounce
		if err := DecodeBody([]byte(body), &s); err == nil {
			t.Errorf("%s accepted as %+v", body, s)
		}
		if json.Unmarshal([]byte(body), &s) == nil {
			t.Errorf("oracle accepts %s", body)
		}
	}
}

// TestCodecAllocs: a fire-and-forget frame appended into the caller's
// buffer allocates nothing, a kept frame is one allocation, and decoding
// allocates only the strings and the slice it returns.
func TestCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool deliberately drops items under -race; allocation bounds don't hold")
	}
	hb := &Heartbeat{SessionID: "srv1-sess-1"}
	ack := &HeartbeatAck{OK: true, SessionID: "srv1-sess-1", Peers: []string{"srv2", "srv3"}}
	buf := make([]byte, 0, 256)
	for _, c := range []struct {
		mt MsgType
		m  Message
	}{{MsgHeartbeat, hb}, {MsgHeartbeatAck, ack}} {
		if n := testing.AllocsPerRun(100, func() { buf, _ = AppendFrame(buf[:0], c.mt, 0, c.m) }); n != 0 {
			t.Errorf("AppendFrame %s: %v allocations, want 0", c.mt, n)
		}
		if n := testing.AllocsPerRun(100, func() { buf, _ = NewFrame(c.mt, 1, c.m) }); n != 1 {
			t.Errorf("NewFrame %s: %v allocations, want 1", c.mt, n)
		}
	}
	hbBody := MustEncode(MsgHeartbeat, *hb)[headerSize:]
	var gotHB Heartbeat
	if n := testing.AllocsPerRun(100, func() {
		gotHB = Heartbeat{}
		_ = DecodeBody(hbBody, &gotHB)
	}); n > 1 || gotHB != *hb {
		t.Errorf("decode Heartbeat: %v allocations, want 1 string; got %+v", n, gotHB)
	}
	ackBody := MustEncode(MsgHeartbeatAck, *ack)[headerSize:]
	var gotAck HeartbeatAck
	if n := testing.AllocsPerRun(100, func() {
		gotAck = HeartbeatAck{}
		_ = DecodeBody(ackBody, &gotAck)
	}); n > 4 || !reflect.DeepEqual(&gotAck, ack) {
		t.Errorf("decode HeartbeatAck: %v allocations, want 3 strings and 1 slice; got %+v", n, gotAck)
	}
}

// BenchmarkCodec times the messages of the control plane's hot path.
func BenchmarkCodec(b *testing.B) {
	for _, c := range []struct {
		mt MsgType
		m  Message
	}{
		{MsgConnect, &Connect{User: "user-v0001", Password: "pw", PeakRate: 1.5e6, MinRate: 3e5}},
		{MsgConnectResult, &ConnectResult{OK: true, SessionID: "srv1-sess-1", GrantedRate: 1.5e6, GraceSecs: 30, Peers: []string{"srv2"}}},
		{MsgTopics, &Topics{Topics: []TopicInfo{{Name: "sync-basics", Title: "Synchronisation", Server: "srv1"}, {Name: "hml-intro", Title: "HML", Server: "srv1"}}}},
		{MsgHeartbeat, &Heartbeat{SessionID: "srv1-sess-1"}},
		{MsgHeartbeatAck, &HeartbeatAck{OK: true, SessionID: "srv1-sess-1", Peers: []string{"srv2", "srv3"}}},
	} {
		frame, err := NewFrame(c.mt, 7, c.m)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("encode-"+c.mt.String(), func(b *testing.B) {
			b.ReportAllocs()
			buf := make([]byte, 0, 512)
			for i := 0; i < b.N; i++ {
				buf, _ = AppendFrame(buf[:0], c.mt, 7, c.m)
			}
		})
		b.Run("decode-"+c.mt.String(), func(b *testing.B) {
			b.ReportAllocs()
			out := reflect.New(reflect.TypeOf(c.m).Elem())
			for i := 0; i < b.N; i++ {
				out.Elem().SetZero()
				if err := DecodeBody(frame[headerSize:], out.Interface().(Message)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// FuzzDecodeBody feeds arbitrary bodies to every message type's decoder.
// It must not panic, and whatever it accepts encoding/json must accept as
// the same value, which must re-encode to what json.Marshal writes.
func FuzzDecodeBody(f *testing.F) {
	r := rand.New(rand.NewSource(2))
	for i := range bodies {
		for n := 0; n < 3; n++ {
			body, err := json.Marshal(sample(r, i))
			if err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(i), body)
		}
	}
	// Hand-written media-op bodies the generator never writes: JSON null,
	// a key given twice inside surrounding whitespace, and a body cut short.
	var pause uint8
	for i, b := range bodies {
		if b.mt == MsgPause {
			pause = uint8(i)
		}
	}
	for _, body := range []string{`null`, " {\"streamId\":\"a\",\"streamId\":\"b\"}\n", `{"streamId":"a"`} {
		f.Add(pause, []byte(body))
	}
	f.Fuzz(func(t *testing.T, kind uint8, body []byte) {
		b := bodies[int(kind)%len(bodies)]
		got := b.new()
		if DecodeBody(body, got) != nil {
			return
		}
		oracle := b.new()
		if err := json.Unmarshal(body, oracle); err != nil {
			t.Fatalf("%s %q accepted, oracle refuses: %v", b.mt, body, err)
		}
		if !reflect.DeepEqual(got, oracle) {
			t.Fatalf("%s %q decoded\n got %#v\nwant %#v", b.mt, body, got, oracle)
		}
		want, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		frame, err := AppendFrame(nil, b.mt, 0, got)
		if err != nil || !bytes.Equal(frame[headerSize:], want) {
			t.Fatalf("%s re-encoded\n got %s (%v)\nwant %s", b.mt, frame[headerSize:], err, want)
		}
	})
}

// TestCodecConcurrent: the pooled codecs are shared by every goroutine that
// encodes or decodes, as the live transport's are.
func TestCodecConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for n := 0; n < 200; n++ {
				i := r.Intn(len(bodies))
				m := sample(r, i)
				frame, err := NewFrame(bodies[i].mt, 0, m)
				if err != nil {
					t.Error(err)
					return
				}
				want, _ := json.Marshal(m)
				got := bodies[i].new()
				if !bytes.Equal(frame[headerSize:], want) || DecodeBody(frame[headerSize:], got) != nil {
					t.Errorf("%s: %s does not round-trip", bodies[i].mt, frame[headerSize:])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
