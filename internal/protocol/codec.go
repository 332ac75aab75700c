package protocol

// The control codec: a hand-written JSON encoder and decoder that writes
// exactly the bytes encoding/json writes for the same struct tags, and reads
// a subset of what encoding/json reads into the same values (the equivalence
// test and FuzzDecodeBody hold it to both, with encoding/json as the
// oracle). Each body type lists its wire fields once, in its wire method.
// Encoding walks that list once, writing each field. Decoding walks it
// offering each field the pending key: the field it names takes the value,
// and the next field reads the next key. Keys in struct order, as this
// codec writes them, take one walk; a key the walk has passed starts
// another from the top.
//
// The decoder is strict where a peer of this build never strays: keys must
// match a field name exactly and appear at most once, no whitespace is
// allowed between tokens, strings must be valid UTF-8 with well-formed
// surrogate escapes, and a null leaves the field as it was.

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// Message is a control message body.
type Message interface {
	wire(c *codec)
}

// The omit argument of every field helper: keep always writes the field,
// omit leaves out its zero value, as the `omitempty` tag option does.
const (
	keep = false
	omit = true
)

// codec is the state of one encode or decode. Codecs are pooled, because
// every walk hands one to a field list called through a func value, where
// escape analysis loses it.
type codec struct {
	dec bool
	buf []byte // encoding: the frame so far
	own []byte // a scratch buffer the codec keeps across uses

	in   []byte // decoding: the body
	pos  int
	key  []byte // decoding: the pending key, nil once a field took it
	end  bool   // decoding: the current object's closing brace is read
	n    int    // decoding: position of the field being offered in the walk
	seen uint32 // decoding: the fields of the current object already set
	err  error
}

var codecs = sync.Pool{New: func() any { return new(codec) }}

func getCodec() *codec { return codecs.Get().(*codec) }

func putCodec(c *codec) {
	*c = codec{own: c.own[:0]}
	codecs.Put(c)
}

// WriteFrame encodes the fire-and-forget frame (request ID 0) of m into
// scratch the codec keeps, grown to the largest frame it has held, and
// hands it to write, which must not keep it past its return: the form of a
// frame that is sent once and dropped.
func WriteFrame(t MsgType, m Message, write func(frame []byte)) error {
	c := getCodec()
	c.buf = c.own
	err := c.frame(t, 0, m)
	if err == nil {
		write(c.buf)
	}
	c.own = c.buf
	putCodec(c)
	return err
}

// WriteReply hands write the reply frame to request reqID: frame, a kept
// request-ID-0 frame as NewFrame(t, 0, m) returns, with reqID written into
// its header. A nonzero reqID is written into a copy in scratch the codec
// keeps, so one kept frame answers any number of requests; write must not
// keep what it is handed past its return.
func WriteReply(frame []byte, reqID uint32, write func(frame []byte)) {
	if reqID == 0 {
		write(frame)
		return
	}
	c := getCodec()
	c.own = append(c.own[:0], frame...)
	binary.BigEndian.PutUint32(c.own[1:headerSize], reqID)
	write(c.own)
	putCodec(c)
}

// NewFrame returns the frame in an allocation of its own, exactly its
// size: the form of a frame that is kept, such as a retransmit copy or a
// cached reply.
func NewFrame(t MsgType, reqID uint32, m Message) ([]byte, error) {
	c := getCodec()
	c.buf = c.own
	err := c.frame(t, reqID, m)
	var out []byte
	if err == nil {
		out = make([]byte, len(c.buf))
		copy(out, c.buf)
	}
	c.own = c.buf
	putCodec(c)
	return out, err
}

func (c *codec) frame(t MsgType, reqID uint32, m Message) error {
	c.buf = binary.BigEndian.AppendUint32(append(c.buf, byte(t)), reqID)
	c.message(m)
	if c.err != nil {
		return fmt.Errorf("protocol: encode %s: %w", t, c.err)
	}
	return nil
}

// DecodeBody decodes a message body into m, which should be a zero value:
// a field the body leaves out or sets to null keeps what m held.
func DecodeBody(body []byte, m Message) error {
	c := getCodec()
	c.dec, c.in = true, body
	c.message(m)
	if c.err == nil && c.pos != len(body) {
		c.fail("trailing bytes")
	}
	err := c.err
	putCodec(c)
	if err != nil {
		return fmt.Errorf("protocol: decode body: %w", err)
	}
	return nil
}

// fail records the first error of the walk; later steps see c.err and
// stop.
func (c *codec) fail(what string) {
	if c.err == nil {
		c.err = fmt.Errorf("%s at offset %d", what, c.pos)
	}
}

// field starts one field of the walk. Encoding, it reports whether to
// write the field, having written its key. Decoding, it reports whether
// the pending key names it and the value is not null.
func (c *codec) field(name string, empty, omitEmpty bool) bool {
	if c.dec {
		c.n++
		if c.key == nil {
			c.advance()
		}
		if c.key == nil || string(c.key) != name {
			return false
		}
		c.key = nil
		if c.seen&(1<<c.n) != 0 {
			c.fail("duplicate key " + name)
			return false
		}
		c.seen |= 1 << c.n
		return !c.lit("null")
	}
	if empty && omitEmpty {
		return false
	}
	if c.buf[len(c.buf)-1] != '{' {
		c.buf = append(c.buf, ',')
	}
	c.buf = append(append(append(c.buf, '"'), name...), '"', ':')
	return true
}

// message walks m's fields through its concrete type: every type with a
// wire method, the bodies and the objects they nest. Calling m.wire through
// the interface would move every message handed to the codec to the heap,
// and escape analysis does not follow control flow, so no branch here may
// make that call, not even a fallback: a type missing from the switch
// panics instead, which TestCodecMatchesEncodingJSON and FuzzDecodeBody,
// taking every body type, catch.
func (c *codec) message(m Message) {
	switch m := m.(type) {
	case *Connect:
		c.object(m.wire)
	case *ConnectResult:
		c.object(m.wire)
	case *SubscriptionForm:
		c.object(m.wire)
	case *SubscribeResult:
		c.object(m.wire)
	case *TopicListRequest:
		c.object(m.wire)
	case *Topics:
		c.object(m.wire)
	case *Search:
		c.object(m.wire)
	case *SearchResult:
		c.object(m.wire)
	case *DocRequest:
		c.object(m.wire)
	case *DocResponse:
		c.object(m.wire)
	case *MediaOp:
		c.object(m.wire)
	case *Annotate:
		c.object(m.wire)
	case *ListAnnotations:
		c.object(m.wire)
	case *Annotations:
		c.object(m.wire)
	case *Suspend:
		c.object(m.wire)
	case *SuspendResult:
		c.object(m.wire)
	case *Disconnect:
		c.object(m.wire)
	case *ErrorMsg:
		c.object(m.wire)
	case *Feedback:
		c.object(m.wire)
	case *StatsRequest:
		c.object(m.wire)
	case *StatsResult:
		c.object(m.wire)
	case *Heartbeat:
		c.object(m.wire)
	case *HeartbeatAck:
		c.object(m.wire)
	case *TopicInfo:
		c.object(m.wire)
	case *StreamAnnounce:
		c.object(m.wire)
	case *AnnotationRecord:
		c.object(m.wire)
	case *HandoffTicket:
		c.object(m.wire)
	default:
		panic("protocol: a wire type missing from codec.message") // naming m's type would leak it too
	}
}

// object writes or reads one JSON object, walking its fields.
func (c *codec) object(fields func(*codec)) {
	if !c.dec {
		c.buf = append(c.buf, '{')
		fields(c)
		c.buf = append(c.buf, '}')
		return
	}
	end, n, seen := c.end, c.n, c.seen
	c.end, c.seen = !c.expect('{') || c.eat('}'), 0
	if !c.end {
		c.readKey()
	}
	for c.err == nil && !c.end {
		before := c.seen
		c.n = 0
		fields(c)
		if c.key == nil {
			c.advance()
		} else if c.seen == before {
			c.fail("unknown key " + strconv.Quote(string(c.key)))
		}
	}
	c.end, c.n, c.seen = end, n, seen
}

// advance moves past a decoded value to the object's next key, or its end.
func (c *codec) advance() {
	switch {
	case c.end || c.err != nil:
	case c.eat(','):
		c.readKey()
	default:
		c.end = c.expect('}')
	}
}

// next steps to element i of an array, reporting false at its end or on an
// error.
func (c *codec) next(i int) bool {
	if c.err != nil || i == 0 && !c.expect('[') || c.eat(']') {
		return false
	}
	return i == 0 || c.expect(',')
}

// elems counts the elements of the array that opens at in[pos], so that
// its slice is made once, at its final size. It skips strings and nested
// values, and stops at the array's end or the body's. On a well-formed array
// the count is exact; on any input it is at most what the bytes from pos
// could hold, one byte and a comma per element.
func elems(in []byte, pos int) int {
	if pos+1 >= len(in) || in[pos] != '[' || in[pos+1] == ']' {
		return 0
	}
	n, depth := 1, 0
scan:
	for i := pos; i < len(in); i++ {
		switch in[i] {
		case '"':
			for i++; i < len(in) && in[i] != '"'; i++ {
				if in[i] == '\\' {
					i++
				}
			}
		case '[', '{':
			depth++
		case ']', '}':
			if depth--; depth == 0 {
				break scan
			}
		case ',':
			if depth == 1 {
				n++
			}
		}
	}
	return min(n, (len(in)-pos)/2)
}

// list writes or reads a slice of objects.
func list[T any](c *codec, name string, p *[]T, omitEmpty bool, fields func(*T, *codec)) {
	if !c.field(name, len(*p) == 0, omitEmpty) {
		return
	}
	if c.dec {
		s := make([]T, 0, elems(c.in, c.pos))
		for i := 0; c.next(i); i++ {
			var zero T
			s = append(s, zero)
			c.object(func(c *codec) { fields(&s[i], c) })
		}
		*p = s
		return
	}
	if *p == nil {
		c.buf = append(c.buf, "null"...)
		return
	}
	c.buf = append(c.buf, '[')
	for i := range *p {
		if i > 0 {
			c.buf = append(c.buf, ',')
		}
		c.object(func(c *codec) { fields(&(*p)[i], c) })
	}
	c.buf = append(c.buf, ']')
}

// pointer writes or reads an optional object.
func pointer[T any](c *codec, name string, p **T, omitEmpty bool, fields func(*T, *codec)) {
	if !c.field(name, *p == nil, omitEmpty) {
		return
	}
	switch {
	case c.dec:
		v := new(T)
		c.object(func(c *codec) { fields(v, c) })
		*p = v
	case *p == nil:
		c.buf = append(c.buf, "null"...)
	default:
		c.object(func(c *codec) { fields(*p, c) })
	}
}

func (c *codec) str(name string, p *string, omitEmpty bool) {
	if !c.field(name, *p == "", omitEmpty) {
		return
	}
	if c.dec {
		*p = string(c.unquote())
	} else {
		c.quote(*p)
	}
}

func (c *codec) boolean(name string, p *bool, omitEmpty bool) {
	if !c.field(name, !*p, omitEmpty) {
		return
	}
	switch {
	case !c.dec && *p:
		c.buf = append(c.buf, "true"...)
	case !c.dec:
		c.buf = append(c.buf, "false"...)
	case c.lit("true"):
		*p = true
	case c.lit("false"):
		*p = false
	default:
		c.fail("want a boolean")
	}
}

// integer writes or reads an integer field. Like encoding/json it refuses
// a fraction, an exponent, a sign on an unsigned field and overflow.
func integer[T ~int | ~int64 | ~uint32 | ~uint8](c *codec, name string, p *T, omitEmpty bool) {
	if !c.field(name, *p == 0, omitEmpty) {
		return
	}
	signed := ^T(0) < 0
	if !c.dec {
		if signed {
			c.buf = strconv.AppendInt(c.buf, int64(*p), 10)
		} else {
			c.buf = strconv.AppendUint(c.buf, uint64(*p), 10)
		}
		return
	}
	lit := c.number()
	if signed {
		v, err := strconv.ParseInt(string(lit), 10, 64)
		if err != nil || int64(T(v)) != v {
			c.fail("want an integer")
			return
		}
		*p = T(v)
	} else {
		v, err := strconv.ParseUint(string(lit), 10, 64)
		if err != nil || uint64(T(v)) != v {
			c.fail("want an unsigned integer")
			return
		}
		*p = T(v)
	}
}

// float writes a float64 as encoding/json does: 'f' format, 'e' below 1e-6
// or from 1e21 up, with a two-digit negative exponent trimmed to one.
func (c *codec) float(name string, p *float64, omitEmpty bool) {
	if !c.field(name, *p == 0, omitEmpty) {
		return
	}
	if c.dec {
		v, err := strconv.ParseFloat(string(c.number()), 64)
		if err != nil {
			c.fail("want a number")
			return
		}
		*p = v
		return
	}
	f := *p
	if math.IsNaN(f) || math.IsInf(f, 0) {
		c.fail("unsupported value " + strconv.FormatFloat(f, 'g', -1, 64))
		return
	}
	format := byte('f')
	if a := math.Abs(f); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(c.buf, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	c.buf = b
}

// bytes writes or reads a []byte as a standard base64 string.
func (c *codec) bytes(name string, p *[]byte, omitEmpty bool) {
	if !c.field(name, len(*p) == 0, omitEmpty) {
		return
	}
	switch {
	case c.dec:
		s := c.unquote()
		b := make([]byte, base64.StdEncoding.DecodedLen(len(s)))
		n, err := base64.StdEncoding.Decode(b, s)
		if err != nil {
			c.fail("bad base64")
			return
		}
		*p = b[:n]
	case *p == nil:
		c.buf = append(c.buf, "null"...)
	default:
		c.buf = append(base64.StdEncoding.AppendEncode(append(c.buf, '"'), *p), '"')
	}
}

func (c *codec) strs(name string, p *[]string, omitEmpty bool) {
	if !c.field(name, len(*p) == 0, omitEmpty) {
		return
	}
	if c.dec {
		s := make([]string, 0, elems(c.in, c.pos))
		for i := 0; c.next(i); i++ {
			s = append(s, string(c.unquote()))
		}
		*p = s
		return
	}
	if *p == nil {
		c.buf = append(c.buf, "null"...)
		return
	}
	c.buf = append(c.buf, '[')
	for i, s := range *p {
		if i > 0 {
			c.buf = append(c.buf, ',')
		}
		c.quote(s)
	}
	c.buf = append(c.buf, ']')
}

// The characters with a short escape, and the letter of each, in the same
// order; '/' is read escaped but not written so.
const (
	shortEscaped = "\"\\\b\f\n\r\t/"
	shortEscapes = `"\bfnrt/`
	hexDigits    = "0123456789abcdef"
)

// quote writes s as encoding/json does with HTML escaping on: <, > and &
// become \u escapes, as do U+2028, U+2029 and control bytes without a
// short escape; invalid UTF-8 becomes \ufffd.
func (c *codec) quote(s string) {
	b := append(c.buf, '"')
	start := 0
	for i := 0; i < len(s); {
		x := s[i]
		if x < utf8.RuneSelf {
			if x >= ' ' && x != '"' && x != '\\' && x != '<' && x != '>' && x != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			if k := strings.IndexByte(shortEscaped, x); k >= 0 {
				b = append(b, '\\', shortEscapes[k])
			} else {
				b = append(b, '\\', 'u', '0', '0', hexDigits[x>>4], hexDigits[x&0xF])
			}
			i++
			start = i
			continue
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && n == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += n
			continue
		}
		i += n
		start = i
	}
	c.buf = append(append(b, s[start:]...), '"')
}

// unquote reads a JSON string: a slice of the input when it holds no
// escape, else a fresh buffer.
func (c *codec) unquote() []byte {
	if !c.expect('"') {
		return nil
	}
	in := c.in
	start, mark := c.pos, c.pos // in[mark:i] is not yet copied to out
	var out []byte
	for i := start; i < len(in); {
		switch x := in[i]; {
		case x == '"':
			c.pos = i + 1
			if out == nil {
				return in[start:i]
			}
			return append(out, in[mark:i]...)
		case x < ' ':
			c.pos = i
			c.fail("control byte in string")
			return nil
		case x < utf8.RuneSelf && x != '\\':
			i++
		case x != '\\':
			r, n := utf8.DecodeRune(in[i:])
			if r == utf8.RuneError && n == 1 {
				c.pos = i
				c.fail("invalid UTF-8 in string")
				return nil
			}
			i += n
		default:
			if out == nil {
				out = make([]byte, 0, len(in)-start)
			}
			out = append(out, in[mark:i]...)
			var ok bool
			out, i, ok = unescape(out, in, i)
			if !ok {
				c.pos = i
				c.fail("bad escape in string")
				return nil
			}
			mark = i
		}
	}
	c.pos = len(in)
	c.fail("unterminated string")
	return nil
}

// unescape appends the character of the escape at in[i] to out and
// returns the index after it. A \u surrogate must be followed by its pair.
func unescape(out, in []byte, i int) ([]byte, int, bool) {
	if i+1 >= len(in) {
		return out, i, false
	}
	if k := strings.IndexByte(shortEscapes, in[i+1]); k >= 0 {
		return append(out, shortEscaped[k]), i + 2, true
	}
	if in[i+1] != 'u' {
		return out, i, false
	}
	r := hex4(in, i+2)
	i += 6
	if utf16.IsSurrogate(r) {
		r2 := rune(-1)
		if i+1 < len(in) && in[i] == '\\' && in[i+1] == 'u' {
			r2 = hex4(in, i+2)
		}
		if r = utf16.DecodeRune(r, r2); r == utf8.RuneError {
			return out, i, false
		}
		i += 6
	}
	if r < 0 {
		return out, i, false
	}
	return utf8.AppendRune(out, r), i, true
}

// hex4 reads the four hex digits at in[i:], or returns -1.
func hex4(in []byte, i int) rune {
	if i+4 > len(in) {
		return -1
	}
	r, err := strconv.ParseUint(string(in[i:i+4]), 16, 16)
	if err != nil {
		return -1
	}
	return rune(r)
}

// readKey reads an object key and its colon into c.key. Field names are
// plain ASCII, so a key with an escape in it can match none and is
// refused.
func (c *codec) readKey() {
	if !c.expect('"') {
		return
	}
	for i := c.pos; i < len(c.in); i++ {
		switch x := c.in[i]; {
		case x == '"':
			c.key = c.in[c.pos:i]
			c.pos = i + 1
			c.expect(':')
			return
		case x == '\\' || x < ' ':
			c.pos = i
			c.fail("unsupported key")
			return
		}
	}
	c.fail("unterminated key")
}

// number reads a literal of JSON's number grammar, refusing what
// encoding/json refuses: a leading zero or plus, a bare or trailing dot,
// hex.
func (c *codec) number() []byte {
	in, i := c.in, c.pos
	if i < len(in) && in[i] == '-' {
		i++
	}
	d := digits(in, i)
	ok := d > i && (in[i] != '0' || d == i+1)
	if i = d; ok && i < len(in) && in[i] == '.' {
		d = digits(in, i+1)
		ok, i = d > i+1, d
	}
	if ok && i < len(in) && in[i]|0x20 == 'e' {
		if i++; i < len(in) && (in[i] == '+' || in[i] == '-') {
			i++
		}
		d = digits(in, i)
		ok, i = d > i, d
	}
	if !ok {
		c.fail("want a number")
		return nil
	}
	lit := in[c.pos:i]
	c.pos = i
	return lit
}

func digits(in []byte, i int) int {
	for i < len(in) && '0' <= in[i] && in[i] <= '9' {
		i++
	}
	return i
}

// lit consumes s if the input continues with it.
func (c *codec) lit(s string) bool {
	if c.err != nil || len(c.in)-c.pos < len(s) || string(c.in[c.pos:c.pos+len(s)]) != s {
		return false
	}
	c.pos += len(s)
	return true
}

// eat consumes the byte b if the input continues with it.
func (c *codec) eat(b byte) bool {
	if c.err == nil && c.pos < len(c.in) && c.in[c.pos] == b {
		c.pos++
		return true
	}
	return false
}

// expect consumes the byte b, failing the walk if the input has another.
func (c *codec) expect(b byte) bool {
	if c.eat(b) {
		return true
	}
	c.fail("want " + strconv.QuoteRune(rune(b)))
	return false
}
