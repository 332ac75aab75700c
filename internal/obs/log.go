package obs

import (
	"encoding/binary"
	"sync"
)

// Entry is one record of a Log: a stream, two kinds and a flag, a note and
// six numerics. Each entry is encoded against a prediction: the last entry
// of its stream in the same chunk, or for a stream's first entry there the
// chunk's previous entry. The prediction is the same kinds, flag, note,
// Num[3], Num[4] and Num[5], Num[2] one higher, and Num[0] and Num[1] one
// more step of the size they last moved in the stream (none at its first
// entry). So a schema puts times that advance at a pace in Num[0] and
// Num[1], a counter in Num[2] and values that tend to repeat in Num[3:].
type Entry struct {
	Stream    string
	Kind, Sub int64
	Flag      bool
	Note      string
	Num       [numerics]int64
}

// Log is the one event log: the display trace, the session trace and the
// flight recorder's window are each a Log under their own schema. Its
// chunks of chunkSize bytes, each allocated whole when the one before is
// full, decode on their own: the predictions restart in each, and a string
// is written inline the first time a chunk names it and by chunk-local
// index after that. An entry is encoded whole into one chunk as:
//   - the stream's string reference;
//   - a header byte with one bit per field that differs from the
//     prediction;
//   - only those fields, in bit order: the kinds as one byte (Kind in bits
//     0–3, Sub in bits 4–6, the flag in bit 7; a Kind outside 0–14 or a Sub
//     outside 0–6 sets both fields to all ones and follows the byte with
//     both as varints), the note's string reference, and each numeric as a
//     varint delta from its prediction.
//
// A string reference is a uvarint index into the chunk's streams or notes,
// 0 being ""; the next unused index introduces a string, whose length and
// bytes follow. Deltas wrap in int64 arithmetic, so every value round-trips
// exactly. An entry that keeps its stream's prediction is two bytes.
//
// A bounded log shows exactly its last limit entries and frees its oldest
// chunk, strings included, once the chunks after it hold limit entries,
// for its next chunk to reuse. The zero Log is empty, unbounded and takes
// no space. A Log is safe for concurrent use.
type Log struct {
	mu     sync.Mutex
	chunks []chunk // oldest first; the last one is open
	limit  int     // entries shown, 0 for all
	held   int     // entries in chunks
	n      int     // entries ever appended
	spare  []byte  // a freed chunk's bytes

	// The open chunk's encoder state: each string's index among its streams
	// and notes (0 for none), how many of each, and the streams' predictions.
	ids   map[string][2]uint32
	named [2]uint32
	last  []prediction
	prev  int // the stream index of the chunk's last entry, -1 for none
}

type chunk struct {
	b []byte
	n int // entries
}

// prediction is a stream's last entry in a chunk and the steps Num[0] and
// Num[1] last moved by: what its next entry is encoded against.
type prediction struct {
	kind, sub  int64
	flag, seen bool // seen: the stream has an entry in the chunk
	note       uint32
	num        [numerics]int64
	step       [2]int64
}

// The header bits, set for each field that differs from the prediction;
// numeric i takes bit predNumeric<<i.
const (
	predKinds = 1 << iota
	predNote
	predNumeric
)

const (
	numerics  = 6
	chunkSize = 4 << 10
	// maxEntryLen bounds one encoded entry besides its strings' bytes: two
	// string references with their lengths, the header, the kinds byte and
	// escaped kinds, and six numerics.
	maxEntryLen = 2*(binary.MaxVarintLen32+binary.MaxVarintLen64) + 2 + 2*binary.MaxVarintLen64 + numerics*binary.MaxVarintLen64
	// escKinds marks kinds that follow the kinds byte as varints.
	escKinds = 0x7f
)

// predictionOf returns the prediction for stream in a chunk whose last entry
// was of stream prev (-1 for none), starting it when the stream is new.
func predictionOf(preds *[]prediction, stream uint32, prev int) *prediction {
	for int(stream) >= len(*preds) {
		*preds = append(*preds, prediction{})
	}
	p := &(*preds)[stream]
	if !p.seen && prev >= 0 {
		*p = (*preds)[prev]
		p.step = [2]int64{}
	}
	p.seen = true
	return p
}

// predicted returns the numerics the stream's next entry is predicted to have.
func (p *prediction) predicted() [numerics]int64 {
	num := p.num
	num[0], num[1], num[2] = num[0]+p.step[0], num[1]+p.step[1], num[2]+1
	return num
}

// advance makes num the stream's last numerics.
func (p *prediction) advance(num [numerics]int64) {
	p.step = [2]int64{num[0] - p.num[0], num[1] - p.num[1]}
	p.num = num
}

// Append records one entry.
func (l *Log) Append(e *Entry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.chunks); n == 0 || len(l.chunks[n-1].b) > 0 && len(l.chunks[n-1].b)+maxEntryLen+len(e.Stream)+len(e.Note) > chunkSize {
		if l.spare == nil {
			l.spare = make([]byte, 0, chunkSize)
		}
		l.chunks, l.spare = append(l.chunks, chunk{b: l.spare}), nil
		clear(l.ids)
		l.named, l.last, l.prev = [2]uint32{}, l.last[:0], -1
	}
	stream, newStream := l.internLocked(0, e.Stream)
	note, newNote := l.internLocked(1, e.Note)
	p := predictionOf(&l.last, stream, l.prev)
	l.prev = int(stream)
	var h byte
	if e.Kind != p.kind || e.Sub != p.sub || e.Flag != p.flag {
		h |= predKinds
	}
	if note != p.note {
		h |= predNote
	}
	deltas := p.predicted()
	for i := range deltas {
		if deltas[i] = e.Num[i] - deltas[i]; deltas[i] != 0 {
			h |= predNumeric << i
		}
	}
	c := &l.chunks[len(l.chunks)-1]
	b := append(appendRef(c.b, stream, newStream, e.Stream), h)
	if h&predKinds != 0 {
		kb := byte(e.Kind) | byte(e.Sub)<<4
		escaped := e.Kind < 0 || e.Kind >= 15 || e.Sub < 0 || e.Sub >= 7
		if escaped {
			kb = escKinds
		}
		if e.Flag {
			kb |= 0x80
		}
		b = append(b, kb)
		if escaped {
			b = binary.AppendVarint(binary.AppendVarint(b, e.Kind), e.Sub)
		}
	}
	if h&predNote != 0 {
		b = appendRef(b, note, newNote, e.Note)
	}
	for _, v := range deltas {
		if v != 0 {
			b = binary.AppendVarint(b, v)
		}
	}
	c.b = b
	p.kind, p.sub, p.flag, p.note = e.Kind, e.Sub, e.Flag, note
	p.advance(e.Num)
	c.n++
	l.held++
	l.n++
	for l.limit > 0 && l.held-l.chunks[0].n >= l.limit {
		l.held -= l.chunks[0].n
		l.spare = l.chunks[0].b[:0]
		l.chunks = append(l.chunks[:0], l.chunks[1:]...)
	}
}

// internLocked returns str's index among the open chunk's streams (t = 0)
// or notes (t = 1), and whether this is its first use there.
func (l *Log) internLocked(t int, str string) (uint32, bool) {
	if str == "" {
		return 0, false
	}
	ids := l.ids[str]
	if ids[t] != 0 {
		return ids[t], false
	}
	if l.ids == nil {
		l.ids = map[string][2]uint32{}
	}
	l.named[t]++
	ids[t] = l.named[t]
	l.ids[str] = ids
	return ids[t], true
}

// appendRef writes a string reference: the index, then the string itself
// when the chunk names it for the first time.
func appendRef(b []byte, i uint32, first bool, str string) []byte {
	b = binary.AppendUvarint(b, uint64(i))
	if first {
		b = append(binary.AppendUvarint(b, uint64(len(str))), str...)
	}
	return b
}

// Len returns how many entries the log shows.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.shownLocked()
}

// dropped returns how many entries a bounded log no longer shows.
func (l *Log) dropped() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n - l.shownLocked()
}

func (l *Log) shownLocked() int {
	if l.limit > 0 && l.held > l.limit {
		return l.limit
	}
	return l.held
}

// Entries decodes the last n entries the log shows, all of them when
// n <= 0, oldest first.
func (l *Log) Entries(n int) []Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	if shown := l.shownLocked(); n <= 0 || n > shown {
		n = shown
	}
	skip, out := l.held-n, make([]Entry, 0, n)
	var strs [2][]string // the chunk's streams and notes
	var preds []prediction
	for _, c := range l.chunks {
		if skip >= c.n {
			skip -= c.n
			continue
		}
		prev := -1
		strs, preds = [2][]string{append(strs[0][:0], ""), append(strs[1][:0], "")}, preds[:0]
		for b := c.b; len(b) > 0; {
			stream := readRef(&b, &strs[0])
			p := predictionOf(&preds, stream, prev)
			prev = int(stream)
			h := b[0]
			b = b[1:]
			if h&predKinds != 0 {
				kb := b[0]
				b = b[1:]
				p.kind, p.sub, p.flag = int64(kb&0x0f), int64(kb>>4&0x07), kb&0x80 != 0
				if kb&0x7f == escKinds {
					p.kind, p.sub = varint(&b), varint(&b)
				}
			}
			if h&predNote != 0 {
				p.note = readRef(&b, &strs[1])
			}
			num := p.predicted()
			for i := range num {
				if h&(predNumeric<<i) != 0 {
					num[i] += varint(&b)
				}
			}
			p.advance(num)
			if skip > 0 {
				skip--
				continue
			}
			out = append(out, Entry{Stream: strs[0][stream], Kind: p.kind, Sub: p.sub, Flag: p.flag, Note: strs[1][p.note], Num: num})
		}
	}
	return out
}

// readRef decodes a string reference from the front of *b, adding the
// string to *strs when the reference introduces it.
func readRef(b *[]byte, strs *[]string) uint32 {
	i := uint32(uvarint(b))
	if int(i) == len(*strs) {
		n := uvarint(b)
		*strs = append(*strs, string((*b)[:n]))
		*b = (*b)[n:]
	}
	return i
}

// varint and uvarint decode one value from the front of *b, which Append
// wrote whole.
func varint(b *[]byte) int64 {
	v, n := binary.Varint(*b)
	*b = (*b)[n:]
	return v
}

func uvarint(b *[]byte) uint64 {
	v, n := binary.Uvarint(*b)
	*b = (*b)[n:]
	return v
}
