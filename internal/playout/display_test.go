package playout

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/media"
)

// TestDisplayRoundTrip: Events rebuilds exactly what was recorded, and Count
// agrees with it, across every declared kind, the numeric extremes, and more
// notes than 16-bit indices could name; and on a fresh display whose events
// name no string, as a pause before any stream has started.
func TestDisplayRoundTrip(t *testing.T) {
	var want []Event
	for k := EvStart; k <= EvResume; k++ {
		for fk := media.FrameI; fk <= media.FrameStill; fk++ {
			want = append(want, Event{
				At: time.Duration(k), StreamID: "s" + strconv.Itoa(int(fk)), Kind: k,
				Frame: media.Frame{Index: int(k), Kind: fk, Marker: fk%2 == 0, Size: 1400},
				Note:  "repeated",
			})
		}
	}
	for _, x := range []int64{math.MaxInt64, math.MinInt64} {
		d := time.Duration(x)
		want = append(want,
			Event{At: d, Kind: EvPlay}, Event{Lateness: d, Kind: EvPlay},
			Event{Frame: media.Frame{Index: int(x)}}, Event{Frame: media.Frame{PTS: d}},
			Event{Frame: media.Frame{Size: int(x)}}, Event{Frame: media.Frame{Level: int(x)}})
	}
	want = append(want, Event{StreamID: "", Note: ""}, Event{StreamID: "repeated", Note: "s0"})
	for i := 0; i < 70_000; i++ {
		want = append(want, Event{Kind: EvDrop, StreamID: "s1", Note: "drop ×" + strconv.Itoa(i)})
	}
	stringFree := []Event{{At: time.Second, Kind: EvPause}, {At: 2 * time.Second, Kind: EvResume}}
	for _, want := range [][]Event{want, stringFree} {
		d := NewDisplay()
		for _, ev := range want {
			d.Record(ev)
		}
		checkDisplay(t, d, want, []string{"", "s1", "repeated", "absent"})
	}
}

// checkDisplay fails unless d's Events deep-equal want, Len is its length,
// and Count agrees with want for every declared kind and each of ids.
func checkDisplay(t *testing.T, d *Display, want []Event, ids []string) {
	t.Helper()
	if got := d.Events(); !reflect.DeepEqual(got, want) {
		for i := range got {
			if i < len(want) && !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("event %d: got %+v, want %+v", i, got[i], want[i])
			}
		}
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	if d.Len() != len(want) {
		t.Fatalf("Len() = %d, want %d", d.Len(), len(want))
	}
	for k := EvStart; k <= EvResume; k++ {
		for _, id := range ids {
			n := 0
			for _, ev := range want {
				if ev.Kind == k && (id == "" || ev.StreamID == id) {
					n++
				}
			}
			if got := d.Count(k, id); got != n {
				t.Errorf("Count(%v, %q) = %d, want %d", k, id, got, n)
			}
		}
	}
}

// TestDisplayBytesPerEvent: the trace of a steady 25 fps AU_VI pair — an
// audio block every 20 ms and a video frame every 40 ms, each presented a
// little late — costs at most 12 B of heap per event. It reads 11.0: the
// lateness moves At off its prediction almost every event, and a video
// frame's kind and size change from frame to frame.
func TestDisplayBytesPerEvent(t *testing.T) {
	const plays = 10_000
	d := NewDisplay()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, a, v := 0, 0, 0; i < plays; i++ {
		ev := Event{Kind: EvPlay, Lateness: time.Duration(i%7) * time.Millisecond}
		if i%3 == 2 {
			ev.StreamID = "v"
			ev.Frame = media.Frame{Index: v, PTS: time.Duration(v) * 40 * time.Millisecond,
				Kind: media.FrameKind(v % 3), Size: 6000 - v%12*300, Marker: true}
			v++
		} else {
			ev.StreamID = "a"
			ev.Frame = media.Frame{Index: a, PTS: time.Duration(a) * 20 * time.Millisecond,
				Kind: media.FrameAudio, Size: 320, Marker: true}
			a++
		}
		ev.At = ev.Frame.PTS + ev.Lateness
		d.Record(ev)
	}
	runtime.ReadMemStats(&m1)
	if d.Len() != plays {
		t.Fatalf("Len() = %d, want %d", d.Len(), plays)
	}
	per := float64(m1.TotalAlloc-m0.TotalAlloc) / plays
	t.Logf("%.1f B/event", per)
	if per > 12 {
		t.Fatalf("the display trace costs %.1f B/event, want ≤ 12", per)
	}
}

// fuzzEvent is one event in FuzzDisplayRoundTrip's input language: stream
// and note name "s<n>" and "n<n>" (0 names ""), and every numeric is spelled
// as eight raw bytes.
type fuzzEvent struct {
	stream, note                            byte
	kind, at, late, index, pts, fkind, size int64
	marker                                  bool
	level                                   int64
}

// spell writes evs in FuzzDisplayRoundTrip's input language.
func spell(evs ...fuzzEvent) []byte {
	var b []byte
	num := func(v int64) {
		b = append(b, 2)
		b = binary.BigEndian.AppendUint64(b, uint64(v))
	}
	for _, e := range evs {
		b = append(b, e.stream, e.note)
		for _, v := range []int64{e.kind, e.at, e.late, e.index, e.pts, e.fkind, e.size} {
			num(v)
		}
		marker := byte(0)
		if e.marker {
			marker = 1
		}
		b = append(b, marker)
		num(e.level)
	}
	return b
}

// FuzzDisplayRoundTrip: any event sequence the fuzzer spells — declared and
// undeclared kinds, numeric extremes, up to 256 streams and notes — comes
// back from Events exactly as recorded, and Count agrees with it. The
// spelled seeds break each of the log's predictions on one stream: escaped
// kinds between plain ones, index jumps and rewinds, At and PTS steps that
// change sign and size, and values at the int64 extremes, whose predicted
// successors wrap.
func FuzzDisplayRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19})
	f.Add(bytes.Repeat([]byte{0x05, 0x81, 0x42}, 40))
	f.Add(bytes.Repeat([]byte{0xff}, 120))
	ms := int64(time.Millisecond)
	f.Add(spell(
		fuzzEvent{stream: 1, kind: int64(EvPlay), fkind: int64(media.FrameAudio), marker: true},
		fuzzEvent{stream: 1, kind: 15, fkind: int64(media.FrameAudio), marker: true},
		fuzzEvent{stream: 1, kind: int64(EvPlay), fkind: 7},
		fuzzEvent{stream: 1, kind: -1, fkind: -3, marker: true},
		fuzzEvent{stream: 1, kind: -1, fkind: -4, marker: true},
		fuzzEvent{stream: 1, kind: int64(EvDrop), fkind: int64(media.FrameStill), note: 3},
		fuzzEvent{stream: 1, kind: int64(EvDrop), fkind: int64(media.FrameStill)}))
	var jumps []fuzzEvent
	for _, i := range []int64{0, 1, 2, 100, 101, 3, 2, 1, 1, math.MinInt64, math.MaxInt64, math.MinInt64, 0} {
		jumps = append(jumps, fuzzEvent{stream: 2, kind: int64(EvPlay), index: i})
	}
	f.Add(spell(jumps...))
	var steps []fuzzEvent
	for i, at := range []int64{0, 20, 40, 60, 100, 140, 141, 0, -20, -40, 7, 7, 7} {
		steps = append(steps, fuzzEvent{stream: 3, kind: int64(EvPlay), at: at * ms, pts: int64(i%5) * 40 * ms, index: int64(i)})
	}
	f.Add(spell(steps...))
	var extremes []fuzzEvent
	for _, v := range []int64{math.MaxInt64 - 1, math.MaxInt64, math.MinInt64, math.MinInt64 + 1, math.MaxInt64, 0, math.MinInt64} {
		extremes = append(extremes,
			fuzzEvent{stream: 4, kind: int64(EvPlay), at: v, pts: v, index: v, size: v, level: v, late: v},
			fuzzEvent{stream: 5, note: 1, kind: int64(EvGap), at: -v, pts: v / 2, index: -v, size: ^v, level: v, late: -v})
	}
	f.Add(spell(extremes...))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		extremes := []int64{math.MaxInt64, math.MinInt64, 0, -1, 1 << 40}
		num := func() int64 {
			switch s := next(); s % 4 {
			case 0:
				return int64(int8(next()))
			case 1:
				return extremes[int(s/4)%len(extremes)]
			case 2:
				var v uint64
				for i := 0; i < 8; i++ {
					v = v<<8 | uint64(next())
				}
				return int64(v)
			default:
				return int64(next()) * int64(20*time.Millisecond)
			}
		}
		name := func(prefix string) string {
			if b := next(); b != 0 {
				return prefix + strconv.Itoa(int(b))
			}
			return ""
		}
		want := []Event{}
		ids := []string{"", "absent"}
		for len(data) > 0 {
			ev := Event{StreamID: name("s"), Note: name("n"), Kind: EventKind(num())}
			ev.At, ev.Lateness = time.Duration(num()), time.Duration(num())
			ev.Frame = media.Frame{Index: int(num()), PTS: time.Duration(num()),
				Kind: media.FrameKind(num()), Size: int(num()), Marker: next()&1 != 0, Level: int(num())}
			want = append(want, ev)
			ids = append(ids, ev.StreamID)
		}
		d := NewDisplay()
		for _, ev := range want {
			d.Record(ev)
		}
		checkDisplay(t, d, want, ids)
	})
}
