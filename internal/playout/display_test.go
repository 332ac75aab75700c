package playout

import (
	"math"
	"reflect"
	"strconv"
	"testing"
	"time"
	"unsafe"

	"repro/internal/media"
)

// TestDisplayRoundTrip: Events rebuilds exactly what was recorded, and Count
// agrees with it, across every declared kind, the numeric extremes, and more
// notes than 16-bit indices could name; and on a fresh display whose events
// name no string, as a pause before any stream has started.
func TestDisplayRoundTrip(t *testing.T) {
	if s := unsafe.Sizeof(slot{}); s > 64 {
		t.Fatalf("a display slot is %d B, want ≤ 64 (an Event is %d B)", s, unsafe.Sizeof(Event{}))
	}
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
		if got := d.Events(); !reflect.DeepEqual(got, want) {
			for i := range got {
				if i < len(want) && !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("event %d: got %+v, want %+v", i, got[i], want[i])
				}
			}
			t.Fatalf("got %d events, want %d", len(got), len(want))
		}
		for k := EvStart; k <= EvResume; k++ {
			for _, id := range []string{"", "s1", "repeated", "absent"} {
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
}
