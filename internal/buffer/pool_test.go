package buffer

import "testing"

func TestPoolGetLengthAndCapacity(t *testing.T) {
	var p Pool
	for _, n := range []int{0, 1, 2, 1400, 1401, 1 << 16, maxPooled, maxPooled + 1} {
		for round := 0; round < 2; round++ { // a fresh buffer, then a pooled one
			b := p.Get(n)
			if len(b.B) != n || cap(b.B) < n {
				t.Fatalf("Get(%d) round %d: len %d cap %d", n, round, len(b.B), cap(b.B))
			}
			p.Put(b)
		}
	}
}

func TestPoolDropsOversizedAndNil(t *testing.T) {
	var p Pool
	p.Put(nil)
	big := &Buf{B: make([]byte, maxPooled+1)}
	p.Put(big)
	for n := 0; n <= maxPooled; n = 2*n + 1 {
		if p.Get(n) == big {
			t.Fatalf("Get(%d) returned a buffer over maxPooled", n)
		}
	}
}

// TestPoolFilesBySizeClass: a buffer is drawn again by every request it is
// long enough for within its class, and never by a longer one.
func TestPoolFilesBySizeClass(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool deliberately drops items under -race; reuse is not guaranteed")
	}
	var p Pool
	short := &Buf{B: make([]byte, 300)} // class 8: capacities 256–511
	p.Put(short)
	if b := p.Get(300); b == short {
		t.Fatal("Get(300) drew from the class whose buffers may be shorter than 300")
	}
	if b := p.Get(200); b != short || len(b.B) != 200 {
		t.Fatal("Get(200) did not reuse the pooled 300-byte buffer")
	}
}

// TestPoolAlternatingSizesAllocFree: a small and a large request in turn
// each find their own class warm, so neither makes the other re-allocate.
func TestPoolAlternatingSizesAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool deliberately drops items under -race; allocation bounds don't hold")
	}
	var p Pool
	cycle := func() {
		for _, n := range []int{300, 150_000} {
			p.Put(p.Get(n))
		}
	}
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("alternating Get(300)/Get(150 000)/Put allocates %.1f objects per run, want 0", avg)
	}
}
