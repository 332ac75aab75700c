package buffer

import (
	"math/bits"
	"sync"
)

// Buf is one pooled byte buffer. Callers append into B (typically after
// truncating with B[:0]) and must write the final slice back before Put so
// the grown backing array is what returns to the pool.
type Buf struct {
	B []byte
}

// Pool recycles byte buffers for the data plane's per-packet and per-frame
// scratch: packet assembly on the server, frame reassembly on the client.
// The zero value is ready to use.
//
// Buffers are filed by size class: class c holds capacities in
// [2^c, 2^(c+1)). Get(n) draws from class ⌈log₂ n⌉, whose every buffer is
// long enough, and a miss allocates exactly 2^c so the buffer files back
// under the class it was drawn for. A short buffer is never drawn for a
// long request and thrown away.
//
// Ownership is strictly hand-over-hand: a Buf obtained from Get belongs to
// the caller until Put, after which the caller must not touch it (or any
// slice aliasing it) again. Pooled buffers hold stale garbage — callers
// overwrite, never read, the capacity beyond what they wrote.
type Pool struct {
	classes [maxClass + 1]sync.Pool
}

// maxPooled bounds the buffers kept across Put calls so one oversized frame
// (a full-quality still is ~150 KB) cannot pin arbitrary memory in the pool
// forever. Larger buffers are simply dropped for the GC.
const maxPooled = 1 << maxClass

// maxClass is the largest size class, 256 KB.
const maxClass = 18

// Get returns a buffer whose B has length n (contents undefined) and at
// least that capacity.
func (p *Pool) Get(n int) *Buf {
	if n > maxPooled {
		return &Buf{B: make([]byte, n)}
	}
	c := 0
	if n > 1 {
		c = bits.Len(uint(n - 1)) // ⌈log₂ n⌉
	}
	if v := p.classes[c].Get(); v != nil {
		b := v.(*Buf)
		b.B = b.B[:n]
		return b
	}
	return &Buf{B: make([]byte, n, 1<<c)}
}

// Put returns a buffer to the pool. Passing nil is a no-op, and a buffer
// with no capacity or more than maxPooled is dropped.
func (p *Pool) Put(b *Buf) {
	if b == nil || cap(b.B) == 0 || cap(b.B) > maxPooled {
		return
	}
	b.B = b.B[:0]
	p.classes[bits.Len(uint(cap(b.B)))-1].Put(b) // ⌊log₂ cap⌋
}
