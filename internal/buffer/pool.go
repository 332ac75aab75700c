package buffer

import "sync"

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
// Ownership is strictly hand-over-hand: a Buf obtained from Get belongs to
// the caller until Put, after which the caller must not touch it (or any
// slice aliasing it) again. Pooled buffers hold stale garbage — callers
// overwrite, never read, the capacity beyond what they wrote.
type Pool struct {
	p sync.Pool
}

// maxPooled bounds the buffers kept across Put calls so one oversized frame
// (a full-quality still is ~150 KB) cannot pin arbitrary memory in the pool
// forever. Larger buffers are simply dropped for the GC.
const maxPooled = 256 << 10

// Get returns a buffer whose B has length n (contents undefined) and at
// least that capacity.
func (p *Pool) Get(n int) *Buf {
	if v := p.p.Get(); v != nil {
		b := v.(*Buf)
		if cap(b.B) >= n {
			b.B = b.B[:n]
			return b
		}
		b.B = make([]byte, n)
		return b
	}
	return &Buf{B: make([]byte, n)}
}

// Put returns a buffer to the pool. Passing nil is a no-op.
func (p *Pool) Put(b *Buf) {
	if b == nil || cap(b.B) > maxPooled {
		return
	}
	b.B = b.B[:0]
	p.p.Put(b)
}
