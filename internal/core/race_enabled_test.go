//go:build race

package core_test

// raceEnabled reports whether this test binary was built with -race. Under
// the race detector sync.Pool deliberately discards a fraction of Put/Get
// pairs to widen the interleavings it can observe, so allocation-count
// bounds that rely on pool hits do not hold there.
const raceEnabled = true
