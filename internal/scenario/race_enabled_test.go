//go:build race

package scenario

// raceEnabled reports whether this test binary was built with -race. The
// race runtime allocates differently (it pads each tiny allocation to a
// whole block), so allocation bounds measured without it do not hold there.
const raceEnabled = true
