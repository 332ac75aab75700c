package stats

// RNG is a small, fast, deterministic pseudo-random generator
// (SplitMix64-seeded xorshift*), used by the network simulator and workload
// generators so every experiment run is reproducible from its seed without
// depending on math/rand's global state or version-specific streams.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed (a zero seed is remapped, since
// xorshift has a zero fixed point).
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state.
func (r *RNG) Seed(seed uint64) {
	// SplitMix64 scramble so nearby seeds give unrelated streams.
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 0x9e3779b97f4a7c15
	}
	r.state = z
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics when n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Uniform returns a uniform value in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 { return lo + (hi-lo)*r.Float64() }

// Split derives an independent generator, useful for giving each simulated
// link or workload its own stream while preserving reproducibility.
func (r *RNG) Split() *RNG { return NewRNG(r.Uint64()) }
