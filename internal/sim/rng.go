package sim

// RNG is a small, fast, deterministic random number generator
// (xorshift128+). The standard library's math/rand would also work, but a
// local implementation pins the sequence across Go releases so recorded
// experiment outputs stay reproducible.
type RNG struct {
	s0, s1 uint64
}

// NewRNG seeds a generator. Seed 0 is remapped so the state is never
// all-zero (which would be a fixed point of xorshift).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	r := &RNG{}
	// SplitMix64 to spread the seed over both words.
	z := seed
	for i := 0; i < 2; i++ {
		z += 0x9e3779b97f4a7c15
		x := z
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
		if i == 0 {
			r.s0 = x
		} else {
			r.s1 = x
		}
	}
	return r
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	x, y := r.s0, r.s1
	r.s0 = y
	x ^= x << 23
	x ^= x >> 17
	x ^= y ^ (y >> 26)
	r.s1 = x
	return x + y
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a uniform uint64 in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("sim: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}
