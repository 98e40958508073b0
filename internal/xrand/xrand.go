// Package xrand provides a small, fast, deterministic, splittable
// pseudo-random number generator used throughout the simulator.
//
// Every node in a simulated radio network owns a private RNG split from a
// single experiment seed, so whole experiments are reproducible from one
// integer while nodes remain statistically independent of each other.
//
// The core generator is SplitMix64 (Steele, Lea, Flood; OOPSLA 2014), which
// passes BigCrush, has a full 2^64 period for any seed, and supports cheap
// splitting by hashing the parent state with a distinct stream constant.
package xrand

import "math"

// golden is the 64-bit golden-ratio constant used by SplitMix64.
const golden = 0x9e3779b97f4a7c15

// RNG is a deterministic SplitMix64 pseudo-random generator.
// The zero value is a valid generator seeded with 0.
//
// RNG is not safe for concurrent use; split one RNG per goroutine instead.
type RNG struct {
	state uint64
}

// New returns an RNG seeded with seed.
func New(seed uint64) *RNG {
	return &RNG{state: seed}
}

// State exposes the generator's full internal state — one word, by
// SplitMix64's construction — for checkpointing. A generator restored with
// SetState(State()) produces the identical future stream, which is what
// lets engine checkpoints (radio.Checkpoint) capture per-node randomness
// exactly.
func (r *RNG) State() uint64 { return r.state }

// SetState overwrites the generator's state with a value previously
// obtained from State.
func (r *RNG) SetState(s uint64) { r.state = s }

// mix64 is the SplitMix64 output function.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next pseudo-random 64-bit value.
func (r *RNG) Uint64() uint64 {
	r.state += golden
	return mix64(r.state)
}

// Split derives an independent child generator. The child's stream is a
// deterministic function of the parent's current state and the supplied
// stream index, so Split(i) is stable regardless of how many values the
// parent draws afterwards.
func (r *RNG) Split(stream uint64) *RNG {
	// Hash the parent state together with the stream index through two
	// rounds of the output function to decorrelate child sequences.
	h := mix64(r.state ^ mix64(stream*golden+1))
	return &RNG{state: h}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded values.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mulHi(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mulHi returns the high and low 64 bits of a*b where the low word is the
// remainder channel used for rejection sampling.
func mulHi(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	aLo, aHi := a&mask32, a>>32
	bLo, bHi := b&mask32, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += aLo * bHi
	hi = aHi*bHi + w2 + (w1 >> 32)
	lo = a * b
	return hi, lo
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Exponential samples Exp(rate): mean 1/rate. It panics if rate <= 0.
//
// MPX clustering draws per-center shifts δ_v ~ Exp(β) from this method.
func (r *RNG) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("xrand: Exponential with non-positive rate")
	}
	// Inverse CDF on (0,1]; 1-Float64() avoids log(0).
	u := 1 - r.Float64()
	return -math.Log(u) / rate
}

// Geometric samples the number of failures before the first success of a
// Bernoulli(p) sequence (support {0,1,2,...}). It panics unless 0 < p <= 1.
func (r *RNG) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("xrand: Geometric needs 0 < p <= 1")
	}
	if p == 1 {
		return 0
	}
	u := 1 - r.Float64()
	return int(math.Floor(math.Log(u) / math.Log(1-p)))
}

// Perm returns a uniform random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes xs uniformly in place.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
