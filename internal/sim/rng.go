package sim

import (
	"math"
	"math/rand"
)

// Stream is a reproducible pseudo-random stream with the sampling
// helpers the workload and service models need. Distinct components of
// a simulation (think times, service demands, operation selection)
// should each own a Stream derived from the run seed, so changing how
// one component consumes randomness does not perturb the others.
//
// A stream is seeded on its first draw. Creating one (NewStream,
// Derive, Split) only records the seed; the generator — math/rand's
// 607-word lagged Fibonacci state, about 5 KB — is built from it when
// the stream first draws. A component that never draws (the sticky-route
// stream of a one-server tier, the open-arrival stream of a closed
// workload, a root that is only Split) costs a few words, and every
// stream that does draw yields exactly the sequence it would have if
// seeded at creation.
type Stream struct {
	r    *rand.Rand // nil until the first draw
	seed int64
}

// NewStream returns a stream seeded deterministically from seed.
func NewStream(seed int64) *Stream {
	return &Stream{seed: seed}
}

// rng returns the stream's generator, seeding it on the first draw.
func (s *Stream) rng() *rand.Rand {
	if s.r == nil {
		s.seedNow()
	}
	return s.r
}

// seedNow builds the generator from the recorded seed. It is rng's
// cold half, kept apart so the draw path inlines.
func (s *Stream) seedNow() {
	s.r = rand.New(rand.NewSource(s.seed))
	recordSeeded()
}

// Seed returns the seed the stream was created with. Split keys off it,
// so sibling streams can be derived without perturbing this stream's
// draw sequence.
func (s *Stream) Seed() int64 { return s.seed }

// Derive returns a new independent stream derived from this stream's
// seed space and the given component label hash. It allows one run
// seed to fan out into per-component streams.
//
// Derive consumes a draw from the parent, so the child's seed depends
// on the ORDER of Derive calls, not just the component id. That is the
// right behaviour for a fixed component layout (the legacy simulator's
// streams), but wrong for shard splitting, where the same logical
// partition must get the same stream no matter how many siblings were
// derived before it — re-sharding would silently reassign every
// stream. Shard-scoped streams therefore use Split, which is a pure
// function of (seed, index).
func (s *Stream) Derive(component uint64) *Stream {
	// splitmix64 over the component id, xored with fresh draws from the
	// parent, gives well-separated child seeds.
	z := component + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return NewStream(int64(z) ^ s.rng().Int63())
}

// SplitSeed maps (seed, stream) to a child seed as a pure function:
// it neither consumes parent draws nor depends on how many sibling
// streams exist, so the stream keyed by a stable logical index (e.g. a
// pool number) is identical at any shard count. For a fixed seed the
// map stream → child is injective — splitmix64's finalising rounds are
// bijections on uint64, composed with the bijection z → z + (stream+1)
// × odd-constant — so two distinct stream indices can never collide on
// the same child seed, and re-sharding can never silently reuse a
// stream. Pairwise independence across seeds is probabilistic (64-bit
// avalanche mixing), verified over thousands of indices in tests.
func SplitSeed(seed int64, stream uint64) int64 {
	z := uint64(seed) + (stream+1)*0x9e3779b97f4a7c15
	for i := 0; i < 2; i++ {
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return int64(z)
}

// Split returns the stream's child stream for the given stable index,
// via SplitSeed. Unlike Derive it does not advance this stream's
// state: Split(i) returns the same stream whenever it is called, in
// whatever order, on however many siblings.
func (s *Stream) Split(stream uint64) *Stream {
	return NewStream(SplitSeed(s.seed, stream))
}

// Float64 returns a uniform draw in [0,1).
func (s *Stream) Float64() float64 { return s.rng().Float64() }

// Intn returns a uniform draw in [0,n). It panics if n <= 0, matching
// math/rand.
func (s *Stream) Intn(n int) int { return s.rng().Intn(n) }

// Exp returns an exponentially distributed draw with the given mean.
// The paper's think times and service demands are exponential (§3.1,
// §5). A zero or negative mean returns 0, so degenerate "no delay"
// configurations are representable.
func (s *Stream) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return -mean * math.Log(1-s.rng().Float64())
}

// Norm returns a standard normal draw (mean 0, standard deviation 1)
// from the stream's underlying generator. The scenario layer's
// lognormal think-time distributions exponentiate it.
func (s *Stream) Norm() float64 { return s.rng().NormFloat64() }

// Choose returns an index in [0,len(weights)) drawn with the given
// relative weights, used to pick a client's next operation from the
// Trade mix. It panics when weights is empty or sums to a non-positive
// value.
func (s *Stream) Choose(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("sim: negative weight")
		}
		total += w
	}
	if len(weights) == 0 || total <= 0 {
		panic("sim: Choose requires positive total weight")
	}
	u := s.rng().Float64() * total
	for i, w := range weights {
		u -= w
		if u < 0 {
			return i
		}
	}
	return len(weights) - 1
}
