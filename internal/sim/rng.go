package sim

import (
	"math"
	"math/rand"

	"perfpred/internal/obs"
)

// Stream is a reproducible pseudo-random stream with the sampling
// helpers the workload and service models need. Distinct components of
// a simulation (think times, service demands, operation selection)
// should each own a Stream derived from the run seed, so changing how
// one component consumes randomness does not perturb the others.
//
// Every stream yields math/rand's sequence for its seed: its generator
// is a source with math/rand's outputs (see source), under a rand.Rand
// for the distributions. Creating a stream (NewStream, Derive, Split)
// only records the seed. Derive's draws from the parent come from the
// seed alone while they can — the first 273 outputs of a fresh register
// are functions of the seed — so a stream that only derives children
// (a pool's split root, its sampling parent, the open-arrival parent)
// never builds the register, math/rand's 607-word state of about 5 KB.
// The first sampling draw (Float64, Intn, Exp, Norm, Choose), or a
// 274th Derive, builds it and steps it past the outputs Derive already
// took. A stream that never draws at all (the sticky-route stream of a
// one-server tier, a root that is only Split) costs a few words either
// way, and every draw is the one the stream would have made had its
// register been built at creation.
type Stream struct {
	r     *rand.Rand // nil until the register is built
	seed  int64
	taken int // outputs Derive took from the seed before r was built
}

// NewStream returns a stream seeded deterministically from seed.
func NewStream(seed int64) *Stream {
	return &Stream{seed: seed}
}

// rng returns the stream's generator, building it on the first draw.
func (s *Stream) rng() *rand.Rand {
	if s.r == nil {
		s.seedNow()
	}
	return s.r
}

// seedNow builds the register from the recorded seed and steps it past
// the outputs Derive took from the seed. It is rng's cold half, kept
// apart so the draw path inlines.
func (s *Stream) seedNow() {
	src := new(source)
	src.Seed(s.seed)
	for i := 0; i < s.taken; i++ {
		src.Uint64()
	}
	s.r = rand.New(src)
	simStreamsSeeded.Inc()
}

// simStreamsSeeded counts streams that drew and so built a generator:
// once per stream, never per draw.
var simStreamsSeeded = obs.DeclareCounter("sim_streams_seeded")

// int63 is the stream's next Int63, taken from the seed while the
// register is unbuilt and the output is one of the first regTap.
func (s *Stream) int63() int64 {
	if s.r == nil && s.taken < regTap {
		s.taken++
		return int64(seedOutput(s.seed, s.taken) & regMask)
	}
	return s.rng().Int63()
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
	return NewStream(int64(z) ^ s.int63())
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
