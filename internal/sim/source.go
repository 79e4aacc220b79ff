package sim

import "math/rand"

// source is math/rand's additive lagged-Fibonacci generator (Mitchell
// and Reeds): for the same seed it returns exactly what
// rand.NewSource's source returns, draw for draw. Only the seeding
// differs. math/rand fills the register by walking one Park–Miller
// chain, x[n+1] = 48271·x[n] mod (2³¹−1), 1 841 dependent steps long.
// Here x[n] = 48271ⁿ·seed mod (2³¹−1) is read off a table of the powers
// 48271ⁿ, so each register word costs three independent multiplications
// and no step waits on the one before.
//
// Outputs read the register in a fixed order, which Stream uses: the
// first regTap outputs of a fresh register read only words no earlier
// output wrote, so each is a function of the seed alone (seedOutput),
// and a stream that only derives children never builds the register.
type source struct {
	tap, feed int32 // int32s keep the struct at 4 864 bytes, a size class
	vec       [regLen]int64
}

const (
	regLen  = 607 // register words
	regTap  = 273 // lag of the second word an output adds
	regMask = 1<<63 - 1

	pmMod  = 1<<31 - 1 // the Park–Miller modulus, a Mersenne prime
	pmMul  = 48271     // its multiplier
	pmSkip = 21        // chain position of register word 0's first part
	// pmZero stands in for a seed ≡ 0 mod pmMod, as in math/rand.
	pmZero = 89482311
)

var (
	// pmPow[i][j] is 48271^(3i+j+pmSkip) mod (2³¹−1): register word i
	// reads chain positions 3i+21, 3i+22 and 3i+23.
	pmPow [regLen][3]uint32
	// cooked[i] is the constant math/rand xors into register word i.
	cooked [regLen]int64
)

func init() {
	x := uint64(1)
	for j := 0; j < pmSkip; j++ {
		x = mulMod(x, pmMul)
	}
	for i := range pmPow {
		for j := range pmPow[i] {
			pmPow[i][j] = uint32(x)
			x = mulMod(x, pmMul)
		}
	}
	cooked = cookedFromMathRand()
}

// cookedFromMathRand recovers math/rand's cooked constants from its own
// output, so the package holds no copy of that table. The first regLen
// outputs of a fresh source write every register word once: output k
// (from 1) adds tap word 607−k to feed word (334−k) mod 607 and stores
// the sum there. Its tap word is an original for k ≤ 273 and output
// k−273 after, so running the recurrence backwards recovers the
// register math/rand seeded; xoring out the seed's chain leaves the
// constants.
func cookedFromMathRand() [regLen]int64 {
	const seed = 1
	ref := rand.NewSource(seed).(rand.Source64)
	var out [regLen + 1]int64 // out[k] is output k, from 1
	for k := 1; k <= regLen; k++ {
		out[k] = int64(ref.Uint64())
	}
	var reg [regLen]int64
	for k := regLen; k > regTap; k-- {
		reg[(regLen-regTap-k+regLen)%regLen] = out[k] - out[k-regTap]
	}
	for k := 1; k <= regTap; k++ {
		reg[regLen-regTap-k] = out[k] - reg[regLen-k]
	}
	s := normSeed(seed)
	for i := range reg {
		reg[i] ^= chainWord(s, i)
	}
	return reg
}

// mulMod returns a·b mod (2³¹−1) for a, b in [1, 2³¹−1) without
// dividing: the product's high and low 31 bits sum to a number
// congruent to it modulo the Mersenne prime and below 2·pmMod, so one
// subtraction reduces it.
func mulMod(a, b uint64) uint64 {
	p := a * b
	r := p&pmMod + p>>31
	if r >= pmMod {
		r -= pmMod
	}
	return r
}

// normSeed maps a seed into [1, 2³¹−1) the way math/rand does.
func normSeed(seed int64) uint64 {
	seed %= pmMod
	if seed < 0 {
		seed += pmMod
	}
	if seed == 0 {
		seed = pmZero
	}
	return uint64(seed)
}

// chainWord is register word i's share of the Park–Miller chain from
// the normalised seed s, before the cooked constant.
func chainWord(s uint64, i int) int64 {
	p := &pmPow[i]
	return int64(mulMod(uint64(p[0]), s)<<40 ^ mulMod(uint64(p[1]), s)<<20 ^ mulMod(uint64(p[2]), s))
}

// seedWord is word i of the register seeded from the normalised seed s.
func seedWord(s uint64, i int) int64 { return chainWord(s, i) ^ cooked[i] }

// seedOutput is output k (1 ≤ k ≤ regTap) of a source freshly seeded
// with seed, computed from the seed alone.
func seedOutput(seed int64, k int) uint64 {
	s := normSeed(seed)
	return uint64(seedWord(s, regLen-regTap-k) + seedWord(s, regLen-k))
}

// Seed builds the register for seed. It implements rand.Source.
func (r *source) Seed(seed int64) {
	r.tap = 0
	r.feed = regLen - regTap
	s := normSeed(seed)
	for i := range r.vec { // seedWord, written out: the call would not inline
		p := &pmPow[i]
		r.vec[i] = int64(mulMod(uint64(p[0]), s)<<40^mulMod(uint64(p[1]), s)<<20^mulMod(uint64(p[2]), s)) ^ cooked[i]
	}
}

// Uint64 returns the next 64-bit output. It implements rand.Source64.
func (r *source) Uint64() uint64 {
	r.tap--
	if r.tap < 0 {
		r.tap += regLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += regLen
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return uint64(x)
}

// Int63 returns the next output's low 63 bits. It implements
// rand.Source.
func (r *source) Int63() int64 { return int64(r.Uint64() & regMask) }
