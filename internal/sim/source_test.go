package sim

import (
	"math"
	"math/rand"
	"testing"
)

// The source returns math/rand's outputs for every seed, from the
// first draw on: the zero seed and the seeds that normalise to it
// (multiples of 2³¹−1), the edges of the normalised range and of int64,
// and the split seeds a fleet's pools are keyed by. And a stream that
// derives d children before it samples hands out, across the regTap
// outputs it answers from its seed and the build that takes over, the
// child seeds and the draws an eagerly seeded math/rand stream gives.
func TestSourceMatchesMathRand(t *testing.T) {
	const m = 1<<31 - 1
	seeds := []int64{0, 1, -1, pmZero, m - 1, m, 2 * m, -m, -3 * m, m * (math.MaxInt64 / m),
		math.MinInt64, math.MaxInt64}
	for i := uint64(0); i < 2000; i++ {
		seeds = append(seeds, SplitSeed(17, i))
	}
	for _, seed := range seeds {
		ref := rand.NewSource(seed).(rand.Source64)
		var src source
		src.Seed(seed)
		for i := 0; i < 3000; i++ {
			if got, want := src.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: %#x, math/rand %#x", seed, i, got, want)
			}
		}
	}
	for _, seed := range []int64{0, -1, pmZero, math.MinInt64, SplitSeed(17, 3)} {
		for _, d := range []int{0, 1, 7, regTap - 1, regTap, regTap + 1, 300} {
			s := NewStream(seed)
			ref := rand.New(rand.NewSource(seed))
			for c := 0; c < d; c++ {
				if got, want := s.Derive(uint64(c)).Seed(), refDerived(ref, uint64(c)); got != want {
					t.Fatalf("seed %d: derive %d gave child seed %d, eager reference %d", seed, c, got, want)
				}
			}
			for i := 0; i < 50; i++ {
				if got, want := s.Float64(), ref.Float64(); got != want {
					t.Fatalf("seed %d after %d derives: draw %d %v, eager reference %v", seed, d, i, got, want)
				}
			}
		}
	}
}

// refDerived is the child seed Derive gives when the parent's generator
// is the eagerly seeded ref.
func refDerived(ref *rand.Rand, component uint64) int64 {
	z := component + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z) ^ ref.Int63()
}

// FuzzStreamMatchesMathRand runs a byte script of stream operations
// against an eagerly seeded math/rand reference. Each byte's low three
// bits pick the operation and the rest its argument: a run of 1–32
// Derives (so a short script crosses the regTap outputs a seed
// answers), Float64, Intn, Exp, Norm or Choose.
func FuzzStreamMatchesMathRand(f *testing.F) {
	f.Add(int64(17), []byte{1, 2, 3, 4, 5})
	f.Add(int64(0), []byte{0xf8, 0xf8, 0xf8, 0xf8, 0xf8, 0xf8, 0xf8, 0xf8, 0x80, 1, 0})
	f.Add(int64(math.MinInt64), []byte{0xf8, 0xf8, 0xf8, 0xf8, 0xf8, 0xf8, 0xf8, 0xf8, 0x88, 0, 4, 5})
	f.Add(int64(1<<31-1), []byte{8, 1, 0, 9, 2, 3, 0xf0, 4})
	weights := []float64{0.2, 0.5, 0.3}
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		s := NewStream(seed)
		ref := rand.New(rand.NewSource(seed))
		for i, b := range script {
			arg := int(b >> 3)
			var got, want float64
			switch b & 7 {
			case 0:
				for c := 0; c <= arg; c++ {
					if g, w := s.Derive(uint64(i)).Seed(), refDerived(ref, uint64(i)); g != w {
						t.Fatalf("op %d: child seed %d, eager reference %d", i, g, w)
					}
				}
				continue
			case 1:
				got, want = s.Float64(), ref.Float64()
			case 2:
				got, want = float64(s.Intn(arg+1)), float64(ref.Intn(arg+1))
			case 3:
				mean := float64(arg)
				got = s.Exp(mean)
				if mean > 0 {
					want = -mean * math.Log(1-ref.Float64())
				}
			case 4:
				got, want = s.Norm(), ref.NormFloat64()
			default:
				got = float64(s.Choose(weights))
				u := ref.Float64()
				want = float64(len(weights) - 1)
				for j, w := range weights {
					if u -= w; u < 0 {
						want = float64(j)
						break
					}
				}
			}
			if got != want {
				t.Fatalf("op %d (%#x): %v, eager reference %v", i, b, got, want)
			}
		}
	})
}
