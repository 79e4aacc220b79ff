package sim

import (
	"math"
	"math/rand"
	"testing"

	"perfpred/internal/obs"
)

// Re-sharding must never silently reuse a random stream: for a fixed
// run seed, SplitSeed over a stable logical index is injective
// (guaranteed structurally — the mixing rounds are bijections), and
// across realistic seed sets the child seeds stay pairwise distinct.
func TestSplitSeedNoCollisions(t *testing.T) {
	seeds := []int64{0, 1, -1, 42, 1 << 40, -987654321}
	const streams = 4096
	for _, seed := range seeds {
		seen := make(map[int64]uint64, streams)
		for i := uint64(0); i < streams; i++ {
			child := SplitSeed(seed, i)
			if prev, dup := seen[child]; dup {
				t.Fatalf("seed %d: streams %d and %d collide on child seed %d", seed, prev, i, child)
			}
			seen[child] = i
		}
	}
	// Across seeds too: a full cross of seeds × indices must not alias,
	// or two runs with different seeds could share a stream.
	cross := make(map[int64][2]int64, len(seeds)*streams)
	for _, seed := range seeds {
		for i := uint64(0); i < streams; i++ {
			child := SplitSeed(seed, i)
			if prev, dup := cross[child]; dup {
				t.Fatalf("(%d,%d) and (%d,%d) collide on child seed %d", prev[0], prev[1], seed, i, child)
			}
			cross[child] = [2]int64{seed, int64(i)}
		}
	}
}

// Split is a pure function of (parent seed, index): it must not depend
// on call order, on how many siblings were split before, or on how
// much the parent stream has been consumed — the exact properties
// Derive lacks and the reason shard streams are keyed by stable pool
// index through Split.
func TestSplitIsOrderIndependent(t *testing.T) {
	drain := func(s *Stream, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = s.Float64()
		}
		return out
	}
	a := NewStream(99)
	forward := [][]float64{}
	for i := uint64(0); i < 4; i++ {
		forward = append(forward, drain(a.Split(i), 8))
	}
	b := NewStream(99)
	drain(b, 100)             // consuming the parent must not matter
	for i := 3; i >= 0; i-- { // nor the split order
		got := drain(b.Split(uint64(i)), 8)
		for j := range got {
			if got[j] != forward[i][j] {
				t.Fatalf("stream %d draw %d: %v != %v", i, j, got[j], forward[i][j])
			}
		}
	}
}

// Split must not advance the parent: the parent's draw sequence is the
// same whether or not children were split from it.
func TestSplitDoesNotPerturbParent(t *testing.T) {
	a, b := NewStream(7), NewStream(7)
	for i := uint64(0); i < 10; i++ {
		a.Split(i)
	}
	for i := 0; i < 50; i++ {
		if av, bv := a.Float64(), b.Float64(); av != bv {
			t.Fatalf("draw %d: split perturbed parent (%v != %v)", i, av, bv)
		}
	}
}

// Sibling streams must be statistically unrelated, not just distinctly
// seeded: check the obvious failure mode (identical or lock-stepped
// sequences) over consecutive indices, the exact layout shards use.
func TestSplitSiblingsDecorrelated(t *testing.T) {
	root := NewStream(2026)
	const n = 512
	prev := make([]float64, n)
	s0 := root.Split(0)
	for i := range prev {
		prev[i] = s0.Float64()
	}
	for idx := uint64(1); idx < 8; idx++ {
		s := root.Split(idx)
		matches := 0
		for i := 0; i < n; i++ {
			v := s.Float64()
			if v == prev[i] {
				matches++
			}
			prev[i] = v
		}
		if matches > 2 {
			t.Fatalf("streams %d and %d share %d/%d identical draws", idx-1, idx, matches, n)
		}
	}
}

// A stream is seeded on its first draw, and that must be invisible in
// the draws: every helper yields math/rand's sequence for the recorded
// seed, and Derive's child seed is the splitmix of the component xored
// with the parent's next Int63, as when streams were seeded at
// creation. The reference below seeds eagerly and is checked draw for
// draw against a tree of streams derived, split and drawn in an
// interleaved order.
func TestLazySeedingKeepsEveryDraw(t *testing.T) {
	derivedSeed := func(parent *rand.Rand, component uint64) int64 {
		z := component + 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		return int64(z) ^ parent.Int63()
	}
	weights := []float64{0.2, 0.5, 0.3}
	draws := func(s *Stream) []float64 {
		return []float64{s.Float64(), float64(s.Intn(1000)), s.Exp(7), s.Norm(), float64(s.Choose(weights))}
	}
	eager := func(r *rand.Rand) []float64 {
		out := []float64{r.Float64(), float64(r.Intn(1000)), -7 * math.Log(1-r.Float64()), r.NormFloat64()}
		u := r.Float64()
		pick := len(weights) - 1
		for i, w := range weights {
			if u -= w; u < 0 {
				pick = i
				break
			}
		}
		return append(out, float64(pick))
	}
	for _, seed := range []int64{0, 17, -5, 1 << 50} {
		root := NewStream(seed).Split(3)
		refRoot := rand.New(rand.NewSource(SplitSeed(seed, 3)))
		a, b := root.Derive(1), root.Derive(2) // b draws first, a later
		refA := rand.New(rand.NewSource(derivedSeed(refRoot, 1)))
		refB := rand.New(rand.NewSource(derivedSeed(refRoot, 2)))
		grand := b.Derive(9) // a child of a stream that has not drawn yet
		refGrand := rand.New(rand.NewSource(derivedSeed(refB, 9)))
		got := [][]float64{draws(b), draws(grand), draws(a), draws(root)}
		want := [][]float64{eager(refB), eager(refGrand), eager(refA), eager(refRoot)}
		for i := range got {
			for j := range got[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("seed %d stream %d draw %d: %v, eager reference %v", seed, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}

// Only a sampling draw builds a register: creating, deriving from
// (whose draws from the parent come from its seed) and splitting
// streams counts nothing on sim_streams_seeded, and each stream counts
// once however often it draws.
func TestStreamSeedsOnFirstDrawOnly(t *testing.T) {
	r := obs.NewRegistry()
	obs.Bind(r)
	defer obs.Bind(nil)
	seeded := func() uint64 { return r.Snapshot().Counters["sim_streams_seeded"] }

	root := NewStream(1)
	pool := root.Split(0)
	if got := seeded(); got != 0 {
		t.Fatalf("NewStream and Split seeded %d streams, want 0", got)
	}
	kids := []*Stream{pool.Derive(1), pool.Derive(2), pool.Derive(3)}
	if got := seeded(); got != 0 {
		t.Fatalf("three Derive calls seeded %d streams, want 0 (the parent answers them from its seed)", got)
	}
	for i := 0; i < 100; i++ {
		kids[1].Float64()
	}
	if got := seeded(); got != 1 {
		t.Fatalf("100 draws on one child seeded %d streams in all, want 1", got)
	}
}
