package sim

import "testing"

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
