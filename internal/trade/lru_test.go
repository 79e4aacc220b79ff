package trade

import (
	"testing"
	"testing/quick"

	"perfpred/internal/workload"
)

func TestLRUHitsAndMisses(t *testing.T) {
	c := newLRUCache(100)
	if c.touch(1, 40) {
		t.Fatal("first access must miss")
	}
	if !c.touch(1, 40) {
		t.Fatal("second access must hit")
	}
	if c.touch(2, 40) {
		t.Fatal("new client must miss")
	}
	// Both fit (80 <= 100): no eviction yet.
	if !c.touch(1, 40) || !c.touch(2, 40) {
		t.Fatal("both sessions should be resident")
	}
	if c.evicts != 0 {
		t.Fatalf("evicts = %d, want 0", c.evicts)
	}
}

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	c := newLRUCache(100)
	c.touch(1, 50)
	c.touch(2, 50)
	c.touch(1, 50) // 1 most recent
	c.touch(3, 50) // evicts 2
	if !c.touch(1, 50) {
		t.Fatal("client 1 should still be resident")
	}
	if c.touch(2, 50) {
		t.Fatal("client 2 should have been evicted")
	}
	if c.evicts == 0 {
		t.Fatal("expected evictions")
	}
}

func TestLRUOversizedSessionNeverAdmitted(t *testing.T) {
	c := newLRUCache(10)
	if c.touch(1, 100) {
		t.Fatal("oversized session cannot hit")
	}
	if c.touch(1, 100) {
		t.Fatal("oversized session must keep missing")
	}
	if c.used != 0 {
		t.Fatalf("used = %d, want 0", c.used)
	}
}

func TestLRUMissRateAndReset(t *testing.T) {
	c := newLRUCache(100)
	if c.hits != 0 || c.misses != 0 {
		t.Fatal("empty cache should count no accesses")
	}
	c.touch(1, 10) // miss
	c.touch(1, 10) // hit
	if c.hits != 1 || c.misses != 1 {
		t.Fatalf("hits = %d, misses = %d, want 1 and 1", c.hits, c.misses)
	}
	c.resetStats()
	if c.hits != 0 || c.misses != 0 || c.evicts != 0 {
		t.Fatal("resetStats should zero counters")
	}
	if !c.touch(1, 10) {
		t.Fatal("contents must survive resetStats")
	}
}

// Property: used bytes never exceed capacity and equal the sum of
// resident entries, for any access pattern.
func TestLRUInvariantProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		c := newLRUCache(1000)
		for _, op := range ops {
			client := int(op % 64)
			size := int64(op%97) + 1
			c.touch(client, size)
			if c.used > 1000 || c.used < 0 {
				return false
			}
			var sum int64
			for e := c.order.Front(); e != nil; e = e.Next() {
				sum += e.Value.(*lruEntry).bytes
			}
			if sum != c.used || c.order.Len() != len(c.entries) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCacheVariantDegradesWhenWorkingSetExceedsCache(t *testing.T) {
	// §7.2: when the workload does not fit in main memory, misses cost
	// an extra database call and performance drops. A cache big enough
	// for every session behaves like the no-cache baseline.
	opt := MeasureOptions{Seed: 3, WarmUp: 40, Duration: 120}
	load := workload.TypicalWorkload(400)

	base := baseConfig(workload.AppServF(), load, opt)
	baseRes, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	big := base
	big.Cache = &CacheConfig{SizeBytes: 1 << 40, SessionBytesMean: 4096}
	bigRes, err := Run(big)
	if err != nil {
		t.Fatal(err)
	}
	if bigRes.CacheMissRate > 0.02 {
		t.Fatalf("big cache miss rate = %v, want ≈0", bigRes.CacheMissRate)
	}

	small := base
	// Room for only ~10% of the 400 sessions.
	small.Cache = &CacheConfig{SizeBytes: 40 * 4096, SessionBytesMean: 4096}
	smallRes, err := Run(small)
	if err != nil {
		t.Fatal(err)
	}
	if smallRes.CacheMissRate < 0.5 {
		t.Fatalf("small cache miss rate = %v, want high", smallRes.CacheMissRate)
	}
	if smallRes.MeanRT <= bigRes.MeanRT {
		t.Fatalf("thrashing cache mean RT %v should exceed big-cache %v", smallRes.MeanRT, bigRes.MeanRT)
	}
	_ = baseRes
}
