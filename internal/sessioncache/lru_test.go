package sessioncache

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"perfpred/internal/parallel"
)

func TestLRUUnboundedByDefault(t *testing.T) {
	c := NewLRU[int, int](0)
	evicts := 0
	c.OnEvict(func(int, int) { evicts++ })
	for i := 0; i < 1000; i++ {
		c.Put(i, i)
	}
	if c.Len() != 1000 {
		t.Fatalf("unbounded cache evicted: len = %d, want 1000", c.Len())
	}
	if evicts != 0 {
		t.Fatalf("unbounded cache recorded %d evictions", evicts)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := NewLRU[string, int](3)
	var evicted []string
	c.OnEvict(func(k string, _ int) { evicted = append(evicted, k) })

	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3)
	// Touch "a" so "b" becomes least recently used.
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = (%d, %v)", v, ok)
	}
	c.Put("d", 4) // evicts b
	c.Put("e", 5) // evicts c
	if want := []string{"b", "c"}; !reflect.DeepEqual(evicted, want) {
		t.Fatalf("eviction order = %v, want %v (recency must follow Get, not just Put)", evicted, want)
	}
	// Replacing an existing key must not evict anything, and makes it
	// the most recently used.
	c.Put("a", 10)
	if len(evicted) != 2 {
		t.Fatalf("replacement evicted: %v", evicted)
	}
	if v, _ := c.Get("a"); v != 10 {
		t.Fatalf("replaced value = %d, want 10", v)
	}
	// Three fresh keys push the survivors out least recently used first.
	for _, k := range []string{"x", "y", "z"} {
		c.Put(k, 0)
	}
	if want := []string{"b", "c", "d", "e", "a"}; !reflect.DeepEqual(evicted, want) {
		t.Fatalf("eviction order = %v, want %v", evicted, want)
	}
}

// TestLRURebuildAfterEvict exercises the composition the serving cache
// relies on: an LRU bounded to a few models in front of a
// parallel.Memo singleflight. Evicting a key must make the next Get
// miss and run the builder again — once — while keys still resident
// never rebuild.
func TestLRURebuildAfterEvict(t *testing.T) {
	c := NewLRU[int, string](2)
	var memo parallel.Memo[int, string]
	c.OnEvict(func(k int, _ string) { memo.Forget(k) })
	builds := map[int]int{}
	var mu sync.Mutex
	get := func(k int) string {
		if v, ok := c.Get(k); ok {
			return v
		}
		v, err := memo.Do(k, func() (string, error) {
			mu.Lock()
			builds[k]++
			mu.Unlock()
			v := fmt.Sprintf("model-%d", k)
			c.Put(k, v)
			return v, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		memo.Forget(k)
		return v
	}

	get(1)
	get(2)
	get(1) // keep 1 warm: 2 is now LRU
	get(3) // evicts 2
	if builds[1] != 1 || builds[2] != 1 || builds[3] != 1 {
		t.Fatalf("builds after first pass = %v, want one each", builds)
	}
	if v := get(2); v != "model-2" { // rebuilds: 2 was evicted
		t.Fatalf("rebuilt value = %q", v)
	}
	if builds[2] != 2 {
		t.Fatalf("evicted key rebuilt %d times, want 2 (miss after evict must rebuild)", builds[2])
	}
	if v := get(1); v != "model-1" {
		t.Fatalf("get(1) = %q", v)
	}
	if builds[1] != 2 {
		// 1 was evicted in turn when 2 was rebuilt (capacity 2: {3, 2}).
		t.Fatalf("builds[1] = %d, want 2", builds[1])
	}
}

func TestLRUConcurrent(t *testing.T) {
	c := NewLRU[int, int](64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (g*131 + i) % 200
				if v, ok := c.Get(k); ok && v != k*3 {
					t.Errorf("Get(%d) = %d, want %d", k, v, k*3)
				}
				c.Put(k, k*3)
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Fatalf("len = %d exceeds capacity 64", c.Len())
	}
}
