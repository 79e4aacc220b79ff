package sessioncache

import (
	"container/list"
	"sync"
)

// LRU is a concurrency-safe least-recently-used cache with an optional
// entry bound. It is the storage half of a long-lived process's model
// cache: the trade simulator's per-client session cache (lru.go in
// internal/trade) simulates LRU behaviour inside one run, whereas this
// type *is* one, holding expensive artifacts — calibrated models,
// solver workspaces — across requests so a serving process does not
// grow without bound.
//
// Capacity 0 means unbounded, which keeps existing sweep-style users
// (build every key once, read many times, exit) untouched. With a
// positive capacity, inserting past the bound evicts the
// least-recently-used entry and reports it to the OnEvict callback, so
// composed caches can drop derived state (e.g. a singleflight slot)
// and the next Get for the evicted key misses and rebuilds.
//
// LRU is safe for concurrent use. It deliberately has no loader: pair
// it with parallel.Memo so a thundering herd of misses on one key runs
// exactly one build (see internal/serve).
type LRU[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recently used
	entries  map[K]*list.Element
	onEvict  func(K, V)
}

type lruItem[K comparable, V any] struct {
	key K
	val V
}

// NewLRU returns a cache bounded to capacity entries; capacity <= 0
// means unbounded.
func NewLRU[K comparable, V any](capacity int) *LRU[K, V] {
	if capacity < 0 {
		capacity = 0
	}
	return &LRU[K, V]{
		capacity: capacity,
		order:    list.New(),
		entries:  make(map[K]*list.Element),
	}
}

// OnEvict registers fn to be called for every entry removed by
// capacity pressure. fn runs with the cache lock held, so it must not
// call back into the cache.
func (c *LRU[K, V]) OnEvict(fn func(K, V)) {
	c.mu.Lock()
	c.onEvict = fn
	c.mu.Unlock()
}

// Get returns the cached value for key, marking it most recently used.
func (c *LRU[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruItem[K, V]).val, true
}

// Put inserts or replaces the value for key, marking it most recently
// used and evicting the least-recently-used entries past capacity.
func (c *LRU[K, V]) Put(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*lruItem[K, V]).val = val
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&lruItem[K, V]{key: key, val: val})
	for c.capacity > 0 && len(c.entries) > c.capacity {
		back := c.order.Back()
		if back == nil {
			break
		}
		it := back.Value.(*lruItem[K, V])
		c.order.Remove(back)
		delete(c.entries, it.key)
		if c.onEvict != nil {
			c.onEvict(it.key, it.val)
		}
	}
}

// Len returns the number of cached entries.
func (c *LRU[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
