package trade

import "container/list"

// lruCache is a byte-bounded least-recently-used cache over per-client
// session data (§7.2). It is a real cache, not a hit-rate formula: the
// simulator touches it on every request, so miss behaviour emerges
// from the interleaving of client requests exactly as it would in the
// application server's main memory.
type lruCache struct {
	capacity int64
	used     int64
	order    *list.List            // front = most recently used
	entries  map[int]*list.Element // client id -> element
	hits     uint64
	misses   uint64
	evicts   uint64
}

type lruEntry struct {
	client int
	bytes  int64
}

func newLRUCache(capacity int64) *lruCache {
	return &lruCache{
		capacity: capacity,
		order:    list.New(),
		entries:  make(map[int]*list.Element),
	}
}

// touch records an access to client's session of the given size. It
// returns true on a hit. On a miss the session is inserted, evicting
// least-recently-used sessions as needed; sessions larger than the
// whole cache are never admitted (every access misses).
func (c *lruCache) touch(client int, bytes int64) bool {
	if el, ok := c.entries[client]; ok {
		c.order.MoveToFront(el)
		c.hits++
		return true
	}
	c.misses++
	if bytes > c.capacity {
		return false
	}
	for c.used+bytes > c.capacity {
		back := c.order.Back()
		if back == nil {
			break
		}
		ent := back.Value.(*lruEntry)
		c.order.Remove(back)
		delete(c.entries, ent.client)
		c.used -= ent.bytes
		c.evicts++
	}
	c.entries[client] = c.order.PushFront(&lruEntry{client: client, bytes: bytes})
	c.used += bytes
	return false
}

// resetStats zeroes hit/miss/eviction counters without touching
// contents, for warm-up handling.
func (c *lruCache) resetStats() {
	c.hits, c.misses, c.evicts = 0, 0, 0
}
