package parallel

import (
	"context"
	"sync"
)

// Memo is a concurrency-safe, singleflight-style memoisation table.
// The first caller of Do for a key runs fn; concurrent callers of the
// same key block until that flight finishes and share its result;
// later callers get the memoised value without running fn again.
// Different keys never block each other.
//
// A successful result is cached forever. A failed flight is NOT
// cached: its waiters receive the error, and the next Do for that key
// retries — the same semantics the serial suite had, where an errored
// calibration left the memo field unset.
//
// The zero value is ready to use.
type Memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*flight[V]
}

type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Do returns the memoised value for key, computing it with fn on the
// first call. fn runs at most once per key at a time, and at most once
// ever if it succeeds.
func (m *Memo[K, V]) Do(key K, fn func() (V, error)) (V, error) {
	return m.DoCtx(context.Background(), key, fn)
}

// DoCtx is Do with a cancellable wait: a caller that joins an
// in-progress flight stops waiting when ctx is done and returns
// ctx.Err() with the zero value. The flight itself is *not* cancelled —
// the leader runs fn to completion regardless of any waiter's context
// (the computation is shared property, so one impatient caller must not
// poison the slot for the others), and its result is memoised exactly
// as with Do. A caller that becomes the leader likewise runs fn to
// completion; fn may consult its own context internally if the
// computation should observe deadlines.
func (m *Memo[K, V]) DoCtx(ctx context.Context, key K, fn func() (V, error)) (V, error) {
	m.mu.Lock()
	if m.m == nil {
		m.m = make(map[K]*flight[V])
	}
	if f, ok := m.m[key]; ok {
		m.mu.Unlock()
		select {
		case <-f.done:
			return f.val, f.err
		case <-ctx.Done():
			var zero V
			return zero, ctx.Err()
		}
	}
	f := &flight[V]{done: make(chan struct{})}
	m.m[key] = f
	m.mu.Unlock()

	f.val, f.err = fn()
	if f.err != nil {
		m.mu.Lock()
		delete(m.m, key)
		m.mu.Unlock()
	}
	close(f.done)
	return f.val, f.err
}

// Forget drops the memoised value for key so the next Do recomputes
// it. An in-progress flight is left alone — removing it would let a
// second flight for the same key start while the first still runs,
// which is exactly the stampede Memo exists to prevent; callers
// evicting a key concurrently with its rebuild therefore cannot cause
// duplicate work.
func (m *Memo[K, V]) Forget(key K) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.m[key]
	if !ok {
		return
	}
	select {
	case <-f.done:
		delete(m.m, key)
	default:
	}
}

// Lookup returns key's memoised value without running or joining a
// flight: ok is false while key has no finished, successful one.
func (m *Memo[K, V]) Lookup(key K) (v V, ok bool) {
	m.mu.Lock()
	f, found := m.m[key]
	m.mu.Unlock()
	if !found {
		return v, false
	}
	select {
	case <-f.done:
		// A failed flight is deleted before done closes, but a Lookup
		// that found it in the table may still see it finish.
		if f.err != nil {
			return v, false
		}
		return f.val, true
	default:
		return v, false
	}
}

// Len reports how many keys the table holds: memoised values plus
// flights still in progress.
func (m *Memo[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}

// Once memoises a single computed value: Memo with one key. It is the
// done-flag replacement for zero-value sentinels like
// `if s.gradient != 0 { return s.gradient }`, which misread a
// legitimately-zero cached value as "not yet computed" and are not
// safe for concurrent use. The zero value is ready to use.
type Once[V any] struct {
	memo Memo[struct{}, V]
}

// Do returns the memoised value, computing it with fn on the first
// call. Errors are not memoised; concurrent callers share one flight.
func (o *Once[V]) Do(fn func() (V, error)) (V, error) {
	return o.memo.Do(struct{}{}, fn)
}
