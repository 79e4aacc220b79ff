package parallel

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMemoSingleFlight(t *testing.T) {
	var m Memo[string, int]
	var calls atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := m.Do("k", func() (int, error) {
				calls.Add(1)
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("Do = (%d, %v), want (42, nil)", v, err)
			}
		}()
	}
	wg.Wait()
	if c := calls.Load(); c != 1 {
		t.Fatalf("fn ran %d times for one key, want 1", c)
	}
}

func TestMemoDistinctKeys(t *testing.T) {
	var m Memo[int, int]
	for k := 0; k < 5; k++ {
		v, err := m.Do(k, func() (int, error) { return k * 10, nil })
		if err != nil || v != k*10 {
			t.Fatalf("Do(%d) = (%d, %v)", k, v, err)
		}
	}
	// Second pass must hit the memo, not recompute.
	for k := 0; k < 5; k++ {
		v, err := m.Do(k, func() (int, error) {
			t.Fatalf("recomputed key %d", k)
			return 0, nil
		})
		if err != nil || v != k*10 {
			t.Fatalf("memoised Do(%d) = (%d, %v)", k, v, err)
		}
	}
}

func TestMemoErrorsRetry(t *testing.T) {
	var m Memo[string, int]
	boom := errors.New("boom")
	if _, err := m.Do("k", func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("first Do err = %v, want boom", err)
	}
	v, err := m.Do("k", func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("retry Do = (%d, %v), want (7, nil): failures must not be memoised", v, err)
	}
}

// Len counts what the table retains: successes stay, failures and
// forgotten keys do not.
func TestMemoLen(t *testing.T) {
	var m Memo[string, int]
	if n := m.Len(); n != 0 {
		t.Fatalf("zero Memo holds %d keys", n)
	}
	for _, k := range []string{"a", "b", "a"} {
		_, _ = m.Do(k, func() (int, error) { return 1, nil })
	}
	_, _ = m.Do("bad", func() (int, error) { return 0, errors.New("boom") })
	if n := m.Len(); n != 2 {
		t.Fatalf("Len = %d after two successes and a failure, want 2", n)
	}
	m.Forget("a")
	if n := m.Len(); n != 1 {
		t.Fatalf("Len = %d after Forget, want 1", n)
	}
}

// Lookup reports only finished successes: not a key never asked, not
// a flight still running, not a failure.
func TestMemoLookup(t *testing.T) {
	var m Memo[string, int]
	if _, ok := m.Lookup("k"); ok {
		t.Fatal("Lookup hit on an empty Memo")
	}
	_, _ = m.Do("bad", func() (int, error) { return 0, errors.New("boom") })
	if _, ok := m.Lookup("bad"); ok {
		t.Fatal("Lookup hit on a failed flight")
	}
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = m.Do("k", func() (int, error) {
			close(started)
			<-release
			return 7, nil
		})
	}()
	<-started
	if _, ok := m.Lookup("k"); ok {
		t.Error("Lookup hit on a flight still running")
	}
	close(release)
	<-done
	if v, ok := m.Lookup("k"); !ok || v != 7 {
		t.Fatalf("Lookup after the flight = (%d, %v), want (7, true)", v, ok)
	}
}

// TestMemoStampede is the serving-cache contract: a thundering herd of
// cold requests for one key runs the underlying build exactly once,
// and every caller — leader and waiters alike — receives that build's
// value. The build is deliberately slow so all N goroutines really do
// pile onto one in-progress flight rather than racing past each other.
func TestMemoStampede(t *testing.T) {
	var m Memo[string, int]
	var builds atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	const herd = 64

	var wg sync.WaitGroup
	errs := make([]error, herd)
	vals := make([]int, herd)
	for g := 0; g < herd; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			vals[g], errs[g] = m.Do("model", func() (int, error) {
				if builds.Add(1) == 1 {
					close(started)
				}
				<-release // hold the flight open while the herd gathers
				return 77, nil
			})
		}(g)
	}
	<-started
	// Give the rest of the herd time to join the flight, then let the
	// single build finish.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()

	if b := builds.Load(); b != 1 {
		t.Fatalf("stampede ran %d builds for one key, want exactly 1", b)
	}
	for g := 0; g < herd; g++ {
		if errs[g] != nil || vals[g] != 77 {
			t.Fatalf("caller %d got (%d, %v), want (77, nil)", g, vals[g], errs[g])
		}
	}
}

// TestMemoStampedeErrorNotCached checks the failure half of the
// stampede contract: when the shared flight fails, every waiter sees
// the error, nothing is cached, and the next request retries the
// build.
func TestMemoStampedeErrorNotCached(t *testing.T) {
	var m Memo[string, int]
	boom := errors.New("build failed")
	var builds atomic.Int64
	release := make(chan struct{})
	const herd = 16

	var wg sync.WaitGroup
	var sawErr atomic.Int64
	for g := 0; g < herd; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := m.Do("k", func() (int, error) {
				builds.Add(1)
				<-release
				return 0, boom
			})
			if errors.Is(err, boom) {
				sawErr.Add(1)
			}
		}()
	}
	time.Sleep(5 * time.Millisecond)
	close(release)
	wg.Wait()

	if b := builds.Load(); b < 1 {
		t.Fatalf("no build ran")
	}
	if sawErr.Load() == 0 {
		t.Fatalf("no caller saw the flight's error")
	}
	v, err := m.Do("k", func() (int, error) { return 5, nil })
	if err != nil || v != 5 {
		t.Fatalf("post-failure Do = (%d, %v), want (5, nil): errors must not be cached", v, err)
	}
}

// TestMemoCancelledWaitersDontPoison is the deadline contract: waiters
// whose context expires mid-flight get ctx.Err() and go away, but the
// flight itself completes and its value lands in the slot — an
// impatient caller must not poison the cache for everyone else.
func TestMemoCancelledWaitersDontPoison(t *testing.T) {
	var m Memo[string, int]
	var builds atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})

	// Leader: slow build.
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		v, err := m.Do("k", func() (int, error) {
			builds.Add(1)
			close(started)
			<-release
			return 31, nil
		})
		if err != nil || v != 31 {
			t.Errorf("leader got (%d, %v), want (31, nil)", v, err)
		}
	}()
	<-started

	// Waiters with already-expired deadlines: they must return
	// context errors promptly instead of blocking on the flight.
	for g := 0; g < 8; g++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := m.DoCtx(ctx, "k", func() (int, error) {
			t.Error("cancelled waiter became a second leader")
			return 0, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter err = %v, want context.Canceled", err)
		}
	}

	close(release)
	<-leaderDone

	// The slot must hold the leader's value: cancelled waiters did not
	// poison or clear it.
	v, err := m.DoCtx(context.Background(), "k", func() (int, error) {
		t.Fatal("slot was poisoned: build re-ran after cancelled waiters")
		return 0, nil
	})
	if err != nil || v != 31 {
		t.Fatalf("post-cancel Do = (%d, %v), want (31, nil)", v, err)
	}
	if b := builds.Load(); b != 1 {
		t.Fatalf("build ran %d times, want 1", b)
	}
}

// TestMemoForget drops completed flights but leaves in-progress ones
// alone, so eviction during a rebuild can never start a duplicate
// build.
func TestMemoForget(t *testing.T) {
	var m Memo[string, int]
	calls := 0
	if _, err := m.Do("k", func() (int, error) { calls++; return 1, nil }); err != nil {
		t.Fatal(err)
	}
	m.Forget("k")
	if v, err := m.Do("k", func() (int, error) { calls++; return 2, nil }); err != nil || v != 2 {
		t.Fatalf("post-Forget Do = (%d, %v), want (2, nil)", v, err)
	}
	if calls != 2 {
		t.Fatalf("fn ran %d times, want 2 (Forget must force a recompute)", calls)
	}

	// Forget during an in-progress flight is a no-op: the concurrent
	// caller still joins the existing flight.
	started := make(chan struct{})
	release := make(chan struct{})
	var builds atomic.Int64
	go func() {
		_, _ = m.Do("live", func() (int, error) {
			builds.Add(1)
			close(started)
			<-release
			return 9, nil
		})
	}()
	<-started
	m.Forget("live") // must not remove the running flight
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, err := m.Do("live", func() (int, error) {
			builds.Add(1)
			return -1, nil
		})
		if err != nil || v != 9 {
			t.Errorf("joiner got (%d, %v), want (9, nil)", v, err)
		}
	}()
	time.Sleep(5 * time.Millisecond)
	close(release)
	<-done
	if b := builds.Load(); b != 1 {
		t.Fatalf("Forget on a live flight caused %d builds, want 1", b)
	}
}

// TestOnceCachesZeroValue is the regression test for the suite's old
// `if s.gradient != 0` memoisation, which re-ran the calibration
// whenever the cached value was legitimately zero.
func TestOnceCachesZeroValue(t *testing.T) {
	var o Once[float64]
	calls := 0
	for i := 0; i < 3; i++ {
		v, err := o.Do(func() (float64, error) {
			calls++
			return 0, nil
		})
		if err != nil || v != 0 {
			t.Fatalf("Do = (%v, %v)", v, err)
		}
	}
	if calls != 1 {
		t.Fatalf("zero value recomputed: fn ran %d times, want 1", calls)
	}
}

func TestOnceConcurrent(t *testing.T) {
	var o Once[int]
	var calls atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v, err := o.Do(func() (int, error) {
				calls.Add(1)
				return 9, nil
			}); err != nil || v != 9 {
				t.Errorf("Do = (%d, %v)", v, err)
			}
		}()
	}
	wg.Wait()
	if c := calls.Load(); c != 1 {
		t.Fatalf("fn ran %d times, want 1", c)
	}
}
