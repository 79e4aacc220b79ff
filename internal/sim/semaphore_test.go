package sim

import (
	"math"
	"slices"
	"testing"
)

func TestSemaphoreImmediateGrant(t *testing.T) {
	e := NewEngine()
	s := NewSemaphore(e, "threads", 2)
	granted := 0
	s.Acquire(0, func(int32) { granted++ }, 0)
	s.Acquire(0, func(int32) { granted++ }, 0)
	if granted != 2 || s.Held() != 2 {
		t.Fatalf("granted=%d held=%d", granted, s.Held())
	}
}

func TestSemaphoreQueuesBeyondCapacity(t *testing.T) {
	e := NewEngine()
	s := NewSemaphore(e, "threads", 1)
	var order []int
	s.Acquire(0, func(int32) { order = append(order, 1) }, 0)
	s.Acquire(0, func(int32) { order = append(order, 2) }, 0)
	s.Acquire(0, func(int32) { order = append(order, 3) }, 0)
	if s.Queued() != 2 {
		t.Fatalf("queued = %d, want 2", s.Queued())
	}
	s.Release() // grants 2
	s.Release() // grants 3
	if len(order) != 3 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("grant order = %v", order)
	}
	if s.Held() != 1 {
		t.Fatalf("held = %d, want 1 (grant transfers the slot)", s.Held())
	}
}

// TestSemaphorePerSourceRoundRobin holds a one-slot pool's grant order:
// FIFO within a source, round-robin over the sources in the order they
// first queued. Callers that all pass one source are granted in arrival
// order, including a waiter that acquires again from its grant callback:
// it queues behind everyone already waiting.
func TestSemaphorePerSourceRoundRobin(t *testing.T) {
	for _, tc := range []struct {
		name    string
		sources []int // each waiter's source, queued in order behind the held slot
		again   int   // the waiter whose grant acquires once more, from its source, as waiter len(sources); -1 for none
		want    []int // waiters in grant order
	}{
		{"two sources", []int{1, 1, 1, 2, 2, 2}, -1, []int{0, 3, 1, 4, 2, 5}},
		{"three sources interleaved", []int{2, 0, 2, 1, 0}, -1, []int{0, 1, 3, 2, 4}},
		{"one source, re-acquiring from a grant", []int{0, 0, 0}, 0, []int{0, 1, 2, 3}},
	} {
		e := NewEngine()
		s := NewSemaphore(e, "agents", 1)
		var order []int
		var waiter func(i, src int) func(int32)
		waiter = func(i, src int) func(int32) {
			return func(int32) {
				order = append(order, i)
				if i == tc.again {
					s.Acquire(src, waiter(len(tc.sources), src), 0)
				}
			}
		}
		s.Acquire(0, func(int32) {}, 0) // holds the slot
		for i, src := range tc.sources {
			s.Acquire(src, waiter(i, src), 0)
		}
		for s.Queued() > 0 {
			s.Release()
		}
		if !slices.Equal(order, tc.want) {
			t.Errorf("%s: grant order %v, want %v", tc.name, order, tc.want)
		}
	}
}

func TestSemaphoreOverReleasePanics(t *testing.T) {
	e := NewEngine()
	s := NewSemaphore(e, "x", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	s.Release()
}

func TestSemaphoreInvalidCapacityPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity did not panic")
		}
	}()
	NewSemaphore(e, "x", 0)
}

func TestSemaphoreStats(t *testing.T) {
	e := NewEngine()
	s := NewSemaphore(e, "threads", 1)
	s.Acquire(0, func(int32) {}, 0)
	e.Schedule(10, func() { s.Release() })
	e.Run(20, 0)
	// Held for 10 of 20 time units.
	if got := s.MeanHeld(); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("mean held = %v, want 0.5", got)
	}
	s.ResetStats()
	if s.MeanHeld() != 0 {
		t.Fatal("ResetStats did not zero statistics")
	}
}

func TestSemaphoreMeanQueued(t *testing.T) {
	e := NewEngine()
	s := NewSemaphore(e, "threads", 1)
	s.Acquire(0, func(int32) {}, 0)
	s.Acquire(0, func(int32) {}, 0) // queued from t=0
	e.Schedule(10, func() { s.Release() })
	e.Run(20, 0)
	// One waiter for 10 of 20 units.
	if got := s.MeanQueued(); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("mean queued = %v, want 0.5", got)
	}
}
