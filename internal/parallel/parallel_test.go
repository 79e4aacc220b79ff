package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestMapOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		out, err := Map(context.Background(), workers, 50, func(_ context.Context, i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out) != 50 {
			t.Fatalf("workers=%d: got %d results", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapSerialRunsInOrderAndStopsAtError(t *testing.T) {
	var order []int
	boom := errors.New("boom")
	_, err := Map(context.Background(), 1, 10, func(_ context.Context, i int) (int, error) {
		order = append(order, i)
		if i == 3 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if len(order) != 4 {
		t.Fatalf("serial map ran %v; want exactly [0 1 2 3]", order)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial map order %v not ascending", order)
		}
	}
}

func TestMapFirstErrorIsDeterministic(t *testing.T) {
	// Index 2 always fails; later indices may fail only via knock-on
	// cancellation. The reported error must be index 2's, regardless of
	// scheduling.
	errAt := func(i int) error { return fmt.Errorf("cell %d failed", i) }
	for trial := 0; trial < 20; trial++ {
		_, err := Map(context.Background(), 8, 64, func(ctx context.Context, i int) (int, error) {
			if i == 2 {
				return 0, errAt(i)
			}
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			return i, nil
		})
		if err == nil || err.Error() != "cell 2 failed" {
			t.Fatalf("trial %d: err = %v, want cell 2's error", trial, err)
		}
	}
}

func TestMapParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Map(ctx, 4, 8, func(context.Context, int) (int, error) { return 0, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int64
	_, err := Map(context.Background(), workers, 60, func(_ context.Context, i int) (int, error) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		inFlight.Add(-1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent calls, pool bound is %d", p, workers)
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(context.Background(), 4, 0, func(context.Context, int) (int, error) {
		t.Fatal("fn called for empty input")
		return 0, nil
	})
	if err != nil || out != nil {
		t.Fatalf("got (%v, %v), want (nil, nil)", out, err)
	}
}

func TestWorkersNormalisation(t *testing.T) {
	if resolveWorkers(0) < 1 || resolveWorkers(-3) < 1 {
		t.Fatal("non-positive worker counts must normalise to >= 1")
	}
	if resolveWorkers(7) != 7 {
		t.Fatalf("resolveWorkers(7) = %d", resolveWorkers(7))
	}
}
