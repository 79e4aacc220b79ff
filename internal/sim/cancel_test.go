package sim

import (
	"testing"
	"testing/quick"
)

// Property: a stale Event handle — one whose event already fired, was
// discarded as cancelled, or was explicitly cancelled — can never
// cancel the slot's next tenant. The engine recycles fired events
// through a free list, so without the generation check a retained
// handle would silently kill whatever unrelated event reuses the
// memory. The workload below drives heavy schedule/fire/cancel churn
// (maximising slot reuse), retains every handle ever issued, and
// replays stale Cancels between steps; every event that was NOT
// cancelled while live must still fire.
func TestStaleCancelNeverHitsReusedSlotProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%300 + 50
		e := NewEngine()
		rng := NewStream(seed)

		type issued struct {
			h         Event
			cancelled bool // cancelled while live (before firing)
			fired     bool
		}
		var all []*issued

		schedule := func(d float64) *issued {
			rec := &issued{}
			rec.h = e.Schedule(d, func() { rec.fired = true })
			all = append(all, rec)
			return rec
		}
		for i := 0; i < n; i++ {
			rec := schedule(rng.Exp(1))
			if rng.Float64() < 0.3 {
				rec.h.Cancel()
				rec.cancelled = true
			}
		}
		steps := 0
		for e.pending() > 0 {
			e.Run(e.Now()+0.5, 0)
			steps++
			// Replay every stale handle: fired events' slots are by now
			// reused by the fresh schedules below, so a generation bug
			// would cancel a live stranger here.
			for _, rec := range all {
				if rec.fired || rec.cancelled {
					rec.h.Cancel()
				}
			}
			if steps < 40 {
				for i := 0; i < 5; i++ {
					rec := schedule(rng.Exp(1))
					if rng.Float64() < 0.3 {
						rec.h.Cancel()
						rec.cancelled = true
					}
				}
			}
		}
		for _, rec := range all {
			if rec.cancelled && rec.fired {
				return false // a live Cancel failed
			}
			if !rec.cancelled && !rec.fired {
				return false // a stale Cancel killed a reused slot
			}
		}
		// The churn must actually have recycled slots for the property to
		// mean anything.
		return e.reuses > 50
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Cancelling through a handle after its event fired, then scheduling
// again, must return a handle with a fresh generation: the two handles
// refer to the same slot but are independent.
func TestCancelGenerationsIndependent(t *testing.T) {
	e := NewEngine()
	fired := [2]bool{}
	h0 := e.Schedule(1, func() { fired[0] = true })
	e.Run(2, 0)
	if !fired[0] {
		t.Fatal("first event did not fire")
	}
	h1 := e.Schedule(1, func() { fired[1] = true })
	if h1.ev != h0.ev {
		t.Skip("free list did not reuse the slot; property vacuous")
	}
	if h1.gen == h0.gen {
		t.Fatal("reused slot kept its generation")
	}
	h0.Cancel() // stale: must not touch the new tenant
	e.Run(4, 0)
	if !fired[1] {
		t.Fatal("stale Cancel killed the reused slot's event")
	}
}
