package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"perfpred/internal/obs"
	"perfpred/internal/parallel"
)

// message is one cross-shard occurrence in flight: fn runs on shard
// dst's engine at the given simulated time, with arg as the event's
// argument (Engine.Arg). The sort key
// (time, origin, seq) is deliberately built from caller-supplied
// identifiers of the LOGICAL sender (e.g. a pool index and that pool's
// own send counter), never from the shard id: the delivery order —
// and hence the destination engine's tie-breaking sequence numbers —
// is then invariant under re-mapping logical partitions onto a
// different shard count.
type message struct {
	time   float64
	origin uint64
	seq    uint64
	fn     func()
	dst    int32 // with arg, one word: a message is five words
	arg    int32
}

// messageOrder orders messages by (time, origin, seq), a unique key.
func messageOrder(a, b message) int {
	if c := cmp.Compare(a.time, b.time); c != 0 {
		return c
	}
	if c := cmp.Compare(a.origin, b.origin); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// Shard is one partition of a sharded simulation: a calendar-queue
// engine plus the outbox carrying its cross-shard sends. All state
// reachable from a shard's events must be owned by that shard; the
// only cross-shard channel is Send.
type Shard struct {
	// Eng is the shard's private engine. Only the shard's own events
	// (and the coordinator, between windows) may touch it.
	Eng *Engine

	id    int
	coord *Coordinator
	out   []message // this window's sends, each naming its destination
	inbox []message
	// inboxMin is the earliest fire time among routed-but-undelivered
	// messages, +Inf when the inbox is empty; the coordinator folds it
	// into the idle-skip horizon.
	inboxMin float64
}

// ID returns the shard's index within its coordinator.
func (sh *Shard) ID() int { return sh.id }

// Send schedules fn to run on shard dst's engine after delay units of
// simulated time, as an event whose argument (Engine.Arg) is arg, so
// one action bound once can carry every message. origin and seq
// identify the logical sender (a stable partition index and its
// private send counter) and order deliveries;
// they must be unique per in-flight message and independent of the
// shard mapping. delay must be at least the coordinator's lookahead —
// that is the conservative-synchronisation contract that makes
// window-batched exchange exact: a message sent inside window [a, b)
// fires at sendTime+delay ≥ a+lookahead ≥ b, i.e. always after the
// barrier at which it is delivered, never inside its own window.
func (sh *Shard) Send(dst int, origin, seq uint64, delay float64, fn func(), arg int32) {
	if delay < sh.coord.lookahead || math.IsNaN(delay) {
		panic(fmt.Sprintf("sim: cross-shard delay %v below lookahead %v", delay, sh.coord.lookahead))
	}
	if math.IsInf(sh.coord.lookahead, 1) {
		panic("sim: cross-shard send on a coordinator with infinite lookahead")
	}
	sh.out = append(sh.out, message{
		time:   sh.Eng.Now() + delay,
		origin: origin,
		seq:    seq,
		fn:     fn,
		dst:    int32(dst),
		arg:    arg,
	})
}

// Coordinator advances a set of shard engines in lockstep through
// conservative time windows of length lookahead. Within a window the
// shards run concurrently on a persistent worker pool, the calling
// goroutine working as one of its workers; at each window
// barrier the coordinator routes every outbox message to its
// destination inbox, sorts inboxes by (time, origin, seq), and the
// next window begins by scheduling those deliveries at their exact
// fire times. Because every cross-shard delay is at least the
// lookahead, no message can fire inside the window it was sent in, so
// the parallel execution fires exactly the event sequence a single
// engine honouring the same (time, origin, seq) tie-breaks would.
//
// The shard count and the goroutine count are separate: with more
// shards than goroutines, whichever goroutine is free claims the next
// shard and runs its whole window, so a shard's working set stays in
// one cache while it runs. With one goroutine (one shard, one
// processor, or a cap of one) the pool degenerates to a loop over the
// shards on the calling goroutine: no goroutines, no barriers, the
// same trajectory as any other mapping.
type Coordinator struct {
	shards    []*Shard
	pool      *parallel.Pool
	lookahead float64
	now       float64
	windowEnd float64 // read by shard workers during pool.Run
	// barrierHook runs on the coordinator goroutine at every executed
	// window barrier, after exchange; see SetBarrierHook.
	barrierHook func(now float64)
	// flushed is the pool's counters as of the last metrics flush.
	flushed parallel.PoolStats
}

// NewCoordinator builds nshards calendar-queue engines coordinated
// with the given lookahead, run on up to nshards goroutines. A
// non-finite lookahead (math.Inf(1)) means "no cross-shard traffic":
// the run degenerates to a single window and Send panics, which is the
// right mode for embarrassingly parallel partitions. Otherwise
// lookahead must be positive — a zero-latency partition cannot be
// conservatively parallelised.
func NewCoordinator(nshards int, lookahead float64) *Coordinator {
	return NewCoordinatorOn(nshards, nshards, lookahead)
}

// NewCoordinatorOn is NewCoordinator with the shards run on at most
// goroutines goroutines, the caller included (and never more than
// GOMAXPROCS). At infinite lookahead a shard per independent partition
// is cheap: the run is one window, so each shard's engine runs once
// per Run call. A windowed coordinator runs every shard's engine every
// window, so there a few shards should each carry many partitions.
func NewCoordinatorOn(nshards, goroutines int, lookahead float64) *Coordinator {
	if nshards < 1 {
		panic("sim: coordinator needs at least one shard")
	}
	if !(lookahead > 0) { // catches 0, negatives and NaN
		panic(fmt.Sprintf("sim: lookahead must be positive, got %v", lookahead))
	}
	c := &Coordinator{lookahead: lookahead}
	c.shards = make([]*Shard, nshards)
	for i := range c.shards {
		c.shards[i] = &Shard{
			Eng:      NewEngineCalendar(),
			id:       i,
			coord:    c,
			inboxMin: math.Inf(1),
		}
	}
	c.pool = parallel.NewPool(nshards, goroutines, c.runOne)
	return c
}

// Shards returns the number of shards.
func (c *Coordinator) Shards() int { return len(c.shards) }

// Shard returns shard i. Callers build their model onto the shard's
// engine before the first Run and use Send for all cross-shard
// communication afterwards.
func (c *Coordinator) Shard(i int) *Shard { return c.shards[i] }

// Now returns the coordinator clock: the time every shard has advanced
// to (window barriers, and the final until of the last Run).
func (c *Coordinator) Now() float64 { return c.now }

// Fired returns the total events executed across all shards.
func (c *Coordinator) Fired() uint64 {
	var n uint64
	for _, sh := range c.shards {
		n += sh.Eng.Fired()
	}
	return n
}

// runOne is the per-window shard body, executed by the worker pool: it
// delivers the shard's sorted inbox at exact fire times, then runs the
// engine to the window end. Bound once at construction; reads the
// window end from the coordinator, so the steady state allocates
// nothing.
func (c *Coordinator) runOne(i int) {
	sh := c.shards[i]
	if len(sh.inbox) > 0 {
		for j := range sh.inbox {
			m := &sh.inbox[j]
			sh.Eng.scheduleAt(m.time, m.fn, m.arg)
			m.fn = nil
		}
		sh.inbox = sh.inbox[:0]
		sh.inboxMin = math.Inf(1)
	}
	sh.Eng.Run(c.windowEnd, 0)
}

// exchange routes every shard's outbox into destination inboxes and
// sorts each inbox by (time, origin, seq), a unique key, so the order
// messages arrive in cannot show. Runs between windows on the
// coordinator goroutine.
func (c *Coordinator) exchange() {
	for _, src := range c.shards {
		for j := range src.out {
			m := &src.out[j]
			d := c.shards[m.dst]
			d.inbox = append(d.inbox, *m)
			m.fn = nil
		}
		src.out = src.out[:0]
	}
	for _, sh := range c.shards {
		slices.SortFunc(sh.inbox, messageOrder)
		for j := range sh.inbox {
			if t := sh.inbox[j].time; t < sh.inboxMin {
				sh.inboxMin = t
			}
		}
	}
}

// nextEventTime returns the earliest pending occurrence anywhere: the
// min over shard engines' next events and undelivered inbox messages,
// +Inf when fully drained. It is a property of the logical event
// population, independent of the shard mapping, which keeps the
// idle-skip decisions below mapping-invariant.
func (c *Coordinator) nextEventTime() float64 {
	min := math.Inf(1)
	for _, sh := range c.shards {
		if t := sh.Eng.peekTime(); t < min {
			min = t
		}
		if sh.inboxMin < min {
			min = sh.inboxMin
		}
	}
	return min
}

// SetBarrierHook registers fn to run on the coordinator goroutine at
// every executed window barrier: after the shards finish the window
// and the message exchange completes, before the next window starts.
// At that instant every shard is quiescent, so the hook may read and
// write state owned by any shard — the mechanism fleet layers use to
// publish cross-shard snapshots and run in-loop control (replanning)
// without touching the per-window hot path.
//
// Barrier times are a property of the logical event population (window
// ends and idle skips depend only on the mapping-invariant next-event
// time), so the hook fires at the identical sequence of simulated
// times at any shard count. Skipped idle windows hold no events and
// produce no barrier; the final clamp of a Run call (no events left
// before until) performs no exchange and no hook call either.
func (c *Coordinator) SetBarrierHook(fn func(now float64)) { c.barrierHook = fn }

// Run advances every shard to simulated time until, alternating
// concurrent windows with barrier exchanges. Idle stretches — no
// pending event within the next window — are skipped in whole
// multiples of the lookahead, so a mostly quiet system does not pay a
// barrier per empty window. Returns the events fired by this call.
func (c *Coordinator) Run(until float64) uint64 {
	startFired := c.Fired()
	for c.now < until {
		gmin := c.nextEventTime()
		if gmin > until {
			// Nothing left to fire before until: the final step only
			// moves every quiescent engine's clock, which is not worth
			// a fan-out.
			c.windowEnd = until
			for i := range c.shards {
				c.runOne(i)
			}
			c.now = until
			break
		}
		if gmin > c.now+c.lookahead {
			// Skip ahead by whole windows; the skip count depends only
			// on gmin, which is mapping-invariant.
			c.now += math.Floor((gmin-c.now)/c.lookahead) * c.lookahead
		}
		end := c.now + c.lookahead
		if end > until {
			end = until
		}
		c.windowEnd = end
		c.pool.Run()
		c.exchange()
		c.now = end
		if c.barrierHook != nil {
			c.barrierHook(end)
		}
	}
	c.flushMetrics()
	return c.Fired() - startFired
}

// Windows returns how many windows the coordinator has fanned out to
// its shards so far (the count sim_coordinator_windows publishes). A
// windowed coordinator ends each at a barrier; an infinite-lookahead
// one takes a single window per Run call that has events to fire.
// Skipped idle stretches and the final clamp of a Run call fan nothing
// out and do not count.
func (c *Coordinator) Windows() uint64 { return c.pool.Stats().Runs }

// Parks returns how many times a goroutine of the worker pool has gone
// to sleep at a window barrier so far. Unlike everything else the
// coordinator reports it depends on the host, not on the model: it is
// the answer to "did the hand-off degenerate into sleeping?", to be
// read beside the window count and never gated on.
func (c *Coordinator) Parks() uint64 { return c.pool.Stats().Parks }

var (
	simCoordinatorWindows = obs.DeclareCounter("sim_coordinator_windows") // windows fanned out to the pool
	simCoordinatorParks   = obs.DeclareCounter("sim_coordinator_parks")   // barrier waits that put a goroutine to sleep
)

// flushMetrics publishes the worker pool's counters the way engines
// publish theirs: deltas since the last flush, at the end of Run.
func (c *Coordinator) flushMetrics() {
	if !simCoordinatorWindows.Bound() {
		return
	}
	st := c.pool.Stats()
	simCoordinatorWindows.Add(st.Runs - c.flushed.Runs)
	simCoordinatorParks.Add(st.Parks - c.flushed.Parks)
	c.flushed = st
}

// Close releases the coordinator's worker pool. The coordinator must
// not Run afterwards.
func (c *Coordinator) Close() { c.pool.Close() }
