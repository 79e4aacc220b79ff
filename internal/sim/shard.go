package sim

import (
	"fmt"
	"math"
	"sort"

	"perfpred/internal/parallel"
)

// message is one cross-shard occurrence in flight: fn runs on the
// destination shard's engine at the given simulated time. The sort key
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
}

// msgSorter sorts a shard's inbox by (time, origin, seq). It is a
// retained sort.Interface so the per-window sort allocates nothing.
type msgSorter struct{ msgs []message }

func (s *msgSorter) Len() int      { return len(s.msgs) }
func (s *msgSorter) Swap(i, j int) { s.msgs[i], s.msgs[j] = s.msgs[j], s.msgs[i] }
func (s *msgSorter) Less(i, j int) bool {
	a, b := &s.msgs[i], &s.msgs[j]
	if a.time != b.time {
		return a.time < b.time
	}
	if a.origin != b.origin {
		return a.origin < b.origin
	}
	return a.seq < b.seq
}

// Shard is one partition of a sharded simulation: a calendar-queue
// engine plus the outboxes carrying its cross-shard sends. All state
// reachable from a shard's events must be owned by that shard; the
// only cross-shard channel is Send.
type Shard struct {
	// Eng is the shard's private engine. Only the shard's own events
	// (and the coordinator, between windows) may touch it.
	Eng *Engine

	id     int
	coord  *Coordinator
	out    [][]message // out[dst]: sends bound for shard dst this window
	inbox  []message
	sorter msgSorter
	// inboxMin is the earliest fire time among routed-but-undelivered
	// messages, +Inf when the inbox is empty; the coordinator folds it
	// into the idle-skip horizon.
	inboxMin float64
}

// ID returns the shard's index within its coordinator.
func (sh *Shard) ID() int { return sh.id }

// Send schedules fn to run on shard dst's engine after delay units of
// simulated time. origin and seq identify the logical sender (a stable
// partition index and its private send counter) and order deliveries;
// they must be unique per in-flight message and independent of the
// shard mapping. delay must be at least the coordinator's lookahead —
// that is the conservative-synchronisation contract that makes
// window-batched exchange exact: a message sent inside window [a, b)
// fires at sendTime+delay ≥ a+lookahead ≥ b, i.e. always after the
// barrier at which it is delivered, never inside its own window.
func (sh *Shard) Send(dst int, origin, seq uint64, delay float64, fn func()) {
	if delay < sh.coord.lookahead || math.IsNaN(delay) {
		panic(fmt.Sprintf("sim: cross-shard delay %v below lookahead %v", delay, sh.coord.lookahead))
	}
	sh.out[dst] = append(sh.out[dst], message{
		time:   sh.Eng.Now() + delay,
		origin: origin,
		seq:    seq,
		fn:     fn,
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
// With one shard the pool degenerates to an inline call on the calling
// goroutine: no goroutines, no barriers, bit-identical to driving the
// engine directly. On one processor it is a loop over the shards on
// the calling goroutine, for the same trajectory as any other mapping.
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
// with the given lookahead. A non-finite lookahead (math.Inf(1)) means
// "no cross-shard traffic": the run degenerates to a single window and
// Send panics, which is the right mode for embarrassingly parallel
// partitions. Otherwise lookahead must be positive — a zero-latency
// partition cannot be conservatively parallelised.
func NewCoordinator(nshards int, lookahead float64) *Coordinator {
	if nshards < 1 {
		panic("sim: coordinator needs at least one shard")
	}
	if !(lookahead > 0) { // catches 0, negatives and NaN
		panic(fmt.Sprintf("sim: lookahead must be positive, got %v", lookahead))
	}
	c := &Coordinator{lookahead: lookahead}
	c.shards = make([]*Shard, nshards)
	for i := range c.shards {
		sh := &Shard{
			Eng:      NewEngineCalendar(),
			id:       i,
			coord:    c,
			out:      make([][]message, nshards),
			inboxMin: math.Inf(1),
		}
		sh.sorter.msgs = nil
		c.shards[i] = sh
	}
	c.pool = parallel.NewPool(nshards, c.runOne)
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
			sh.Eng.scheduleAt(m.time, m.fn)
			m.fn = nil
		}
		sh.inbox = sh.inbox[:0]
		sh.inboxMin = math.Inf(1)
	}
	sh.Eng.Run(c.windowEnd, 0)
}

// exchange routes every shard's outboxes into destination inboxes and
// sorts each inbox by (time, origin, seq). Runs between windows on the
// coordinator goroutine.
func (c *Coordinator) exchange() {
	for _, src := range c.shards {
		for dst := range src.out {
			box := src.out[dst]
			if len(box) == 0 {
				continue
			}
			d := c.shards[dst]
			d.inbox = append(d.inbox, box...)
			for j := range box {
				box[j].fn = nil
			}
			src.out[dst] = box[:0]
		}
	}
	for _, sh := range c.shards {
		if len(sh.inbox) > 1 {
			sh.sorter.msgs = sh.inbox
			sort.Sort(&sh.sorter)
		}
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

// Parks returns how many times a goroutine of the worker pool has gone
// to sleep at a window barrier so far. Unlike everything else the
// coordinator reports it depends on the host, not on the model: it is
// the answer to "did the hand-off degenerate into sleeping?", to be
// read beside the window count and never gated on.
func (c *Coordinator) Parks() uint64 { return c.pool.Stats().Parks }

// Close releases the coordinator's worker pool. The coordinator must
// not Run afterwards.
func (c *Coordinator) Close() { c.pool.Close() }
