package sim

import (
	"math"
	"runtime"
	"testing"
)

// testPool is a logical partition for coordinator tests: a self-timed
// ticker owning its own split stream, occasionally messaging a peer
// pool. Pool state is only ever touched by the shard the pool lives
// on, so trajectories must be invariant under the pool→shard mapping.
type testPool struct {
	id       uint64
	sh       *Shard
	rng      *Stream
	peers    []*testPool
	ticks    int
	received int
	hash     uint64
	sendSeq  uint64
	la       float64
}

func (p *testPool) fold(t float64) {
	p.hash = p.hash*1099511628211 + math.Float64bits(t)
}

func (p *testPool) tick() {
	now := p.sh.Eng.Now()
	p.ticks++
	p.fold(now)
	if len(p.peers) > 1 && p.rng.Float64() < 0.4 {
		q := p.peers[(int(p.id)+1+p.rng.Intn(len(p.peers)-1))%len(p.peers)]
		delay := p.la + p.rng.Exp(0.3)
		p.sendSeq++
		p.sh.Send(q.sh.id, p.id, p.sendSeq, delay, q.receive, 0)
	}
	if now < 40 {
		p.sh.Eng.Schedule(p.rng.Exp(0.7), p.tick)
	}
}

func (p *testPool) receive() {
	p.received++
	p.fold(p.sh.Eng.Now())
}

// runPools drives P logical pools mapped i%shards onto a coordinator
// and returns each pool's trajectory summary.
func runPools(seed int64, pools, shards int, lookahead float64) ([]*testPool, uint64) {
	c := NewCoordinator(shards, lookahead)
	defer c.Close()
	root := NewStream(seed)
	ps := make([]*testPool, pools)
	for i := range ps {
		ps[i] = &testPool{
			id:  uint64(i),
			sh:  c.Shard(i % shards),
			rng: root.Split(uint64(i)), // keyed by pool, not shard
			la:  lookahead,
		}
	}
	for _, p := range ps {
		p.peers = ps
		pp := p
		pp.sh.Eng.Schedule(pp.rng.Exp(0.5), pp.tick)
	}
	c.Run(60)
	return ps, c.Fired()
}

// The tentpole determinism property: the same seeded scenario produces
// identical per-pool trajectories (tick counts, message counts, and a
// running hash of every event time) at ANY shard count, because pools
// share no state, streams are keyed by stable pool index, and message
// delivery order is (time, origin, seq) — all mapping-invariant.
func TestCoordinatorMappingInvariance(t *testing.T) {
	const pools = 4
	ref, refFired := runPools(11, pools, 1, 0.05)
	for _, shards := range []int{2, 4} {
		got, gotFired := runPools(11, pools, shards, 0.05)
		if gotFired != refFired {
			t.Fatalf("%d shards: fired %d events, 1 shard fired %d", shards, gotFired, refFired)
		}
		for i := range ref {
			if got[i].ticks != ref[i].ticks || got[i].received != ref[i].received || got[i].hash != ref[i].hash {
				t.Fatalf("%d shards: pool %d trajectory (%d ticks, %d recv, %x) != 1-shard (%d, %d, %x)",
					shards, i, got[i].ticks, got[i].received, got[i].hash,
					ref[i].ticks, ref[i].received, ref[i].hash)
			}
		}
	}
	if ref[0].received == 0 && ref[1].received == 0 {
		t.Fatal("no cross-pool messages exchanged; invariance test is vacuous")
	}
}

// A cross-shard send below the lookahead would break the conservative
// window guarantee — it must panic immediately, not corrupt a run.
func TestSendBelowLookaheadPanics(t *testing.T) {
	c := NewCoordinator(2, 0.5)
	defer c.Close()
	sh := c.Shard(0)
	sh.Eng.Schedule(1, func() {
		defer func() {
			if recover() == nil {
				t.Error("Send below lookahead did not panic")
			}
		}()
		sh.Send(1, 0, 1, 0.1, func() {}, 0)
	})
	c.Run(2)
}

// An infinite-lookahead coordinator carries no cross-shard traffic, so
// a send — even one whose delay meets the infinite lookahead — must
// panic.
func TestSendAtInfiniteLookaheadPanics(t *testing.T) {
	c := NewCoordinator(2, math.Inf(1))
	defer c.Close()
	sh := c.Shard(0)
	sh.Eng.Schedule(1, func() {
		for _, delay := range []float64{0.1, math.Inf(1)} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("Send with delay %v at infinite lookahead did not panic", delay)
					}
				}()
				sh.Send(1, 0, 1, delay, func() {}, 0)
			}()
		}
	})
	c.Run(2)
}

// Long idle stretches are skipped in whole windows: a run spanning a
// huge quiet gap with a tiny lookahead must still fire the far event
// at its exact time (and complete quickly — 1e6 empty barriers would
// time the test out).
func TestCoordinatorSkipsIdleWindows(t *testing.T) {
	c := NewCoordinator(2, 1e-3)
	defer c.Close()
	var firedAt float64
	c.Shard(1).Eng.Schedule(5000, func() { firedAt = c.Shard(1).Eng.Now() })
	if n := c.Run(10000); n != 1 {
		t.Fatalf("fired %d events, want 1", n)
	}
	if firedAt != 5000 {
		t.Fatalf("event fired at %v, want 5000", firedAt)
	}
	if c.Now() != 10000 {
		t.Fatalf("coordinator clock %v, want 10000", c.Now())
	}
	for i := 0; i < c.Shards(); i++ {
		if got := c.Shard(i).Eng.Now(); got != 10000 {
			t.Fatalf("shard %d clock %v, want 10000", i, got)
		}
	}
}

// An infinite lookahead means "no cross-shard traffic": the whole run
// is one window and shards advance fully independently.
func TestCoordinatorInfiniteLookahead(t *testing.T) {
	c := NewCoordinator(2, math.Inf(1))
	defer c.Close()
	counts := [2]int{}
	for i := 0; i < 2; i++ {
		i := i
		eng := c.Shard(i).Eng
		var tick func()
		tick = func() {
			counts[i]++
			if eng.Now() < 90 {
				eng.Schedule(1, tick)
			}
		}
		eng.Schedule(1, tick)
	}
	c.Run(100)
	if counts[0] != 90 || counts[1] != 90 {
		t.Fatalf("counts = %v, want [90 90]", counts)
	}
}

// coordinatorBytes returns the least bytes, over three builds, that
// constructing (and closing) a coordinator of n shards allocates. A
// stray runtime allocation can only add, so the least is the build's
// own.
func coordinatorBytes(n int, lookahead float64) uint64 {
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		c := NewCoordinator(n, lookahead)
		runtime.ReadMemStats(&after)
		c.Close()
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// assertBytesLinear fails unless a coordinator's build bytes grow
// linearly in the shard count. Differencing two sizes cancels the fixed
// costs (the worker pool); the marginal cost of a shard must be the same
// from n to 2n as from 2n to 4n. An outbox row of nshards slice headers
// per shard would double it.
func assertBytesLinear(t *testing.T, lookahead float64) {
	const n = 256
	b1, b2, b4 := float64(coordinatorBytes(n, lookahead)), float64(coordinatorBytes(2*n, lookahead)), float64(coordinatorBytes(4*n, lookahead))
	lo, hi := (b2-b1)/n, (b4-b2)/(2*n)
	t.Logf("%.0f bytes per shard from %d to %d shards, %.0f from %d to %d", lo, n, 2*n, hi, 2*n, 4*n)
	if hi > 1.1*lo {
		t.Fatalf("a shard costs %.0f bytes among %d but %.0f among %d: the build is not linear in shards", lo, 2*n, hi, 4*n)
	}
}

// An infinite-lookahead coordinator carries no cross-shard traffic; its
// bytes grow linearly in the shard count.
func TestCoordinatorBytesLinearAtInfiniteLookahead(t *testing.T) {
	assertBytesLinear(t, math.Inf(1))
}

// A windowed coordinator keeps one outbox per shard, each message naming
// its destination, not a row of outboxes per destination, so its bytes
// grow linearly in the shard count too.
func TestCoordinatorBytesLinearAtFiniteLookahead(t *testing.T) {
	assertBytesLinear(t, 0.05)
}
