package trade

import (
	"fmt"
	"math/bits"

	"perfpred/internal/workload"
)

// reqState is one request's record from its client's issue to its
// response (thread grant → CPU segments → database calls → response).
// It holds the stage data and nothing else: every continuation of the
// request is one of the pool's handlers, bound once per simulator,
// given the record's handle as its argument. The pool that issued the
// request owns the record, in its slot table: a request the fleet
// router sends to a sibling pool is served there through the same
// handle and comes back over the hop, and every record retires to its
// issuing pool's free list, so the steady-state request loop allocates
// nothing.
//
// Draw order is part of the contract: every per-seed result depends on
// which stage draws from s.serve when. Each stage draws at the instant
// its resource is granted, never ahead of it — call count and total CPU
// demand at the thread grant, the locked burst at the lock grant, a
// database call's CPU time at the agent grant, its latency at the
// call's completion, the think time after the thread is released.
type reqState struct {
	d       workload.Demand
	opName  string
	issued  float64 // issue time at the issuing pool; the client's response time counts from here
	arrival float64 // admission time at the serving pool; the router's service-side time counts from here
	segment float64 // CPU time per inter-call segment

	h       int32 // the record's handle: its issuing pool and its slot there
	client  int32 // the issuing closed client's index; -1 for open arrivals
	srv     int32 // the serving pool's application server
	cls     int32 // Config.Load index of the request's class (router key)
	dbCalls int32 // database calls still to make
	next    int32 // free-list link: 1 + the next free slot, 0 at the end
}

// A record's handle is the int32 argument every continuation of its
// request carries: the issuing pool's index above the record's slot in
// that pool's table. Every pool of a run splits the 32 bits alike, at
// slotBitsFor(pools): a one-pool run keeps 31 bits of slot, and a
// fleet as many as its pool index leaves (22 bits, 4 194 304 records a
// pool, at 625 pools; 20 bits, 1 048 576 records, at 2 500 or 4 096).
// packHandle panics beyond either limit.

// slotBitsFor returns how many bits of a handle name the slot in a run
// of the given number of pools.
func slotBitsFor(pools int) uint {
	if pools <= 1 {
		return 31
	}
	return min(31, 32-uint(bits.Len(uint(pools-1))))
}

// packHandle returns the handle of slot in pool's table.
func packHandle(pool, slot int, slotBits uint) int32 {
	if uint64(pool) >= 1<<(32-slotBits) || uint64(slot) >= 1<<slotBits { // a negative index wraps past either bound
		panic(fmt.Sprintf("trade: no record handle for pool %d, slot %d: %d-bit slots name %d pools of %d records",
			pool, slot, slotBits, 1<<(32-slotBits), 1<<slotBits))
	}
	return int32(uint32(pool)<<slotBits | uint32(slot))
}

// unpackHandle is packHandle's inverse.
func unpackHandle(h int32, slotBits uint) (pool, slot int) {
	u := uint32(h)
	return int(u >> slotBits), int(u & (1<<slotBits - 1))
}

// recTable is a pool's request records, free-listed by slot. Records
// are carved from chunks that never move, chunk k holding
// firstChunk<<k records (4, 8, 16, …), so a slot's chunk and offset
// follow from the slot by arithmetic. The chunk headers sit out of
// line in groups of eight, each group made with its first chunk, so a
// fleet pool, which keeps far fewer than the first group's 1 020
// records in flight, makes one 192-byte group. A header is set once,
// when its chunk is made, and a sibling serving a record reads the
// header of a chunk that existed before the record's handle reached it
// through the window barrier, so the table publishes nothing.
type recTable struct {
	groups [4]*[8][]reqState // chunk k's header is groups[k/8][k%8]; a one-pool run's 1<<31 slots fill 30 chunks
	n      uint32            // slots handed out so far, which flushMetrics counts as records made
	base   uint32            // the handle of slot 0
	free   int32             // 1 + the first free slot, 0 when none
	reused uint64            // records taken from the free list
}

// firstChunk is how many records a pool's first chunk holds.
const firstChunk = 4

// at returns the record in slot, which chunk k holds from slot
// firstChunk<<k − firstChunk on.
func (t *recTable) at(slot uint32) *reqState {
	k := uint(bits.Len32(slot+firstChunk)) - 3 // unsigned: the shift needs no sign check
	return &t.groups[k/8][k%8][slot+firstChunk-firstChunk<<k]
}

// rec resolves a handle to its record, in the issuing pool's table
// wherever the request is being served. A handle of another pool, less
// this pool's base, wraps past every slot a handle can name, so past
// the n this pool has handed out.
func (s *simulator) rec(h int32) *reqState {
	t, slot := &s.recs, uint32(h)-s.recs.base
	if slot >= t.n {
		t, slot = &s.pools[uint32(h)>>s.slotBits].recs, uint32(h)&(1<<s.slotBits-1)
	}
	return t.at(slot)
}

// issuedHere reports whether this pool issued request r.
func (s *simulator) issuedHere(r *reqState) bool {
	return uint32(r.h)-s.recs.base < s.recs.n
}

// getReq takes a request record from the free list, making a new slot
// — and a new chunk when the last one is used up — only when the list
// is empty, i.e. only while the in-flight population is still growing.
func (s *simulator) getReq() *reqState {
	t := &s.recs
	if t.free > 0 {
		r := t.at(uint32(t.free - 1))
		t.free = r.next
		r.next = 0
		t.reused++
		return r
	}
	if k := bits.Len32(t.n+firstChunk) - 3; t.n+firstChunk == firstChunk<<k { // the first slot of chunk k
		if k%8 == 0 {
			t.groups[k/8] = new([8][]reqState)
		}
		t.groups[k/8][k%8] = make([]reqState, firstChunk<<k)
	}
	r := t.at(t.n)
	r.h = packHandle(int(s.poolID), int(t.n), s.slotBits)
	t.n++
	return r
}

// newReq takes a record for a request of class cls issued now by closed
// client c (-1 for an open arrival) with demand d.
func (s *simulator) newReq(c, cls int32, d workload.Demand) *reqState {
	r := s.getReq()
	r.client = c
	r.cls = cls
	r.d = d
	r.issued = s.eng.Now()
	return r
}

// putReq retires a finished request record to the free list of the
// pool that issued it, which is where it is answered.
func (s *simulator) putReq(r *reqState) {
	r.opName = ""
	r.next = s.recs.free
	s.recs.free = int32(uint32(r.h)-s.recs.base) + 1
}

// hasSession reports whether request r carries its client's session: a
// closed client's request served in its own pool. Open arrivals and
// requests served in a sibling pool have none, so they bypass the
// session cache and the critical section.
func (s *simulator) hasSession(r *reqState) bool { return r.client >= 0 && s.issuedHere(r) }

// bindHandlers binds the pool's request continuations, once: each
// finds its record from the handle it is given. A pool binds them with
// the first request it admits, so building a fleet pool costs no
// closure for them.
func (s *simulator) bindHandlers() {
	s.onSlot = s.slotGranted
	s.onCS = s.csGranted
	s.onCSDone = s.csDone
	s.onSeg = s.segDone
	s.onDB = s.dbGranted
	s.onDBDone = s.dbDone
	s.onLat = s.latDone
}

// ship sends request r over the cross-pool hop to pool dst, where dst's
// hopped runs with r's handle. The hop delay equals the coordinator
// lookahead, so the send is always legal.
func (s *simulator) ship(r *reqState, dst *simulator) {
	s.sendSeq++
	s.shard.Send(dst.shard.ID(), s.poolID, s.sendSeq, ShardLatency, dst.onHop, r.h)
}

// hopped is onHop: a request lands off a hop. At the serving pool it is
// admitted like an open arrival, back at the issuing pool it is
// answered.
func (s *simulator) hopped() {
	r := s.rec(s.eng.Arg())
	if s.issuedHere(r) {
		s.respond(r)
	} else {
		s.admit(r, -1)
	}
}

// slotGranted is onSlot: the application server admits the request,
// and the servlet thread is held from here to the response. It samples
// the request's database-call count (plus the session-cache miss
// penalty for closed clients), draws the total CPU demand, and enters
// either the critical section (§8.1) or the first CPU segment.
func (s *simulator) slotGranted(h int32) {
	r := s.rec(h)
	app := s.apps[r.srv]
	r.dbCalls = int32(s.sampleCalls(r.d.DBCallsPerRequest))
	if app.cache != nil && s.hasSession(r) {
		size := s.sessionBytes[r.client]
		if !app.cache.touch(int(r.client), size) {
			r.dbCalls += workload.CacheMissDBCalls
		}
	}
	totalCPU := s.serve.Exp(r.d.AppServerTime) // reference-scale demand; CPU speed scales service
	r.segment = totalCPU / float64(r.dbCalls+1)
	if cs := s.cfg.CriticalSection; cs != nil && s.hasSession(r) && s.serve.Float64() < cs.Fraction {
		// The request must hold the server-global lock while executing
		// the protected section — the implicit queue of §8.1.
		app.csLock.Acquire(0, s.onCS, h)
		return
	}
	app.cpu.Submit(r.segment, s.onSeg, h)
}

// csGranted is onCS: the critical-section lock is granted, and the
// locked CPU burst's length is drawn now, not when the request queued
// for it.
func (s *simulator) csGranted(h int32) {
	s.apps[s.rec(h).srv].cpu.Submit(s.serve.Exp(s.cfg.CriticalSection.MeanTime), s.onCSDone, h)
}

// csDone is onCSDone: it releases the lock (possibly admitting the next
// waiter synchronously) and starts the request's ordinary CPU segments.
func (s *simulator) csDone(h int32) {
	r := s.rec(h)
	app := s.apps[r.srv]
	app.csLock.Release()
	app.cpu.Submit(r.segment, s.onSeg, h)
}

// segDone is onSeg: a CPU segment completes, and either the response is
// ready or the request queues for a database agent in its server's own
// FIFO (§2).
func (s *simulator) segDone(h int32) {
	r := s.rec(h)
	if r.dbCalls == 0 {
		s.finish(r)
		return
	}
	s.dbSlots.Acquire(int(r.srv), s.onDB, h)
}

// dbGranted is onDB: a database agent is granted, and the call's CPU
// time is drawn now, so requests draw in the order they are served.
func (s *simulator) dbGranted(h int32) {
	s.dbCPU.Submit(s.serve.Exp(s.rec(h).d.DBTimePerCall), s.onDBDone, h)
}

// dbDone is onDBDone: it releases the database agent (possibly granting
// a waiter synchronously) and either waits out the call's off-CPU
// latency or resumes on the application server's CPU.
func (s *simulator) dbDone(h int32) {
	r := s.rec(h)
	s.dbSlots.Release()
	if r.d.DBLatencyPerCall > 0 {
		// Pure per-call latency (disk/network): the thread waits it
		// out off-CPU.
		s.eng.ScheduleArg(s.serve.Exp(r.d.DBLatencyPerCall), s.onLat, h)
		return
	}
	s.nextSegment(r)
}

// latDone is onLat: a database call's latency has elapsed.
func (s *simulator) latDone() { s.nextSegment(s.rec(s.eng.Arg())) }

// nextSegment starts the next CPU segment after a database call fully
// completes.
func (s *simulator) nextSegment(r *reqState) {
	r.dbCalls--
	s.apps[r.srv].cpu.Submit(r.segment, s.onSeg, r.h)
}

// finish releases the servlet thread (which may synchronously admit
// the next queued request) and answers the request: in place when it
// was issued here, over the hop back to its issuing pool otherwise.
func (s *simulator) finish(r *reqState) {
	app := s.apps[r.srv]
	if s.router != nil {
		// Service-side completion at the serving pool: r.arrival is this
		// pool's admission time, so the reported response time excludes
		// hop latency. Always reported (not measurement-gated) — the
		// router's in-flight conservation is control state, not
		// statistics.
		s.router.Completed(int(s.poolID), int(r.cls), s.eng.Now()-r.arrival)
	}
	app.slots.Release()
	if s.measuring {
		app.completed++
	}
	if !s.issuedHere(r) {
		origin, _ := unpackHandle(r.h, s.slotBits)
		s.ship(r, s.pools[origin])
		return
	}
	s.respond(r)
}

// respond answers a request at the pool that issued it: it records the
// response time from the issue, and — for a closed client — schedules
// the next request after a think time. The think-time draw
// deliberately happens after finish released the thread, so a
// synchronously admitted request makes its draws first.
func (s *simulator) respond(r *reqState) {
	rt := s.eng.Now() - r.issued
	if s.intercept != nil {
		s.intercept(s.eng.Now(), rt)
	} else if s.measuring {
		s.classes[r.cls].acc.record(rt)
		if s.ops != nil && r.opName != "" {
			s.ops.record(r.opName, rt)
		}
	}
	if r.client >= 0 {
		s.eng.ScheduleArg(s.thinkDelay(int(r.cls)), s.onThink, r.client)
	}
	s.putReq(r)
}
