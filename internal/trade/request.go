package trade

import "perfpred/internal/workload"

// reqState is one request's record from its client's issue to its
// response (thread grant → CPU segments → database calls → response).
// It carries the stage data in plain fields and a set of continuations
// bound once, when the record is first allocated. The pool that issued
// the request owns the record: a request the fleet router sends to a
// sibling pool travels there as this same record, is served there and
// comes back over the hop, and every record retires to its issuing
// pool's free list, so the steady-state request loop allocates nothing.
//
// Draw order is part of the contract: every per-seed result depends on
// which stage draws from s.serve when. Each stage draws at the instant
// its resource is granted, never ahead of it — call count and total CPU
// demand at the thread grant, the locked burst at the lock grant, a
// database call's CPU time at the agent grant, its latency at the
// call's completion, the think time after the thread is released.
type reqState struct {
	s      *simulator // the pool running the record: the serving pool while served, else the issuing one
	client int32      // the issuing closed client's index; -1 for open arrivals
	origin int32      // the issuing pool's index while served elsewhere; -1 when served where issued

	app     *appServer
	srv     int32
	cls     int32 // Config.Load index of the request's class (router key)
	d       workload.Demand
	opName  string
	issued  float64 // issue time at the issuing pool; the client's response time counts from here
	arrival float64 // admission time at the serving pool; the router's service-side time counts from here
	dbCalls int     // database calls still to make
	segment float64 // CPU time per inter-call segment

	next *reqState // free-list link

	// Continuations, bound to this record at allocation so scheduling
	// them costs no closure allocation.
	onSlot   func() // application-server thread granted
	onCS     func() // critical-section lock granted
	onCSDone func() // critical-section CPU burst finished
	onSeg    func() // CPU segment finished
	onDB     func() // database agent granted
	onDBDone func() // database CPU burst finished
	onLat    func() // per-call latency elapsed
	onHop    func() // cross-pool hop landed (bound only under a router that is not Local)
}

// getReq takes a request record from the free list, allocating (and
// binding its continuations) only when the list is empty — i.e. only
// while the in-flight population is still growing.
func (s *simulator) getReq() *reqState {
	r := s.reqFree
	if r != nil {
		s.reqFree = r.next
		r.next = nil
		s.poolReuses++
		return r
	}
	s.poolAllocs++
	r = &reqState{s: s}
	r.onSlot = r.slotGranted
	r.onCS = r.csGranted
	r.onCSDone = r.csDone
	r.onSeg = r.segDone
	r.onDB = r.dbGranted
	r.onDBDone = r.dbDone
	r.onLat = r.latDone
	if s.router != nil && !s.router.Local() {
		r.onHop = r.hopped
	}
	return r
}

// newReq takes a record for a request of class cls issued now by closed
// client c (-1 for an open arrival) with demand d.
func (s *simulator) newReq(c, cls int32, d workload.Demand) *reqState {
	r := s.getReq()
	r.client, r.origin = c, -1
	r.cls = cls
	r.d = d
	r.issued = s.eng.Now()
	return r
}

// putReq retires a finished request record to the free list.
func (s *simulator) putReq(r *reqState) {
	r.app = nil
	r.opName = ""
	r.next = s.reqFree
	s.reqFree = r
}

// hasSession reports whether the request carries its client's session:
// a closed client's request served in its own pool. Open arrivals and
// requests served in a sibling pool have none, so they bypass the
// session cache and the critical section.
func (r *reqState) hasSession() bool { return r.client >= 0 && r.origin < 0 }

// ship sends the record over the cross-pool hop to pool dst, where
// hopped runs. The hop delay equals the coordinator lookahead, so the
// send is always legal.
func (r *reqState) ship(dst *simulator) {
	s := r.s
	r.s = dst
	s.sendSeq++
	s.shard.Send(dst.shard.ID(), s.poolID, s.sendSeq, ShardLatency, r.onHop)
}

// hopped runs when the record lands off a hop: at the serving pool it
// is admitted like an open arrival, back at the issuing pool it is
// answered.
func (r *reqState) hopped() {
	if s := r.s; int32(s.poolID) != r.origin {
		s.admit(r, -1)
	} else {
		s.respond(r)
	}
}

// slotGranted runs when the application server admits the request: the
// servlet thread is held from here to the response. It samples the
// request's database-call count (plus the session-cache miss penalty
// for closed clients), draws the total CPU demand, and enters either
// the critical section (§8.1) or the first CPU segment.
func (r *reqState) slotGranted() {
	s := r.s
	r.dbCalls = s.sampleCalls(r.d.DBCallsPerRequest)
	if r.app.cache != nil && r.hasSession() {
		size := s.sessionBytes[r.client]
		if !r.app.cache.touch(int(r.client), size) {
			r.dbCalls += workload.CacheMissDBCalls
		}
	}
	totalCPU := s.serve.Exp(r.d.AppServerTime) // reference-scale demand; CPU speed scales service
	r.segment = totalCPU / float64(r.dbCalls+1)
	if cs := s.cfg.CriticalSection; cs != nil && r.hasSession() && s.serve.Float64() < cs.Fraction {
		// The request must hold the server-global lock while executing
		// the protected section — the implicit queue of §8.1.
		r.app.csLock.Acquire(0, r.onCS)
		return
	}
	r.app.cpu.Submit(r.segment, r.onSeg)
}

// csGranted runs when the critical-section lock is granted: the locked
// CPU burst's length is drawn now, not when the request queued for it.
func (r *reqState) csGranted() {
	r.app.cpu.Submit(r.s.serve.Exp(r.s.cfg.CriticalSection.MeanTime), r.onCSDone)
}

// csDone releases the lock (possibly admitting the next waiter
// synchronously) and starts the request's ordinary CPU segments.
func (r *reqState) csDone() {
	r.app.csLock.Release()
	r.app.cpu.Submit(r.segment, r.onSeg)
}

// segDone runs when a CPU segment completes: either the response is
// ready, or the request queues for a database agent in its server's
// own FIFO (§2).
func (r *reqState) segDone() {
	if r.dbCalls == 0 {
		r.finish()
		return
	}
	r.s.dbSlots.Acquire(int(r.srv), r.onDB)
}

// dbGranted runs when a database agent is granted; the call's CPU time
// is drawn at grant time, so requests draw in the order they are served.
func (r *reqState) dbGranted() {
	s := r.s
	s.dbCPU.Submit(s.serve.Exp(r.d.DBTimePerCall), r.onDBDone)
}

// dbDone releases the database agent (possibly granting a waiter
// synchronously) and either waits out the call's off-CPU latency or
// resumes on the application server's CPU.
func (r *reqState) dbDone() {
	s := r.s
	s.dbSlots.Release()
	if r.d.DBLatencyPerCall > 0 {
		// Pure per-call latency (disk/network): the thread waits it
		// out off-CPU.
		s.eng.Schedule(s.serve.Exp(r.d.DBLatencyPerCall), r.onLat)
		return
	}
	r.latDone()
}

// latDone starts the next CPU segment after a database call fully
// completes.
func (r *reqState) latDone() {
	r.dbCalls--
	r.app.cpu.Submit(r.segment, r.onSeg)
}

// finish releases the servlet thread (which may synchronously admit
// the next queued request) and answers the request: in place when it
// was issued here, over the hop back to its issuing pool otherwise.
func (r *reqState) finish() {
	s := r.s
	if s.router != nil {
		// Service-side completion at the serving pool: r.arrival is this
		// pool's admission time, so the reported response time excludes
		// hop latency. Always reported (not measurement-gated) — the
		// router's in-flight conservation is control state, not
		// statistics.
		s.router.Completed(int(s.poolID), int(r.cls), s.eng.Now()-r.arrival)
	}
	r.app.slots.Release()
	if s.measuring {
		r.app.completed++
	}
	if r.origin >= 0 {
		r.ship(s.pools[r.origin])
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
