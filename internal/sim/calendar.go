package sim

import "math"

// calendarQueue is a bucketed event scheduler (R. Brown's calendar
// queue): events are hashed into time-slot buckets of a common width,
// and dequeueing walks the bucket "calendar" from the last dequeue
// position, so both enqueue and dequeue are O(1) amortised instead of
// the binary heap's O(log n). A calendar engine keeps its events that
// are scheduled once here, because a large sharded run keeps hundreds
// of thousands of them pending (one think timer per idle client),
// where the heap's sift depth would dominate the event loop; the few
// events that move (one completion per station) stay in the heap.
//
// Ordering is identical to the heap: (time, seq) with scheduling order
// breaking time ties, so an engine produces the same firing sequence
// whichever structure backs it — the equivalence is property-tested.
// The bucket layout (count and width) never affects that order, only
// how many events a dequeue has to look at.
//
// Buckets are intrusive singly-linked lists threaded through the
// events' own next field (an event is either queued or on the free
// list, never both, so the field is free here). Push is a head
// prepend and pop an unlink, so steady-state operation performs NO
// allocation at all — the only allocations ever are the bucket-head
// slices, at the first layout and when the bucket count doubles or
// halves (wide hysteresis: grow past 2× buckets, shrink under ¼).
//
// The calendar is laid out once, on first read. Until then a push
// prepends to one unbucketed chain and tracks its lowest and highest
// time, and the first peek buckets every resident event once, at the
// bucket count pushing them one by one would have grown to. A fleet
// engine built with hundreds of thousands of think timers so links
// each timer once rather than once per doubling.
//
// Before any dequeue history the width is fitted to the head of the
// schedule, where every dequeue happens: calendarGapsPerSlot mean gaps
// among the events in the first 1/calendarHeadBins of the time spread,
// never wider than the fit to the mean gap over the whole spread. A
// closed population with exponential residency keeps an exponentially
// skewed pending set, so the spread fit is about ln N too wide at the
// head. Once a rate measurement exists the width follows the measured
// dequeue rate: the queue counts pops and periodically re-buckets in
// place when the width has drifted from calendarGapsPerSlot mean
// dequeue gaps by more than calendarRefitSlack either way.
type calendarQueue struct {
	// buckets are the bucket heads, events chaining via event.next; len
	// is a power of two, and nil until the first peek lays them out.
	buckets []*event
	// chain holds the events pushed before the layout, and lo and hi
	// bound their times.
	chain  *event
	lo, hi float64
	width  float64
	inv    float64 // 1/width: slot numbers are computed by multiplication
	size   int
	// lastTime is the dequeue cursor: no resident event's time is below
	// it, so the slot search can start at its slot.
	lastTime float64
	// cachedMin memoises the (time,seq)-least resident event, its
	// bucket and its list predecessor (nil when at the head), shared
	// between peek and pop so each event is located exactly once; a nil
	// cachedMin with size > 0 means "unknown, recompute on demand".
	cachedMin *event
	minPrev   *event
	minB      int

	// Dequeue-rate tracking: pops and sim-time advanced since the last
	// width check, and the mean gap that check measured (0 until one
	// has).
	pops      int
	sinceTime float64
	gap       float64

	scanned uint64 // events visited by findMin
	refits  uint64 // same-count re-buckets made by the rate check
	links   uint64 // events linked into a bucket
}

const (
	calendarMinBuckets = 8
	// calendarGapsPerSlot mean dequeue gaps per slot keeps head chains
	// a few events long while a pop rarely walks an empty slot.
	calendarGapsPerSlot = 3
	// calendarRefitSlack is how far the width may drift from its target
	// before a re-bucket: a factor of two costs at most a few extra
	// events per scan and keeps re-fits rare.
	calendarRefitSlack = 2
	// calendarMinCheckPops is the least number of pops a rate
	// measurement averages over.
	calendarMinCheckPops = 1024
	// calendarMaxSlot clamps slot numbers so distant times (long idle
	// horizons) cannot overflow, with room for a cursor to walk a full
	// year past it. Clamped events share one slot and stay ordered by
	// the (time, seq) comparison inside it.
	calendarMaxSlot = 1 << 62
	// calendarHeadBins is how finely a width fit before any dequeue
	// history cuts the time spread: it counts the events in the first of
	// that many equal bins.
	calendarHeadBins = 64
)

// slot maps an event time onto the calendar's integer slot number. It
// is monotone in t, which is all the dequeue search relies on.
func (cq *calendarQueue) slot(t float64) int64 {
	s := t * cq.inv
	if s >= calendarMaxSlot {
		return calendarMaxSlot
	}
	return int64(s)
}

// bucket is the index of the bucket that holds time t's slot.
func (cq *calendarQueue) bucket(t float64) int {
	return int(cq.slot(t) & int64(len(cq.buckets)-1))
}

// link prepends ev to its slot's bucket and returns the bucket index.
func (cq *calendarQueue) link(ev *event) int {
	i := cq.bucket(ev.time)
	ev.next = cq.buckets[i]
	cq.buckets[i] = ev
	cq.links++
	return i
}

func (cq *calendarQueue) push(ev *event) {
	if cq.buckets == nil {
		if cq.size == 0 || ev.time < cq.lo {
			cq.lo = ev.time
		}
		if cq.size == 0 || ev.time > cq.hi {
			cq.hi = ev.time
		}
		ev.next = cq.chain
		cq.chain = ev
		cq.size++
		return
	}
	if cq.size+1 > 2*len(cq.buckets) {
		cq.resize(2 * len(cq.buckets))
	}
	i := cq.link(ev)
	cq.size++
	if cq.cachedMin != nil {
		if eventBefore(ev, cq.cachedMin) {
			cq.cachedMin = ev
			cq.minPrev = nil
			cq.minB = i
		} else if i == cq.minB && cq.minPrev == nil {
			// The cached min was this bucket's head; the prepend just
			// became its predecessor.
			cq.minPrev = ev
		}
	}
}

// peek returns the (time,seq)-least resident event without removing
// it, or nil when the queue is empty.
func (cq *calendarQueue) peek() *event {
	if cq.size == 0 {
		return nil
	}
	if cq.cachedMin == nil {
		if cq.buckets == nil {
			cq.layout()
		}
		cq.findMin()
	}
	return cq.cachedMin
}

// layout buckets the events pushed before the first read, each once, at
// the bucket count push's growth rule would have reached (the least
// power of two n with 2n ≥ size) and the head-fitted width.
func (cq *calendarQueue) layout() {
	n := calendarMinBuckets
	for 2*n < cq.size {
		n *= 2
	}
	all := cq.chain
	cq.chain = nil
	cq.relink(all, n, cq.headWidth(all, cq.lo, cq.hi))
}

// popMin removes and returns the least event. Requires a peek that
// returned it since the queue last changed.
func (cq *calendarQueue) popMin() *event {
	ev := cq.cachedMin
	if cq.minPrev != nil {
		cq.minPrev.next = ev.next
	} else {
		cq.buckets[cq.minB] = ev.next
	}
	ev.next = nil
	cq.size--
	cq.pops++
	cq.lastTime = ev.time
	cq.cachedMin = nil
	cq.minPrev = nil
	if cq.size < len(cq.buckets)/4 && len(cq.buckets) > calendarMinBuckets {
		cq.resize(len(cq.buckets) / 2)
	} else if cq.pops >= calendarMinCheckPops && cq.pops >= cq.size/4 {
		cq.checkRate()
	}
	return ev
}

// checkRate closes a measurement period: it records the mean dequeue
// gap over the period and re-buckets at the same bucket count when the
// width is off its target by more than the slack.
func (cq *calendarQueue) checkRate() {
	gap := (cq.lastTime - cq.sinceTime) / float64(cq.pops)
	cq.pops = 0
	cq.sinceTime = cq.lastTime
	if !(gap > 0) || math.IsInf(gap, 0) {
		return // a burst at one instant carries no rate
	}
	cq.gap = gap
	target := calendarGapsPerSlot * gap
	if cq.width > calendarRefitSlack*target || cq.width*calendarRefitSlack < target {
		cq.refits++
		all, _, _ := cq.unlinkAll()
		cq.relink(all, len(cq.buckets), target)
	}
}

// findMin locates the least resident event: walk slots in calendar
// order from the cursor for up to one full year (the classic
// O(1)-amortised search), then fall back to a direct scan when the
// calendar is sparse. Requires size > 0.
func (cq *calendarQueue) findMin() {
	nb := len(cq.buckets)
	mask := int64(nb - 1)
	// No resident event lies below the cursor's slot and slot numbers
	// are monotone in time, so the first slot holding an event of its
	// own year holds the global minimum.
	s := cq.slot(cq.lastTime)
	for k := 0; k < nb; k++ {
		i := int(s & mask)
		var best, bestPrev, prev *event
		for ev := cq.buckets[i]; ev != nil; ev = ev.next {
			cq.scanned++
			if cq.slot(ev.time) <= s && (best == nil || eventBefore(ev, best)) {
				best, bestPrev = ev, prev
			}
			prev = ev
		}
		if best != nil {
			cq.cachedMin = best
			cq.minPrev = bestPrev
			cq.minB = i
			return
		}
		s++
	}
	// Sparse: nothing within a year of the cursor. Direct scan.
	var best, bestPrev *event
	for bi, head := range cq.buckets {
		var prev *event
		for ev := head; ev != nil; ev = ev.next {
			cq.scanned++
			if best == nil || eventBefore(ev, best) {
				best, bestPrev = ev, prev
				cq.minB = bi
			}
			prev = ev
		}
	}
	cq.cachedMin = best
	cq.minPrev = bestPrev
}

// resize changes the bucket count to n. Before any dequeue history
// exists the width is fitted to the head of the resident events;
// afterwards the measured rate sets it, unless the spread fit is
// narrower still (a burst scheduled since the last measurement).
func (cq *calendarQueue) resize(n int) {
	all, lo, hi := cq.unlinkAll()
	var width float64
	if cq.gap > 0 {
		width = min(calendarGapsPerSlot*cq.gap, cq.spreadWidth(hi-lo))
	} else {
		width = cq.headWidth(all, lo, hi)
	}
	cq.relink(all, n, width)
}

// spreadWidth is four mean gaps over the resident events' time spread,
// or 1 when they span none.
func (cq *calendarQueue) spreadWidth(spread float64) float64 {
	if cq.size > 1 && spread > 0 {
		return spread / float64(cq.size) * 4
	}
	return 1
}

// headWidth fits the width to the chain all, whose times lie in
// [lo, hi], where it will be dequeued first: calendarGapsPerSlot mean
// gaps among the events in the first of calendarHeadBins bins of the
// spread (one pass over the chain), and never wider than spreadWidth.
func (cq *calendarQueue) headWidth(all *event, lo, hi float64) float64 {
	if !(hi > lo) {
		return 1
	}
	scale := calendarHeadBins / (hi - lo)
	head := 0
	for ev := all; ev != nil; ev = ev.next {
		if (ev.time-lo)*scale < 1 {
			head++
		}
	}
	return min(cq.spreadWidth(hi-lo), calendarGapsPerSlot/scale/float64(head))
}

// unlinkAll empties every bucket into one chain and returns it with
// the least and greatest time on it.
func (cq *calendarQueue) unlinkAll() (all *event, lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for bi, head := range cq.buckets {
		for ev := head; ev != nil; {
			next := ev.next
			ev.next = all
			all = ev
			if ev.time < lo {
				lo = ev.time
			}
			if ev.time > hi {
				hi = ev.time
			}
			ev = next
		}
		cq.buckets[bi] = nil
	}
	return all, lo, hi
}

// relink rebuilds the calendar from an unlinked chain with n buckets
// (a power of two) of the given width. Events are relinked in place;
// the only allocation is the bucket-head slice, and only when n
// changes.
func (cq *calendarQueue) relink(all *event, n int, width float64) {
	if n < calendarMinBuckets {
		n = calendarMinBuckets
	}
	inv := 1 / width
	if !(width > 0) || math.IsInf(width, 0) || math.IsInf(inv, 0) {
		width, inv = 1, 1
	}
	if n != len(cq.buckets) {
		cq.buckets = make([]*event, n)
	}
	cq.width = width
	cq.inv = inv
	cq.cachedMin = nil
	cq.minPrev = nil
	for ev := all; ev != nil; {
		next := ev.next
		cq.link(ev)
		ev = next
	}
}
