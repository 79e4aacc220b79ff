package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spanName indexes the tracer's table of span names.
type spanName int32

// span is one timed call from the benchmark into a layer. Spans of one
// request (or one fleet run, or one paper pass) share Req; Parent is
// the span that caused this one, or 0 for a root. IDs start at 1.
//
// A span holds no pointer, and the tracer allocates spans in small
// chunks as they are needed: a buffer sized for the busiest workload up
// front would sit in the live heap and slow the garbage collector's
// pace for the whole run, which made serve_churn's untraced units half
// as expensive inside a traced run as in an untraced one.
type span struct {
	ID, Parent, Req int64
	Start, End      int64 // nanoseconds since the tracer's epoch
	Name            spanName
}

const (
	spanChunk  = 8192
	spanChunks = 256 // spans beyond spanChunk × spanChunks are counted, not kept
)

// tracer keeps spans in memory and writes them out only when the run
// ends. begin reserves a slot with one atomic add, so recording takes no
// lock. A nil *tracer records nothing, which is how untraced units run
// the same code.
type tracer struct {
	epoch   time.Time
	chunks  [spanChunks]atomic.Pointer[[spanChunk]span]
	n       atomic.Int64
	dropped atomic.Int64

	mu    sync.Mutex
	names []string
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// name interns a span name; look it up once, outside the hot loop.
func (t *tracer) name(s string) spanName {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, have := range t.names {
		if have == s {
			return spanName(i)
		}
	}
	t.names = append(t.names, s)
	return spanName(len(t.names) - 1)
}

// slot returns span id's place, allocating its chunk on first use.
func (t *tracer) slot(id int64) *span {
	c := &t.chunks[(id-1)/spanChunk]
	chunk := c.Load()
	if chunk == nil {
		chunk = new([spanChunk]span)
		if !c.CompareAndSwap(nil, chunk) {
			chunk = c.Load()
		}
	}
	return &chunk[(id-1)%spanChunk]
}

// begin opens a span and returns its ID, 0 when nothing is recorded.
func (t *tracer) begin(name spanName, parent, req int64) int64 {
	if t == nil {
		return 0
	}
	id := t.n.Add(1)
	if id > spanChunk*spanChunks {
		t.dropped.Add(1)
		return 0
	}
	*t.slot(id) = span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.epoch))}
	return id
}

// end closes the span; only the goroutine that began it may end it.
func (t *tracer) end(id int64) {
	if id > 0 {
		t.slot(id).End = int64(time.Since(t.epoch))
	}
}

func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	return int(min(t.n.Load(), spanChunk*spanChunks))
}

// since copies out the spans recorded after the first `from`; call it
// only while nothing is recording.
func (t *tracer) since(from int) []span {
	out := make([]span, 0, t.len()-from)
	for id := int64(from) + 1; id <= int64(t.len()); id++ {
		out = append(out, *t.slot(id))
	}
	return out
}

// selfTimes returns, per span ID, the span's duration minus the part of
// it its child spans cover (children may overlap one another; the
// covered part is the union of their intervals clipped to the parent).
func selfTimes(spans []span) map[int64]int64 {
	kids := make(map[int64][]*span)
	for i := range spans {
		if s := &spans[i]; s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered int64
		at := s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, at), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.since(0) {
		err := enc.Encode(struct {
			ID      int64  `json:"id"`
			Parent  int64  `json:"parent"`
			Req     int64  `json:"req"`
			Name    string `json:"name"`
			StartNS int64  `json:"start_ns"`
			EndNS   int64  `json:"end_ns"`
		}{s.ID, s.Parent, s.Req, t.names[s.Name], s.Start, s.End})
		if err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
