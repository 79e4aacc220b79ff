package lqn

import (
	"errors"
	"fmt"
	"sort"
)

// Scheduling selects a processor's queueing discipline.
type Scheduling string

const (
	// PS is processor sharing — the time-sharing servers of the
	// paper's platform.
	PS Scheduling = "ps"
	// FCFS is first-come-first-served — the paper's database disk is
	// "a processor that can only process one request at a time".
	FCFS Scheduling = "fcfs"
	// Delay is an infinite-server (pure delay) resource.
	Delay Scheduling = "delay"
)

// Processor is a hardware resource executing task demands.
type Processor struct {
	// Name labels the processor.
	Name string
	// Mult is the number of identical servers (1 for a single CPU).
	Mult int
	// Speed is a rate multiplier applied to all demands executed here:
	// entry demands are specified on a speed-1.0 reference.
	Speed float64
	// Sched is the queueing discipline.
	Sched Scheduling
}

// Task is a software server: a pool of Mult identical threads running
// on a processor and accepting requests via its entries.
type Task struct {
	// Name labels the task.
	Name string
	// Processor names the processor this task runs on.
	Processor string
	// Mult is the thread pool size (the "requests processed at the
	// same time via time-sharing").
	Mult int
	// Entries are the task's service entry points.
	Entries []*Entry
}

// Entry is one operation of a task: a processor demand plus
// synchronous calls to lower-layer entries.
type Entry struct {
	// Name labels the entry; entry names are global in a model.
	Name string
	// Demand is the mean phase-1 processor time (seconds at speed 1.0)
	// the entry consumes per invocation, before the reply is sent.
	// Demands are exponentially distributed in the underlying model,
	// per the paper (§5).
	Demand float64
	// Demand2 is the mean second-phase processor time: work the entry
	// performs *after* replying to its caller ("service with a second
	// phase", one of the language features §5 lists). It loads the
	// processor but does not extend the caller's response time.
	Demand2 float64
	// Calls are the entry's mean call counts.
	Calls []Call
}

// CallKind selects a call's interaction semantics.
type CallKind string

const (
	// Sync is a rendezvous: the caller blocks until the target
	// replies. The empty string means Sync.
	Sync CallKind = "sync"
	// Async is send-no-reply: the request loads the target but the
	// caller continues immediately ("asynchronous calls", §5).
	Async CallKind = "async"
	// Forward hands the request on: the target (and its chain) must
	// finish before the original caller's reply, like a synchronous
	// call, but the forwarding task's thread is released ("the
	// forwarding of requests onto another queue", §5).
	Forward CallKind = "forward"
)

// Call is a mean number of requests to a target entry per invocation
// of the calling entry. Fractional means are allowed ("browse requests
// make 1.14 database requests on average").
type Call struct {
	// Target names the called entry.
	Target string
	// Mean is the mean calls per invocation.
	Mean float64
	// Kind is the interaction semantics; empty means Sync.
	Kind CallKind
}

// kind returns the call's effective kind with the Sync default.
func (c Call) kind() CallKind {
	if c.Kind == "" {
		return Sync
	}
	return c.Kind
}

// Class is a reference task. A closed class is a population of clients
// that issues one top-level request at a time, thinks, and repeats; an
// open class is a Poisson stream of requests at a fixed arrival rate
// ("some or all clients sending requests at a constant rate", §8.1).
// Setting ArrivalRate > 0 makes the class open; Population must then
// be 0. Mixing open and closed classes in one model gives the mixed
// networks §5 lists.
type Class struct {
	// Name labels the service class.
	Name string
	// Population is the number of closed clients (0 for open classes).
	Population int
	// Think is the mean exponential think time between a response and
	// the next request, seconds (closed classes only).
	Think float64
	// ArrivalRate is the open arrival rate in requests/second (0 for
	// closed classes).
	ArrivalRate float64
	// Priority orders classes at priority-scheduled contention points:
	// higher values pre-empt lower ones ("priority queuing
	// disciplines", §5). Equal priorities (the default 0) share
	// fairly.
	Priority int
	// Calls are the top-level entries invoked per request (normally a
	// single call with mean 1, but mixes are expressible).
	Calls []Call
}

// open reports whether the class is an open arrival stream.
func (c *Class) open() bool { return c.ArrivalRate > 0 }

// Model is a complete layered queuing network.
type Model struct {
	Processors []*Processor
	Tasks      []*Task
	Classes    []*Class
}

// entry lookup and processor lookup maps, built during validation.
type resolved struct {
	entries    map[string]*Entry
	entryTask  map[string]*Task
	processors map[string]*Processor
	// entryNames is every entry name in sorted order, so demand folding
	// and layered solving iterate entries deterministically instead of
	// in map order.
	entryNames []string
}

// Validate checks structural integrity: unique names, resolvable
// references, positive demands/multiplicities and an acyclic call
// graph. It returns the first problem found.
func (m *Model) Validate() error {
	_, err := m.resolve()
	return err
}

func (m *Model) resolve() (*resolved, error) {
	if len(m.Processors) == 0 || len(m.Tasks) == 0 || len(m.Classes) == 0 {
		return nil, errors.New("lqn: model needs processors, tasks and classes")
	}
	r := &resolved{
		entries:    make(map[string]*Entry),
		entryTask:  make(map[string]*Task),
		processors: make(map[string]*Processor),
	}
	for _, p := range m.Processors {
		if p.Name == "" {
			return nil, errors.New("lqn: processor needs a name")
		}
		if _, dup := r.processors[p.Name]; dup {
			return nil, fmt.Errorf("lqn: duplicate processor %q", p.Name)
		}
		if p.Mult <= 0 {
			return nil, fmt.Errorf("lqn: processor %q needs positive multiplicity", p.Name)
		}
		if p.Speed <= 0 {
			return nil, fmt.Errorf("lqn: processor %q needs positive speed", p.Name)
		}
		switch p.Sched {
		case PS, FCFS, Delay:
		default:
			return nil, fmt.Errorf("lqn: processor %q has unknown scheduling %q", p.Name, p.Sched)
		}
		r.processors[p.Name] = p
	}
	for _, t := range m.Tasks {
		if t.Name == "" {
			return nil, errors.New("lqn: task needs a name")
		}
		if t.Mult <= 0 {
			return nil, fmt.Errorf("lqn: task %q needs positive multiplicity", t.Name)
		}
		if _, ok := r.processors[t.Processor]; !ok {
			return nil, fmt.Errorf("lqn: task %q references unknown processor %q", t.Name, t.Processor)
		}
		if len(t.Entries) == 0 {
			return nil, fmt.Errorf("lqn: task %q has no entries", t.Name)
		}
		for _, e := range t.Entries {
			if e.Name == "" {
				return nil, fmt.Errorf("lqn: task %q has an unnamed entry", t.Name)
			}
			if _, dup := r.entries[e.Name]; dup {
				return nil, fmt.Errorf("lqn: duplicate entry %q", e.Name)
			}
			if e.Demand < 0 {
				return nil, fmt.Errorf("lqn: entry %q has negative demand", e.Name)
			}
			if e.Demand2 < 0 {
				return nil, fmt.Errorf("lqn: entry %q has negative second-phase demand", e.Name)
			}
			r.entries[e.Name] = e
			r.entryTask[e.Name] = t
		}
	}
	for _, t := range m.Tasks {
		for _, e := range t.Entries {
			for _, c := range e.Calls {
				if _, ok := r.entries[c.Target]; !ok {
					return nil, fmt.Errorf("lqn: entry %q calls unknown entry %q", e.Name, c.Target)
				}
				if c.Mean < 0 {
					return nil, fmt.Errorf("lqn: entry %q has negative call mean to %q", e.Name, c.Target)
				}
				switch c.kind() {
				case Sync, Async, Forward:
				default:
					return nil, fmt.Errorf("lqn: entry %q has unknown call kind %q", e.Name, c.Kind)
				}
			}
		}
	}
	seen := make(map[string]bool)
	for _, cl := range m.Classes {
		if cl.Name == "" {
			return nil, errors.New("lqn: class needs a name")
		}
		if seen[cl.Name] {
			return nil, fmt.Errorf("lqn: duplicate class %q", cl.Name)
		}
		seen[cl.Name] = true
		if cl.Population < 0 {
			return nil, fmt.Errorf("lqn: class %q has negative population", cl.Name)
		}
		if cl.Think < 0 {
			return nil, fmt.Errorf("lqn: class %q has negative think time", cl.Name)
		}
		if cl.ArrivalRate < 0 {
			return nil, fmt.Errorf("lqn: class %q has negative arrival rate", cl.Name)
		}
		if cl.open() && cl.Population != 0 {
			return nil, fmt.Errorf("lqn: class %q is open (arrival rate %v) but also has population %d", cl.Name, cl.ArrivalRate, cl.Population)
		}
		for _, c := range cl.Calls {
			if c.kind() == Async {
				return nil, fmt.Errorf("lqn: class %q makes an asynchronous top-level call; reference calls must await replies", cl.Name)
			}
		}
		if len(cl.Calls) == 0 {
			return nil, fmt.Errorf("lqn: class %q makes no calls", cl.Name)
		}
		for _, c := range cl.Calls {
			if _, ok := r.entries[c.Target]; !ok {
				return nil, fmt.Errorf("lqn: class %q calls unknown entry %q", cl.Name, c.Target)
			}
			if c.Mean < 0 {
				return nil, fmt.Errorf("lqn: class %q has negative call mean", cl.Name)
			}
		}
	}
	if err := m.checkAcyclic(r); err != nil {
		return nil, err
	}
	r.entryNames = make([]string, 0, len(r.entries))
	for name := range r.entries {
		r.entryNames = append(r.entryNames, name)
	}
	sort.Strings(r.entryNames)
	return r, nil
}

// checkAcyclic rejects call cycles: layered queuing requires a
// strictly layered (acyclic) call graph.
func (m *Model) checkAcyclic(r *resolved) error {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[string]int)
	var visit func(name string) error
	visit = func(name string) error {
		switch color[name] {
		case grey:
			return fmt.Errorf("lqn: call cycle through entry %q", name)
		case black:
			return nil
		}
		color[name] = grey
		for _, c := range r.entries[name].Calls {
			if err := visit(c.Target); err != nil {
				return err
			}
		}
		color[name] = black
		return nil
	}
	for name := range r.entries {
		if err := visit(name); err != nil {
			return err
		}
	}
	return nil
}
