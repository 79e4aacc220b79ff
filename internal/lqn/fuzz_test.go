package lqn

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadModel hardens the JSON model parser: arbitrary input must
// either produce a validated model that solves and round-trips, or a
// clean error — never a panic.
func FuzzReadModel(f *testing.F) {
	f.Add(`{"processors":[{"name":"cpu","mult":1,"speed":1,"sched":"ps"}],
	        "tasks":[{"name":"app","processor":"cpu","mult":5,
	                  "entries":[{"name":"op","demand":0.02}]}],
	        "classes":[{"name":"users","population":10,"think":1,
	                    "calls":[{"target":"op","mean":1}]}]}`)
	f.Add(`{"processors":[{"name":"p","mult":2,"speed":2,"sched":"fcfs"}],
	        "tasks":[{"name":"t","processor":"p","mult":1,
	                  "entries":[{"name":"e","demand":0.1,"demand2":0.05,
	                              "calls":[{"target":"e2","mean":1.5,"kind":"async"}]},
	                             {"name":"e2","demand":0.01}]}],
	        "classes":[{"name":"open","arrivalRate":3,"calls":[{"target":"e","mean":1}]},
	                   {"name":"gold","population":4,"think":0.5,"priority":2,
	                    "calls":[{"target":"e","mean":1}]}]}`)
	f.Add(`{}`)
	f.Add(`{"processors":[]}`)
	f.Add(`not json at all`)
	f.Add(`{"processors":[{"name":"p","mult":1,"speed":1,"sched":"ps"}],
	        "tasks":[{"name":"t","processor":"p","mult":1,
	                  "entries":[{"name":"a","demand":0,"calls":[{"target":"a","mean":1}]}]}],
	        "classes":[{"name":"c","population":1,"calls":[{"target":"a","mean":1}]}]}`)

	f.Fuzz(func(t *testing.T, doc string) {
		m, err := ReadModel(strings.NewReader(doc))
		if err != nil {
			return // clean rejection
		}
		// Anything accepted must be internally consistent: it
		// re-validates, serialises, re-parses and solves without
		// panicking.
		if err := m.Validate(); err != nil {
			t.Fatalf("accepted model fails validation: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteModel(&buf, m); err != nil {
			t.Fatalf("accepted model fails to serialise: %v", err)
		}
		back, err := ReadModel(&buf)
		if err != nil {
			t.Fatalf("serialised model fails to re-parse: %v", err)
		}
		// Solving may fail cleanly (e.g. open saturation) but must not
		// panic or hang.
		_, _ = Solve(back, Options{})
	})
}
