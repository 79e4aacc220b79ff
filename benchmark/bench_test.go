package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"sync/atomic"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func quickRun(t *testing.T, name string, traced bool, mutate func(*env)) (*report, *env) {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	e := &env{opt: options{workload: name, seed: 17, seconds: 1, quick: true, traced: traced}}
	if mutate != nil {
		mutate(e)
	}
	rep, err := runWorkload(w, e)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return rep, e
}

// wantMetrics holds a run's metrics to the declared list: every name
// exactly once (a map cannot hold it twice), with its unit, and nothing
// undeclared.
func wantMetrics(t *testing.T, rep *report, specs []metricSpec) {
	t.Helper()
	if len(rep.Result.Metrics) != len(specs) {
		t.Errorf("%s: %d metrics printed, %d declared", rep.Workload, len(rep.Result.Metrics), len(specs))
	}
	for _, m := range specs {
		got, ok := rep.Result.Metrics[m.Name]
		if !ok {
			t.Errorf("%s: metric %s not printed", rep.Workload, m.Name)
		} else if got.Unit != m.Unit {
			t.Errorf("%s: metric %s has unit %q, declared %q", rep.Workload, m.Name, got.Unit, m.Unit)
		}
	}
}

// TestBenchmarkFileMatchesProgram holds BENCHMARK.json and the lists in
// spec.go together.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	same := func(kind string, specs []metricSpec, defs []metricDef) {
		if len(specs) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(specs), len(defs))
			return
		}
		for i, d := range defs {
			if specs[i].metricDef != d {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, specs[i].Name, specs[i].Unit, d.Name, d.Unit)
			}
			if !metricName.MatchString(d.Name) {
				t.Errorf("%s: name %q outside [A-Za-z0-9_.-]", kind, d.Name)
			}
			if b := specs[i].Better; b != "higher" && b != "lower" {
				t.Errorf("%s: %s has direction %q", kind, d.Name, b)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the program %s", i, bf.Workloads[i].Name, w.name)
		}
	}
}

// TestQuickRuns runs every workload at -quick scale, untraced and
// traced: all checks pass, every declared metric is printed with its
// unit, the report survives a JSON round trip, and span self times add
// up to their root spans.
func TestQuickRuns(t *testing.T) {
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				rep, e := quickRun(t, w.name, traced, nil)
				if !rep.Result.Correct || rep.Result.Failed != 0 || rep.Result.Attempted < 1 || exitCode(rep) != 0 {
					t.Errorf("traced=%v: correct=%v failed=%d attempted=%d checks=%+v",
						traced, rep.Result.Correct, rep.Result.Failed, rep.Result.Attempted, rep.Checks)
				}
				specs := bf.EndToEnd
				if traced {
					specs = bf.PerLayer
				}
				wantMetrics(t, rep, specs)
				if !traced {
					for name, v := range rep.Result.Metrics {
						if !(v.Value > 0) {
							t.Errorf("end-to-end metric %s = %v, want > 0", name, v.Value)
						}
					}
				}

				buf, err := json.Marshal(rep)
				if err != nil {
					t.Fatal(err)
				}
				var back report
				if err := json.Unmarshal(buf, &back); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(rep.Result, back.Result) {
					t.Errorf("traced=%v: result changed in a JSON round trip", traced)
				}
				if traced {
					checkSelfTimes(t, e.sp.since(0))
				}
			}
		})
	}
}

// checkSelfTimes: within every tree of spans, the self times sum to the
// root's duration (within 1 %), so no time is counted twice or lost.
func checkSelfTimes(t *testing.T, spans []span) {
	t.Helper()
	if len(spans) == 0 {
		t.Error("traced run recorded no spans")
		return
	}
	self := selfTimes(spans)
	parent := make(map[int64]int64, len(spans))
	for _, s := range spans {
		parent[s.ID] = s.Parent
	}
	sum := map[int64]int64{}
	for _, s := range spans {
		root := s.ID
		for parent[root] != 0 {
			root = parent[root]
		}
		sum[root] += self[s.ID]
	}
	for _, s := range spans {
		if s.Parent != 0 {
			continue
		}
		dur := s.End - s.Start
		if d := sum[s.ID] - dur; d > dur/100 || -d > dur/100 {
			t.Errorf("span %d: self times sum to %d ns, duration %d ns", s.ID, sum[s.ID], dur)
		}
	}
}

// TestSelfTimesOverlappingChildren pins the definition: children that
// overlap count once, and a child reaching past its parent is clipped.
func TestSelfTimesOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},
		{ID: 4, Parent: 1, Start: 90, End: 120},
		{ID: 5, Parent: 2, Start: 15, End: 20},
	}
	want := map[int64]int64{1: 40, 2: 25, 3: 30, 4: 30, 5: 5}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

// TestCorruptedServeResponseFails: a reply that does not carry a finite
// positive response time must count as a failed operation and turn the
// exit code.
func TestCorruptedServeResponseFails(t *testing.T) {
	var served atomic.Int64
	rep, _ := quickRun(t, "serve_warm", false, func(e *env) {
		e.serveWrap = func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if served.Add(1)%50 != 0 {
					h.ServeHTTP(w, r)
					return
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, r)
				w.WriteHeader(rec.Code)
				_, _ = w.Write(bytes.Replace(rec.Body.Bytes(), []byte(`"response_time_s":`), []byte(`"response_time_s":-`), 1))
			})
		}
	})
	if rep.Result.Failed == 0 || rep.Result.Correct || exitCode(rep) == 0 {
		t.Errorf("corrupted replies went unnoticed: failed=%d correct=%v exit=%d", rep.Result.Failed, rep.Result.Correct, exitCode(rep))
	}
}

// TestPerturbedPaperTableFails: one changed digit in the reference
// output must fail that experiment's check.
func TestPerturbedPaperTableFails(t *testing.T) {
	golden, err := readGolden()
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(golden, []byte("== Table 2"))
	if at < 0 {
		t.Fatal("no Table 2 in the reference output")
	}
	digit := at + bytes.IndexAny(golden[at:], "123456789")
	perturbed := append([]byte(nil), golden...)
	perturbed[digit] = '0'
	rep, _ := quickRun(t, "paper_repro", false, func(e *env) { e.paperGolden = perturbed })
	if rep.Result.Failed != 1 || rep.Result.Correct || exitCode(rep) == 0 {
		t.Errorf("perturbed table: failed=%d correct=%v exit=%d checks=%+v", rep.Result.Failed, rep.Result.Correct, exitCode(rep), rep.Checks)
	}
}
