package scenario

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"perfpred/internal/workload"
)

// TraceEvent is one recorded arrival: its time offset from trace
// start and its request type.
type TraceEvent struct {
	T    float64
	Type workload.RequestType
}

// Trace is a loaded arrival recording. Replay walks Events in order;
// a looping trace restarts after Cycle seconds, so the recorded
// pattern repeats with its gaps intact.
type Trace struct {
	Events []TraceEvent
	// Loop replays the trace cyclically.
	Loop bool
	// Cycle is the loop period, seconds (looping traces only).
	Cycle float64
}

// loadTrace parses a CSV arrival trace: one "time_seconds,request_type"
// pair per line, ascending times, with #-comment lines and an optional
// non-numeric header skipped. cycle overrides the loop period; 0
// derives it from the last arrival plus the mean recorded gap, so a
// looped replay keeps the trace's average rate across the seam.
func loadTrace(path string, loop bool, cycle float64) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading trace: %w", err)
	}
	tr := &Trace{Loop: loop}
	for lineNo, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		t, typ, err := parseTraceLine(line)
		if err != nil {
			if len(tr.Events) == 0 && lineNo == 0 {
				continue // header line
			}
			return nil, fmt.Errorf("trace %s line %d: %w", path, lineNo+1, err)
		}
		if n := len(tr.Events); n > 0 && t < tr.Events[n-1].T {
			return nil, fmt.Errorf("trace %s line %d: time %v before previous arrival %v", path, lineNo+1, t, tr.Events[n-1].T)
		}
		tr.Events = append(tr.Events, TraceEvent{T: t, Type: typ})
	}
	if len(tr.Events) == 0 {
		return nil, fmt.Errorf("trace %s holds no arrivals", path)
	}
	if loop {
		last := tr.Events[len(tr.Events)-1].T
		switch {
		case cycle > 0 && cycle <= last:
			return nil, fmt.Errorf("trace %s: cycle_seconds %v must exceed the last arrival %v", path, cycle, last)
		case cycle > 0:
			tr.Cycle = cycle
		default:
			gap := 1.0
			if n := len(tr.Events); n > 1 && last > tr.Events[0].T {
				gap = (last - tr.Events[0].T) / float64(n-1)
			}
			tr.Cycle = last + gap
		}
	}
	return tr, nil
}

func parseTraceLine(line string) (float64, workload.RequestType, error) {
	i := strings.IndexByte(line, ',')
	if i < 0 {
		return 0, "", fmt.Errorf("want time,type, got %q", line)
	}
	t, err := strconv.ParseFloat(strings.TrimSpace(line[:i]), 64)
	if err != nil {
		return 0, "", fmt.Errorf("bad arrival time in %q: %w", line, err)
	}
	if t < 0 {
		return 0, "", fmt.Errorf("negative arrival time in %q", line)
	}
	typ := strings.TrimSpace(line[i+1:])
	if typ == "" {
		return 0, "", fmt.Errorf("empty request type in %q", line)
	}
	return t, workload.RequestType(typ), nil
}

// mix derives the request mix from the trace's composition.
func (tr *Trace) mix() workload.Mix {
	counts := make(map[workload.RequestType]int)
	for _, ev := range tr.Events {
		counts[ev.Type]++
	}
	mix := make(workload.Mix, len(counts))
	for rt, n := range counts {
		mix[rt] = float64(n) / float64(len(tr.Events))
	}
	return mix
}

// span is the recorded duration: the loop cycle for looping traces,
// the last arrival time otherwise.
func (tr *Trace) span() float64 {
	if tr.Loop {
		return tr.Cycle
	}
	return tr.Events[len(tr.Events)-1].T
}

// meanRate is the trace's average arrival rate over its span.
func (tr *Trace) meanRate() float64 {
	span := tr.span()
	if span <= 0 {
		return 0
	}
	return float64(len(tr.Events)) / span
}

// peakRate estimates the trace's maximum local rate: the highest
// arrival count in any 1-second sliding window anchored at an arrival
// (falling back to the mean rate for sub-second traces).
func (tr *Trace) peakRate() float64 {
	peak := tr.meanRate()
	lo := 0
	for hi := range tr.Events {
		for tr.Events[hi].T-tr.Events[lo].T > 1 {
			lo++
		}
		if r := float64(hi - lo + 1); r > peak {
			peak = r
		}
	}
	return peak
}

// rateAt returns the trace's local empirical rate around time t:
// arrivals within ±w/2 of t over w, with w sized to ~32 events at the
// mean rate so the estimate is stable but still tracks bursts.
// Looping traces wrap t into the cycle.
func (tr *Trace) rateAt(t float64) float64 {
	span := tr.span()
	if span <= 0 {
		return 0
	}
	if tr.Loop {
		for t >= tr.Cycle {
			t -= tr.Cycle
		}
	} else if t > span {
		return 0
	}
	w := 32 / tr.meanRate()
	if w > span {
		w = span
	}
	lo, hi := t-w/2, t+w/2
	if lo < 0 {
		lo, hi = 0, w
	}
	if hi > span {
		lo, hi = span-w, span
	}
	i := sort.Search(len(tr.Events), func(k int) bool { return tr.Events[k].T >= lo })
	j := sort.Search(len(tr.Events), func(k int) bool { return tr.Events[k].T > hi })
	return float64(j-i) / w
}
