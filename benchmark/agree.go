package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// benchmarkFile is the part of BENCHMARK.json this program reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// readBenchmarkFile loads BENCHMARK.json from the module root.
func readBenchmarkFile() (*benchmarkFile, error) {
	dir, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	buf, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(buf, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// worsening is how much worse b is than a, as a share of a, given the
// metric's direction; negative when b is better.
func worsening(a, b float64, better string) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runAgree runs the untraced set twice, the second time in the opposite
// workload order, and holds each metric × workload pair to its bound in
// BENCHMARK.json and the fleet fingerprints to equality.
func runAgree(opt options, stdout, stderr io.Writer) int {
	bf, err := readBenchmarkFile()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	opt.traced = false
	sets := [2]map[string]*report{{}, {}}
	for set := range sets {
		for i := range workloads {
			w := workloads[i]
			if set == 1 {
				w = workloads[len(workloads)-1-i]
			}
			rep, err := child(opt, w.name, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %v\n", err)
				return 1
			}
			sets[set][w.name] = rep
		}
	}
	code := 0
	fmt.Fprintf(stdout, "%-13s %-12s %14s %14s %8s %6s\n", "workload", "metric", "set 1", "set 2", "diff", "bound")
	for _, w := range workloads {
		a, b := sets[0][w.name], sets[1][w.name]
		if exitCode(a) != 0 || exitCode(b) != 0 {
			fmt.Fprintf(stdout, "%-13s checks failed\n", w.name)
			code = 1
		}
		for _, m := range bf.EndToEnd {
			va, vb := a.Result.Metrics[m.Name].Value, b.Result.Metrics[m.Name].Value
			// Either order counts: the two sets are the same code.
			diff := math.Max(worsening(va, vb, m.Better), worsening(vb, va, m.Better))
			verdict := ""
			if diff > m.Bound {
				verdict = "  DISAGREE"
				code = 1
			}
			fmt.Fprintf(stdout, "%-13s %-12s %14.6g %14.6g %7.1f%% %5.0f%%%s\n",
				w.name, m.Name, va, vb, 100*diff, 100*m.Bound, verdict)
		}
		switch {
		case a.Fingerprint != b.Fingerprint:
			fmt.Fprintf(stdout, "%-13s fingerprint differs: %s / %s\n", w.name, a.Fingerprint, b.Fingerprint)
			code = 1
		case a.Fingerprint != "":
			fmt.Fprintf(stdout, "%-13s fingerprint identical: %s\n", w.name, a.Fingerprint)
		}
	}
	return code
}
