package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"perfpred/internal/obs"
)

// TestServeColdWarmDrain is the service's end-to-end smoke: bring
// predserve up on an ephemeral port, pay one cold build, see warm
// requests hit the model cache on /metrics without simulating, pay the
// key's percentile calibration on its first percentile request, and
// require the stop signal to drain to a clean return and a report that
// parses.
func TestServeColdWarmDrain(t *testing.T) {
	dir := t.TempDir()
	addrFile, report := filepath.Join(dir, "addr"), filepath.Join(dir, "report.json")
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-calib-seconds", "10", "-report", report}, stop, io.Discard)
	}()

	var base string
	for deadline := time.Now().Add(10 * time.Second); base == ""; time.Sleep(10 * time.Millisecond) {
		select {
		case err := <-done:
			t.Fatalf("predserve returned before listening: %v", err)
		default:
		}
		if buf, err := os.ReadFile(addrFile); err == nil && len(buf) > 0 {
			base = "http://" + strings.TrimSpace(string(buf))
		} else if time.Now().After(deadline) {
			t.Fatalf("predserve never wrote %s", addrFile)
		}
	}
	client := &http.Client{Timeout: 30 * time.Second}
	get := func(path string) []byte {
		t.Helper()
		resp, err := client.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, err %v, body %s", path, resp.StatusCode, err, body)
		}
		return body
	}
	predict := func(query string) (cold bool, rt float64) {
		t.Helper()
		var pr struct {
			ResponseTimeS float64 `json:"response_time_s"`
			Cold          bool    `json:"cold"`
		}
		if err := json.Unmarshal(get("/v1/predict?arch=AppServF&clients=500"+query), &pr); err != nil {
			t.Fatal(err)
		}
		return pr.Cold, pr.ResponseTimeS
	}
	counter := func(name string) int64 {
		t.Helper()
		for _, ln := range strings.Split(string(get("/metrics")), "\n") {
			if f := strings.Fields(ln); len(f) == 2 && f[0] == name {
				n, err := strconv.ParseInt(f[1], 10, 64)
				if err != nil {
					t.Fatal(err)
				}
				return n
			}
		}
		t.Fatalf("%s not in the /metrics dump", name)
		return 0
	}

	get("/healthz")
	if cold, rt := predict(""); !cold || rt <= 0 {
		t.Fatalf("first predict: cold=%v rt=%v, want a cold build and a positive response time", cold, rt)
	}
	hits := counter("serve_cache_hits")
	for i := 0; i < 3; i++ {
		if cold, rt := predict(""); cold || rt <= 0 {
			t.Fatalf("warm predict %d: cold=%v rt=%v", i, cold, rt)
		}
	}
	if after := counter("serve_cache_hits"); after < hits+3 {
		t.Fatalf("serve_cache_hits went %d -> %d over three warm requests", hits, after)
	}
	// Means never read the percentile scale, so nothing has simulated;
	// the key's first percentile pays for its calibration run.
	if runs := counter("serve_simulator_runs"); runs != 0 {
		t.Fatalf("mean requests ran the simulator %d times, want 0", runs)
	}
	if cold, rt := predict("&percentile=0.9"); !cold || rt <= 0 {
		t.Fatalf("first percentile: cold=%v rt=%v, want a cold calibration and a positive response time", cold, rt)
	}
	if runs, secs := counter("serve_simulator_runs"), counter("serve_simulated_seconds"); runs != 1 || secs != 13 {
		t.Fatalf("first percentile: %d simulator runs over %d simulated seconds, want 1 over 13", runs, secs)
	}

	stop <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("predserve drained dirty: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("predserve did not drain within 20s of the stop signal")
	}
	buf, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(buf, &snap); err != nil {
		t.Fatalf("-report does not parse: %v", err)
	}
	if snap.Counters["serve_cache_hits"] < 3 {
		t.Fatalf("-report counts %d cache hits, want the three warm requests", snap.Counters["serve_cache_hits"])
	}
	// The start-up delay in simulated seconds: one 10 s calibration run
	// and its quarter of warm-up, rounded to whole seconds.
	if runs, secs := snap.Counters["serve_simulator_runs"], snap.Counters["serve_simulated_seconds"]; runs != 1 || secs != 13 {
		t.Fatalf("-report counts %d simulator runs over %d simulated seconds, want 1 over 13", runs, secs)
	}
}
