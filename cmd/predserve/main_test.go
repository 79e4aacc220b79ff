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
// requests hit the model cache on /metrics, and require the stop
// signal to drain to a clean return and a report that parses.
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
	predict := func() (cold bool, rt float64) {
		t.Helper()
		var pr struct {
			ResponseTimeS float64 `json:"response_time_s"`
			Cold          bool    `json:"cold"`
		}
		if err := json.Unmarshal(get("/v1/predict?arch=AppServF&clients=500"), &pr); err != nil {
			t.Fatal(err)
		}
		return pr.Cold, pr.ResponseTimeS
	}
	cacheHits := func() int64 {
		t.Helper()
		for _, ln := range strings.Split(string(get("/metrics")), "\n") {
			if f := strings.Fields(ln); len(f) == 2 && f[0] == "serve_cache_hits" {
				n, err := strconv.ParseInt(f[1], 10, 64)
				if err != nil {
					t.Fatal(err)
				}
				return n
			}
		}
		t.Fatal("serve_cache_hits not in the /metrics dump")
		return 0
	}

	get("/healthz")
	if cold, rt := predict(); !cold || rt <= 0 {
		t.Fatalf("first predict: cold=%v rt=%v, want a cold build and a positive response time", cold, rt)
	}
	hits := cacheHits()
	for i := 0; i < 3; i++ {
		if cold, rt := predict(); cold || rt <= 0 {
			t.Fatalf("warm predict %d: cold=%v rt=%v", i, cold, rt)
		}
	}
	if after := cacheHits(); after < hits+3 {
		t.Fatalf("serve_cache_hits went %d -> %d over three warm requests", hits, after)
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
