// Command predserve runs the long-lived prediction service: the
// paper's predictor stack (hybrid, layered-queuing, resource-manager
// allocation) behind a concurrent HTTP/JSON API with per-(architecture,
// mix) model caching, warm-started layered solves in bounded solver
// slots and admission control. See internal/serve for the serving architecture.
//
// Endpoints:
//
//	GET|POST /v1/predict   response-time prediction (method=hybrid|lqn|regress)
//	GET|POST /v1/capacity  max clients under an SLA goal
//	POST     /v1/allocate  Algorithm 1 allocation plan
//	GET      /healthz      liveness
//	GET      /metrics      obs plain-text metric dump
//	GET      /debug/...    expvar + pprof
//
// On SIGTERM/SIGINT predserve drains: the HTTP server stops accepting
// and finishes in-flight requests (each solves or builds on its own
// goroutine, so finishing them answers everything accepted), and a
// final obs snapshot is flushed to stderr so the run leaves evidence
// even without a scraper.
//
// Usage:
//
//	predserve [-addr :8089] [-addr-file path] [-cache-cap 256]
//	          [-laplace-b 0] [-report snapshot.json]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"perfpred/internal/instrument"
	"perfpred/internal/obs"
	"perfpred/internal/serve"
	"perfpred/internal/workload"
)

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	if err := run(os.Args[1:], stop, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "predserve:", err)
		os.Exit(1)
	}
}

// run serves until a signal arrives on stop, then drains. Notices and
// the final metrics snapshot go to stderr.
func run(args []string, stop <-chan os.Signal, stderr io.Writer) error {
	fs := flag.NewFlagSet("predserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8089", "listen address (use 127.0.0.1:0 with -addr-file for an ephemeral port)")
	addrFile := fs.String("addr-file", "", "write the bound address to this file once listening")
	cacheCap := fs.Int("cache-cap", 256, "model store capacity in (method, architecture, mix) entries, all methods together; 0 = unbounded. Bounds assembled models; measured evidence is kept per key")
	points := fs.Int("points", 0, "hybrid pseudo data points per equation (0 = paper's 4)")
	laplaceB := fs.Float64("laplace-b", 0, "fixed Laplace percentile scale in seconds; 0 calibrates per key from a fixed-seed simulator run on the key's first percentile request, once per key")
	calibSeconds := fs.Float64("calib-seconds", 40, "simulated seconds per percentile calibration run (paid by a key's first percentile request)")
	regressSeconds := fs.Float64("regress-seconds", 20, "simulated seconds per regress training run")
	buildWorkers := fs.Int("build-workers", 2, "concurrent cold model builds and percentile calibrations, all methods together")
	maxQueuedBuilds := fs.Int("max-queued-builds", 8, "cold builds and calibrations allowed to wait beyond the workers before 429")
	solveWorkers := fs.Int("solve-workers", 0, "concurrent method=lqn solves, each slot keeping warm solver state (0 = GOMAXPROCS)")
	report := fs.String("report", "", "write a final obs snapshot (JSON) here on shutdown")
	if err := fs.Parse(args); err != nil {
		return err
	}

	reg := obs.NewRegistry()
	instrument.EnableAll(reg)
	defer instrument.EnableAll(nil)

	svc, err := serve.New(serve.Config{
		Archs:                 workload.CaseStudyServers(),
		DB:                    workload.CaseStudyDB(),
		Demands:               workload.CaseStudyDemands(),
		PointsPerEquation:     *points,
		CacheCapacity:         *cacheCap,
		LaplaceB:              *laplaceB,
		CalibrationSimSeconds: *calibSeconds,
		RegressSimSeconds:     *regressSeconds,
		BuildWorkers:          *buildWorkers,
		MaxQueuedBuilds:       *maxQueuedBuilds,
		SolveWorkers:          *solveWorkers,
	})
	if err != nil {
		return err
	}
	defer svc.Close() // for the error returns; the drain below closes in order

	mux := http.NewServeMux()
	mux.Handle("/v1/", svc.Handler())
	mux.Handle("/healthz", svc.Handler())
	mux.Handle("/metrics", obs.Handler(reg))
	mux.Handle("/debug/", obs.Handler(reg))

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	fmt.Fprintf(stderr, "predserve: listening on %s\n", bound)

	srv := &http.Server{Handler: mux}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case s := <-stop:
		fmt.Fprintf(stderr, "predserve: %v, draining\n", s)
	case err := <-errc:
		return err
	}

	// Drain order matters: stop accepting and finish in-flight HTTP
	// requests first, then close the service, then flush the evidence.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(stderr, "predserve: shutdown: %v\n", err)
	}
	svc.Close()

	fmt.Fprintln(stderr, "predserve: final metrics snapshot:")
	_ = reg.Snapshot().WriteText(stderr) // a diagnostic; -report is the checked copy
	if *report != "" {
		return obs.WriteReport(*report, reg)
	}
	return nil
}
