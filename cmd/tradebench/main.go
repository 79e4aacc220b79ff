// Command tradebench runs the simulated Trade testbed — the
// reproduction's stand-in for WebSphere/Trade/DB2 driven by JMeter —
// and prints the measured response times, throughput and utilisations.
//
// Usage:
//
//	tradebench -server AppServF -clients 800 [-buy 0.1] [-seed 1]
//	           [-warmup 60] [-duration 240]
//	           [-cache-bytes N -session-bytes 4096]
//	           [-open-rate 100] [-detailed]
//	tradebench -servers AppServS,AppServF,AppServVF -routing leastbusy -clients 3000
//	tradebench -server AppServS -maxthroughput
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"perfpred/internal/instrument"
	"perfpred/internal/trade"
	"perfpred/internal/workload"
)

func main() {
	server := flag.String("server", "AppServF", "server architecture (AppServS|AppServF|AppServVF)")
	clients := flag.Int("clients", 500, "total client population")
	buy := flag.Float64("buy", 0, "buy-client fraction (0..1)")
	seed := flag.Int64("seed", 1, "random seed (equal seeds give identical runs)")
	warmup := flag.Float64("warmup", 60, "warm-up seconds discarded before measuring")
	duration := flag.Float64("duration", 240, "measurement window, simulated seconds")
	maxX := flag.Bool("maxthroughput", false, "benchmark the server's max throughput and exit")
	cacheBytes := flag.Int64("cache-bytes", 0, "enable the session cache with this capacity (§7.2)")
	sessionBytes := flag.Float64("session-bytes", 4096, "mean session size for the cache variant")
	tier := flag.String("servers", "", "comma-separated tier of architectures (overrides -server)")
	routing := flag.String("routing", "", "tier routing: sticky|roundrobin|leastbusy")
	openRate := flag.Float64("open-rate", 0, "add an open browse stream at this rate, req/s (§8.1)")
	detailed := flag.Bool("detailed", false, "operation-level Trade workload (§3.1)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address")
	report := flag.String("report", "", "write a JSON metrics snapshot to this file on exit")
	flag.Parse()

	writeReport, err := instrument.Flags("tradebench", *metricsAddr, *report)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := writeReport(); err != nil {
			fatal(err)
		}
	}()

	arch, err := workload.ServerByName(*server)
	if err != nil {
		fatal(err)
	}
	opt := trade.MeasureOptions{Seed: *seed, WarmUp: *warmup, Duration: *duration}

	if *maxX {
		x, err := trade.MaxThroughput(arch, *buy, opt)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s max throughput (buy=%.0f%%): %.1f requests/second\n", arch.Name, *buy*100, x)
		return
	}

	load := workload.MixLoad(*clients, *buy)
	if *openRate > 0 {
		load = append(load, workload.Population{
			Class:       workload.ServiceClass{Name: "stream", Mix: workload.Mix{workload.Browse: 1}},
			ArrivalRate: *openRate,
		})
	}
	cfg := trade.Config{
		Server:             arch,
		DB:                 workload.CaseStudyDB(),
		Demands:            workload.CaseStudyDemands(),
		Load:               load,
		Seed:               *seed,
		WarmUp:             *warmup,
		Duration:           *duration,
		Routing:            trade.RoutingPolicy(*routing),
		DetailedOperations: *detailed,
	}
	if *tier != "" {
		for _, name := range strings.Split(*tier, ",") {
			a, err := workload.ServerByName(strings.TrimSpace(name))
			if err != nil {
				fatal(err)
			}
			cfg.Servers = append(cfg.Servers, a)
		}
	}
	if *cacheBytes > 0 {
		cfg.Cache = &trade.CacheConfig{
			SizeBytes:        *cacheBytes,
			SessionBytesMean: *sessionBytes,
		}
	}
	res, err := trade.Run(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s, %d clients, %.0f%% buy, %gs measured\n", arch.Name, *clients, *buy*100, *duration)
	fmt.Printf("  mean RT     %8.2f ms   (p90 %8.2f ms)\n", res.MeanRT*1000, res.OverallPercentile(90)*1000)
	fmt.Printf("  throughput  %8.2f req/s\n", res.Throughput)
	fmt.Printf("  app CPU     %8.3f      db CPU %8.3f\n", res.AppUtilization, res.DBUtilization)
	fmt.Printf("  app threads %8.2f held  queue %8.2f waiting\n", res.MeanAppSlotsHeld, res.MeanAppQueue)
	if cfg.Cache != nil {
		fmt.Printf("  cache miss  %8.3f\n", res.CacheMissRate)
	}
	names := make([]string, 0, len(res.PerClass))
	for name := range res.PerClass {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := res.PerClass[name]
		fmt.Printf("  class %-12s RT=%8.2fms p90=%8.2fms X=%7.2f/s n=%d\n",
			name, c.MeanRT*1000, c.Percentile(90)*1000, c.Throughput, c.Completed)
	}
	if len(res.PerServer) > 1 {
		for _, sr := range res.PerServer {
			fmt.Printf("  server %-11s U=%5.3f X=%7.2f/s n=%d\n",
				sr.Name, sr.Utilization, sr.Throughput, sr.Completed)
		}
	}
	for _, op := range res.PerOperation {
		fmt.Printf("  op %-15s RT=%8.2fms n=%d\n", op.Operation, op.MeanRT*1000, op.Completed)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tradebench:", err)
	os.Exit(1)
}
