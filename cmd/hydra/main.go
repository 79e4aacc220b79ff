// Command hydra drives the historical prediction method: it calibrates
// relationship 1 for the established servers from simulated
// measurements, fits relationship 2 across them, extrapolates the new
// server, and answers predictions — the workflow of the paper's HYDRA
// tool (§4).
//
// Usage:
//
//	hydra calibrate [-seed 1] [-store hydra.json]   # print Table-1-style parameters
//	hydra predict -server AppServS -clients 600 [-store hydra.json]
//	hydra capacity -server AppServF -goal 0.3 [-store hydra.json]
//
// With -store, calibration data (gradient, benchmarks, data points)
// persists to a HYDRA store file: the first invocation measures and
// records, later invocations recalibrate from the stored history
// without touching the servers — the paper's §2 recalibration service —
// and measure only what a store is missing.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"perfpred/internal/hist"
	"perfpred/internal/trade"
	"perfpred/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	seed := fs.Int64("seed", 1, "measurement seed")
	server := fs.String("server", "AppServS", "target server architecture")
	clients := fs.Float64("clients", 500, "client population to predict")
	goal := fs.Float64("goal", 0.3, "SLA mean response-time goal, seconds")
	storePath := fs.String("store", "", "HYDRA store file for persistent calibration data")
	if err := fs.Parse(os.Args[2:]); err != nil {
		fatal(err)
	}
	if err := checkQuery(*clients, *goal); err != nil {
		fatal(err)
	}

	models, err := loadOrCalibrate(*seed, *storePath)
	if err != nil {
		fatal(err)
	}

	switch cmd {
	case "calibrate":
		fmt.Println("server      cL(ms)   lambdaL    lambdaU(ms)  cU(ms)    m      Xmax")
		for _, arch := range workload.CaseStudyServers() {
			m := models[arch.Name]
			fmt.Printf("%-10s  %7.1f  %9.3g  %10.4g  %7.1f  %5.3f  %6.1f\n",
				arch.Name, m.CL*1000, m.LambdaL, m.LambdaU*1000, m.CU*1000, m.M, m.MaxThroughput)
		}
	case "predict":
		m, ok := models[*server]
		if !ok {
			fatal(fmt.Errorf("unknown server %q", *server))
		}
		rt := m.Predict(*clients)
		x := m.PredictThroughput(*clients)
		fmt.Printf("%s at %.0f clients: mean RT %.2f ms, throughput %.1f req/s (saturated=%v)\n",
			*server, *clients, rt*1000, x, m.Saturated(*clients))
	case "capacity":
		n, err := models.MaxClients(*server, *goal)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s holds %.0f clients within a %.0f ms mean-RT goal (closed form, no search)\n",
			*server, n, *goal*1000)
	default:
		usage()
	}
}

// checkQuery validates the numbers the command line supplies before any
// measurement is paid for: the closed forms answer a negative
// population with a negative throughput, and NaN with NaN.
func checkQuery(clients, goal float64) error {
	if !(clients > 0) || math.IsInf(clients, 0) {
		return fmt.Errorf("-clients %v: want a positive finite population", clients)
	}
	if !(goal > 0) || math.IsInf(goal, 0) {
		return fmt.Errorf("-goal %v: want a positive finite number of seconds", goal)
	}
	return nil
}

// loadOrCalibrate returns the case-study model set, calibrated from the
// store's history. Whatever the chain needs and the store lacks is
// measured and recorded first, so a first run measures everything, a
// complete store measures nothing, and a store with a gap pays for the
// gap alone. With a store path, new measurements are saved back.
func loadOrCalibrate(seed int64, storePath string) (hist.ModelSet, error) {
	store := hist.NewStore()
	if storePath != "" {
		if err := store.LoadFile(storePath); err != nil {
			return nil, err
		}
	}
	measured, err := fillStore(seed, store)
	if err != nil {
		return nil, err
	}
	if measured && storePath != "" {
		if err := store.SaveFile(storePath); err != nil {
			return nil, err
		}
	}
	var histories []hist.ServerHistory
	for _, arch := range workload.CaseStudyServers() {
		h := hist.ServerHistory{Arch: arch}
		h.MaxThroughput, _ = store.MaxThroughput(arch.Name, hist.TypicalWorkloadKey)
		if arch.Established { // the new server is predicted from its benchmark alone
			h.Points = store.Points(arch.Name, hist.TypicalWorkloadKey)
		}
		histories = append(histories, h)
	}
	models, _, err := hist.CalibrateSet(store.Gradient(), histories)
	return models, err
}

// fillStore measures what the §4 chain needs and the store lacks, and
// records it: each case-study server's max-throughput benchmark, four
// data points on each established server, and the shared gradient from
// the below-saturation throughputs of the first established server's
// curve. It reports whether anything was measured.
func fillStore(seed int64, store *hist.Store) (bool, error) {
	measured := false
	opt := trade.MeasureOptions{Seed: seed, WarmUp: 30, Duration: 120}
	const key = hist.TypicalWorkloadKey
	for _, arch := range workload.CaseStudyServers() {
		xMax, ok := store.MaxThroughput(arch.Name, key)
		if !ok {
			var err error
			if xMax, err = trade.MaxThroughput(arch, 0, opt); err != nil {
				return false, err
			}
			measured = true
			if err := store.RecordMaxThroughput(arch.Name, key, xMax); err != nil {
				return false, err
			}
		}
		needPoints := arch.Established && len(store.Points(arch.Name, key)) == 0
		needGradient := arch.Established && store.Gradient() == 0
		if !needPoints && !needGradient {
			continue
		}
		nStar := xMax / 0.14
		counts := []int{int(0.25 * nStar), int(0.55 * nStar), int(1.2 * nStar), int(1.6 * nStar)}
		curve, err := trade.MeasureCurve(arch, counts, 0, opt)
		if err != nil {
			return false, err
		}
		measured = true
		var tps []hist.ThroughputPoint
		for _, p := range curve {
			if needPoints {
				dp := hist.DataPoint{Clients: float64(p.Clients), MeanRT: p.Res.MeanRT}
				if err := store.RecordPoint(arch.Name, key, dp); err != nil {
					return false, err
				}
			}
			if float64(p.Clients) < 0.66*nStar {
				tps = append(tps, hist.ThroughputPoint{Clients: float64(p.Clients), Throughput: p.Res.Throughput})
			}
		}
		if needGradient {
			m, err := hist.CalibrateGradient(tps)
			if err != nil {
				return false, err
			}
			if err := store.RecordGradient(m); err != nil {
				return false, err
			}
		}
	}
	return measured, nil
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: hydra calibrate|predict|capacity [flags]")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hydra:", err)
	os.Exit(1)
}
