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
// without touching the servers — the paper's §2 recalibration service.
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
		m, ok := models[*server]
		if !ok {
			fatal(fmt.Errorf("unknown server %q", *server))
		}
		n, err := m.MaxClients(*goal)
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

// loadOrCalibrate returns per-architecture models, preferring a
// populated store over fresh measurement. When a store path is given,
// freshly measured data is recorded back to it.
func loadOrCalibrate(seed int64, storePath string) (map[string]*hist.ServerModel, error) {
	store := hist.NewStore()
	if storePath != "" {
		if err := store.LoadFile(storePath); err != nil {
			return nil, err
		}
		if models, err := modelsFromStore(store); err == nil {
			return models, nil
		}
		// Fall through to measurement on an incomplete store.
	}
	models, err := calibrateAll(seed, store)
	if err != nil {
		return nil, err
	}
	if storePath != "" {
		if err := store.SaveFile(storePath); err != nil {
			return nil, err
		}
	}
	return models, nil
}

// modelsFromStore rebuilds all three models from recorded history:
// the established servers calibrate directly; the new server comes
// from relationship 2 and its stored benchmark.
func modelsFromStore(store *hist.Store) (map[string]*hist.ServerModel, error) {
	models := make(map[string]*hist.ServerModel, 3)
	var established []*hist.ServerModel
	for _, arch := range []workload.ServerArch{workload.AppServF(), workload.AppServVF()} {
		m, err := store.Calibrate(arch, hist.TypicalWorkloadKey)
		if err != nil {
			return nil, err
		}
		models[arch.Name] = m
		established = append(established, m)
	}
	rel2, err := hist.FitRelationship2(established)
	if err != nil {
		return nil, err
	}
	sArch := workload.AppServS()
	xMaxS, ok := store.MaxThroughput(sArch.Name, hist.TypicalWorkloadKey)
	if !ok {
		return nil, fmt.Errorf("hydra: no stored benchmark for %s", sArch.Name)
	}
	sModel, err := rel2.NewServerModel(sArch, xMaxS)
	if err != nil {
		return nil, err
	}
	models[sArch.Name] = sModel
	return models, nil
}

// calibrateAll reproduces the §4 pipeline: measure the established
// servers, calibrate them, fit relationship 2, extrapolate the new
// server from its max-throughput benchmark. Measurements are recorded
// into the store as they happen.
func calibrateAll(seed int64, store *hist.Store) (map[string]*hist.ServerModel, error) {
	opt := trade.MeasureOptions{Seed: seed, WarmUp: 30, Duration: 120}
	models := make(map[string]*hist.ServerModel, 3)
	var established []*hist.ServerModel
	var gradient float64
	for _, arch := range []workload.ServerArch{workload.AppServF(), workload.AppServVF()} {
		xMax, err := trade.MaxThroughput(arch, 0, opt)
		if err != nil {
			return nil, err
		}
		if err := store.RecordMaxThroughput(arch.Name, hist.TypicalWorkloadKey, xMax); err != nil {
			return nil, err
		}
		nStar := xMax / 0.14
		counts := []int{int(0.25 * nStar), int(0.55 * nStar), int(1.2 * nStar), int(1.6 * nStar)}
		curve, err := trade.MeasureCurve(arch, counts, 0, opt)
		if err != nil {
			return nil, err
		}
		var dps []hist.DataPoint
		var tps []hist.ThroughputPoint
		for _, p := range curve {
			dp := hist.DataPoint{Clients: float64(p.Clients), MeanRT: p.Res.MeanRT}
			dps = append(dps, dp)
			if err := store.RecordPoint(arch.Name, hist.TypicalWorkloadKey, dp); err != nil {
				return nil, err
			}
			if float64(p.Clients) < 0.66*nStar {
				tps = append(tps, hist.ThroughputPoint{Clients: float64(p.Clients), Throughput: p.Res.Throughput})
			}
		}
		if gradient == 0 {
			m, err := hist.CalibrateGradient(tps)
			if err != nil {
				return nil, err
			}
			gradient = m
			if err := store.RecordGradient(m); err != nil {
				return nil, err
			}
		}
		model, err := hist.CalibrateServer(arch, xMax, gradient, dps)
		if err != nil {
			return nil, err
		}
		models[arch.Name] = model
		established = append(established, model)
	}
	rel2, err := hist.FitRelationship2(established)
	if err != nil {
		return nil, err
	}
	sArch := workload.AppServS()
	xMaxS, err := trade.MaxThroughput(sArch, 0, opt)
	if err != nil {
		return nil, err
	}
	if err := store.RecordMaxThroughput(sArch.Name, hist.TypicalWorkloadKey, xMaxS); err != nil {
		return nil, err
	}
	sModel, err := rel2.NewServerModel(sArch, xMaxS)
	if err != nil {
		return nil, err
	}
	models[sArch.Name] = sModel
	return models, nil
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: hydra calibrate|predict|capacity [flags]")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hydra:", err)
	os.Exit(1)
}
