package trade

import (
	"context"
	"fmt"

	"perfpred/internal/parallel"
	"perfpred/internal/workload"
)

// MeasureOptions tunes the benchmarking helpers. Zero values select
// defaults suitable for the case study.
type MeasureOptions struct {
	Seed     int64
	WarmUp   float64 // seconds, default 60 (the paper's 1-minute warm-up)
	Duration float64 // seconds, default 240

	// Workers bounds how many simulations sweep helpers like
	// MeasureCurve run concurrently. Every sweep cell owns its own
	// engine and seeded streams, so results are bit-identical for any
	// worker count; the knob only trades wall-clock for cores.
	// 0 selects runtime.GOMAXPROCS(0); 1 runs the cells one at a time,
	// in index order, on one worker goroutine.
	Workers int
}

func (o MeasureOptions) withDefaults() MeasureOptions {
	if o.WarmUp == 0 {
		o.WarmUp = 60
	}
	if o.Duration == 0 {
		o.Duration = 240
	}
	return o
}

// baseConfig assembles a measurement run for the case-study database
// and demand tables.
func baseConfig(server workload.ServerArch, load workload.Workload, opt MeasureOptions) Config {
	opt = opt.withDefaults()
	return Config{
		Server:   server,
		DB:       workload.CaseStudyDB(),
		Demands:  workload.CaseStudyDemands(),
		Load:     load,
		Seed:     opt.Seed,
		WarmUp:   opt.WarmUp,
		Duration: opt.Duration,
	}
}

// Measure runs one measurement of the given server under the given
// workload with case-study demands over the fixed horizon.
func Measure(server workload.ServerArch, load workload.Workload, opt MeasureOptions) (*Result, error) {
	return Run(baseConfig(server, load, opt))
}

// MaxThroughput benchmarks the server's max throughput under the given
// workload shape — the paper's supporting service for calibrating new
// server architectures (§2). It loads the server far past saturation
// (about twice the saturation population) and reports the plateau
// throughput in requests/second.
func MaxThroughput(server workload.ServerArch, mixBuyFraction float64, opt MeasureOptions) (float64, error) {
	// Estimate the saturation population from the speed benchmark and
	// think time, then double it.
	think := workload.ThinkTimeMean
	estMax := server.Speed * workload.MaxThroughputF
	clients := int(2 * estMax * think)
	if clients < 50 {
		clients = 50
	}
	res, err := Measure(server, workload.MixLoad(clients, mixBuyFraction), opt)
	if err != nil {
		return 0, err
	}
	return res.Throughput, nil
}

// CurvePoint is one (clients, measurement) sample of a scalability
// curve.
type CurvePoint struct {
	Clients int
	Res     *Result
}

// MeasureCurve sweeps the client population and measures each point,
// producing the "measured" series of the paper's figure 2. Points run
// on opt.Workers concurrent simulations; each point is an independent
// run seeded identically to the serial path, so the curve is
// bit-identical for every worker count.
func MeasureCurve(server workload.ServerArch, clientCounts []int, buyFraction float64, opt MeasureOptions) ([]CurvePoint, error) {
	for _, n := range clientCounts {
		if n <= 0 {
			return nil, fmt.Errorf("trade: invalid client count %d", n)
		}
	}
	results, err := parallel.Map(context.Background(), opt.Workers, len(clientCounts),
		func(_ context.Context, i int) (*Result, error) {
			return Measure(server, workload.MixLoad(clientCounts[i], buyFraction), opt)
		})
	if err != nil {
		return nil, err
	}
	points := make([]CurvePoint, len(clientCounts))
	for i, res := range results {
		points[i] = CurvePoint{Clients: clientCounts[i], Res: res}
	}
	return points, nil
}
