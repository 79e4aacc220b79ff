package trade

import (
	"errors"

	"perfpred/internal/stats"
)

// TransientPoint is one time bucket of a cold-start measurement: the
// mean response time of responses completed in (Time−bucket, Time].
type TransientPoint struct {
	// Time is the bucket's right edge in simulated seconds from cold
	// start.
	Time float64
	// MeanRT is the bucket's mean response time (0 if no completions).
	MeanRT float64
	// Completed counts the bucket's responses.
	Completed int
}

// TransientCurve runs the configured workload from a cold start with
// NO warm-up discard and reports the response-time trajectory in
// fixed-width buckets. The historical method records this
// stabilisation behaviour as a variable (§8.2) — something the
// steady-state-only layered method cannot represent. The config's
// WarmUp field is ignored; Duration bounds the observation window.
// Open populations are left idle — the transient study covers the
// closed populations — but the full Config is otherwise honoured,
// including session caches and critical sections.
func TransientCurve(cfg Config, bucket float64) ([]TransientPoint, error) {
	return transientCurve(cfg, bucket, simOptions{})
}

// transientCurve is TransientCurve under the given constructor variant.
func transientCurve(cfg Config, bucket float64, opt simOptions) ([]TransientPoint, error) {
	if bucket <= 0 {
		return nil, errors.New("trade: bucket must be positive")
	}
	if cfg.sharded() {
		return nil, errors.New("trade: transient curves are not supported on sharded configurations")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	buckets := int(cfg.Duration/bucket) + 1
	points := make([]TransientPoint, buckets)
	accs := make([]stats.Accumulator, buckets)
	for i := range points {
		points[i].Time = float64(i+1) * bucket
	}
	opt.skipOpen = true
	opt.intercept = func(now, rt float64) {
		if idx := int(now / bucket); idx >= 0 && idx < buckets {
			accs[idx].Add(rt)
		}
	}
	s, err := newSimulator(cfg, opt)
	if err != nil {
		return nil, err
	}
	s.eng.Run(cfg.Duration, 0)
	for i := range points {
		points[i].MeanRT = accs[i].Mean()
		points[i].Completed = accs[i].Count()
	}
	return points, nil
}
