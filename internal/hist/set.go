package hist

import (
	"fmt"

	"perfpred/internal/workload"
)

// ModelSet is a set of calibrated relationship-1 models keyed by
// architecture name. The historical method (calibrated from
// measurements) and the hybrid method (calibrated from layered pseudo
// data) both produce one, and its methods are the only adaptor from
// either to a name-addressed predictor such as the resource manager's.
type ModelSet map[string]*ServerModel

func (s ModelSet) model(arch string) (*ServerModel, error) {
	sm, ok := s[arch]
	if !ok {
		return nil, fmt.Errorf("hist: no model for architecture %q", arch)
	}
	return sm, nil
}

// Predict returns the architecture's predicted mean response time at n
// clients (closed form: no measurement or solve happens here).
func (s ModelSet) Predict(arch string, n float64) (float64, error) {
	sm, err := s.model(arch)
	if err != nil {
		return 0, err
	}
	return sm.Predict(n), nil
}

// MaxClients returns the architecture's predicted capacity under the
// goal, by the closed-form inversion of §8.2.
func (s ModelSet) MaxClients(arch string, goalRT float64) (float64, error) {
	sm, err := s.model(arch)
	if err != nil {
		return 0, err
	}
	return sm.MaxClients(goalRT)
}

// ServerHistory is what the method holds about one server under one
// workload: its max-throughput benchmark and its recorded data points.
// A server without data points is a new one (§4.2).
type ServerHistory struct {
	Arch          workload.ServerArch
	MaxThroughput float64
	Points        []DataPoint
}

// CalibrateSet is the §4 chain: relationship 1 fitted to each
// established server's data points under the shared gradient,
// relationship 2 fitted across those models in the order given (the
// first established server is its λU reference), and every new
// server's model extrapolated from its benchmark alone. The data
// points' response-time variable is the caller's choice — means give
// the mean model, recorded p90s the §8.2 direct percentile model.
func CalibrateSet(gradient float64, servers []ServerHistory) (ModelSet, *Relationship2, error) {
	set := make(ModelSet, len(servers))
	var established []*ServerModel
	for _, h := range servers {
		if len(h.Points) == 0 {
			continue
		}
		sm, err := CalibrateServer(h.Arch, h.MaxThroughput, gradient, h.Points)
		if err != nil {
			return nil, nil, fmt.Errorf("calibrating %s: %w", h.Arch.Name, err)
		}
		set[h.Arch.Name] = sm
		established = append(established, sm)
	}
	rel2, err := FitRelationship2(established)
	if err != nil {
		return nil, nil, err
	}
	for _, h := range servers {
		if len(h.Points) > 0 {
			continue
		}
		if set[h.Arch.Name], err = rel2.NewServerModel(h.Arch, h.MaxThroughput); err != nil {
			return nil, nil, fmt.Errorf("extrapolating %s: %w", h.Arch.Name, err)
		}
	}
	return set, rel2, nil
}
