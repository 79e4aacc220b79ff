package rm

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// This file implements the §2 system model's outer loop: "a service
// provider which hosts a number of applications and also contains a
// resource manager that controls the transfer of application servers
// between those applications. An application server can only process
// the workload from one application at a time to isolate the
// applications." The provider watches each application's offered load
// over time, sizes each application's server share with the prediction
// model, transfers whole servers between applications, and then runs
// Algorithm 1 within each application.

// Application is one hosted application: its workload mix and its
// offered load per epoch.
type Application struct {
	// Name labels the application.
	Name string
	// Shares is the application's service-class mix.
	Shares []ClassShare
	// LoadPerEpoch is the total offered clients at each epoch.
	LoadPerEpoch []int
}

// validate reports the first structural problem.
func (a Application) validate() error {
	if a.Name == "" {
		return errors.New("rm: application needs a name")
	}
	if len(a.Shares) == 0 {
		return fmt.Errorf("rm: application %q needs class shares", a.Name)
	}
	if len(a.LoadPerEpoch) == 0 {
		return fmt.Errorf("rm: application %q needs a load series", a.Name)
	}
	for _, n := range a.LoadPerEpoch {
		if n < 0 {
			return fmt.Errorf("rm: application %q has negative load", a.Name)
		}
	}
	return nil
}

// EpochResult is the provider's outcome at one epoch.
type EpochResult struct {
	Epoch int
	// ServersByApp maps application name to the servers assigned.
	ServersByApp map[string][]string
	// Transfers counts servers that changed application this epoch.
	Transfers int
	// FailurePctByApp is the §9.1 SLA-failure metric per application.
	FailurePctByApp map[string]float64
}

// RunProvider simulates the service provider across epochs: at each
// epoch the applications' predicted server needs are computed, servers
// are transferred between applications (need-proportional, whole
// servers, preferring to keep a server where it is to minimise
// transfers), and each application's workload is placed and evaluated.
// pred plans; truth plays the role of the real system; slack is
// Algorithm 1's workload inflation within applications (≤ 0 selects 1).
func RunProvider(apps []Application, servers []Server, pred, truth Predictor, slack float64) ([]EpochResult, error) {
	if len(apps) == 0 || len(servers) == 0 {
		return nil, errors.New("rm: provider needs applications and servers")
	}
	epochs := len(apps[0].LoadPerEpoch)
	for _, a := range apps {
		if err := a.validate(); err != nil {
			return nil, err
		}
		if len(a.LoadPerEpoch) != epochs {
			return nil, fmt.Errorf("rm: application %q has %d epochs, want %d", a.Name, len(a.LoadPerEpoch), epochs)
		}
	}
	if slack <= 0 {
		slack = 1.0
	}

	var totalPower float64
	for _, s := range servers {
		totalPower += s.Power
	}

	// owner[serverName] = application name ("" = unassigned).
	owner := make(map[string]string, len(servers))
	results := make([]EpochResult, 0, epochs)

	for epoch := 0; epoch < epochs; epoch++ {
		// Predicted power need per application: clients at the tightest
		// goal convert to required throughput via each class's share.
		need := make(map[string]float64, len(apps))
		var needTotal float64
		for _, a := range apps {
			n := float64(a.LoadPerEpoch[epoch]) * slack
			// Power need ≈ offered request rate; with the case-study
			// think time the gradient converts clients to requests/s.
			need[a.Name] = n
			needTotal += n
		}

		// Target power share per application.
		target := make(map[string]float64, len(apps))
		for name, v := range need {
			if needTotal > 0 {
				target[name] = v / needTotal * totalPower
			}
		}

		// Keep-first assignment: each application retains its current
		// servers while under target; leftovers go to the neediest.
		assigned := make(map[string]float64, len(apps))
		newOwner := make(map[string]string, len(servers))
		var free []Server
		// Deterministic order.
		sorted := make([]Server, len(servers))
		copy(sorted, servers)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
		for _, s := range sorted {
			app := owner[s.Name]
			if app != "" && assigned[app]+s.Power <= target[app]+s.Power*0.5 {
				newOwner[s.Name] = app
				assigned[app] += s.Power
			} else {
				free = append(free, s)
			}
		}
		for _, s := range free {
			// Give to the application with the largest unmet target.
			best := ""
			bestGap := -math.MaxFloat64
			names := make([]string, 0, len(apps))
			for _, a := range apps {
				names = append(names, a.Name)
			}
			sort.Strings(names)
			for _, name := range names {
				gap := target[name] - assigned[name]
				if gap > bestGap {
					best, bestGap = name, gap
				}
			}
			newOwner[s.Name] = best
			assigned[best] += s.Power
		}

		transfers := 0
		for name, app := range newOwner {
			if prev := owner[name]; prev != "" && prev != app {
				transfers++
			}
		}
		owner = newOwner

		// Run Algorithm 1 within each application on its servers.
		res := EpochResult{
			Epoch:           epoch,
			ServersByApp:    make(map[string][]string, len(apps)),
			Transfers:       transfers,
			FailurePctByApp: make(map[string]float64, len(apps)),
		}
		for _, a := range apps {
			var appServers []Server
			for _, s := range sorted {
				if owner[s.Name] == a.Name {
					appServers = append(appServers, s)
					res.ServersByApp[a.Name] = append(res.ServersByApp[a.Name], s.Name)
				}
			}
			load := a.LoadPerEpoch[epoch]
			if load == 0 {
				continue
			}
			if len(appServers) == 0 {
				res.FailurePctByApp[a.Name] = 100
				continue
			}
			classes, err := SplitLoad(load, a.Shares)
			if err != nil {
				return nil, err
			}
			plan, err := Allocate(classes, appServers, pred, slack, Options{})
			if err != nil {
				return nil, err
			}
			ev, err := evaluate(plan, classes, appServers, truth)
			if err != nil {
				return nil, err
			}
			res.FailurePctByApp[a.Name] = ev.SLAFailurePct
		}
		results = append(results, res)
	}
	return results, nil
}
