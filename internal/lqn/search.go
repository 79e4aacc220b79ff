package lqn

import (
	"errors"
	"fmt"

	"perfpred/internal/sla"
)

// MaxClientsSearch finds the largest population of the named class for
// which the class's predicted mean response time stays at or below
// goalRT seconds, holding every other class fixed. The layered queuing
// method cannot invert its model — "in the current layered queuing
// solver the number of clients can only be an input so it is necessary
// to search" (§8.2) — so this runs the shared sla.MaxClients search
// over a warm-started solver. It returns the population and the number
// of solver evaluations spent, which is the cost the paper warns about
// in §8.5.
func MaxClientsSearch(m *Model, className string, goalRT float64, limit int, opt Options) (clients, evaluations int, err error) {
	if goalRT <= 0 {
		return 0, 0, errors.New("lqn: goal response time must be positive")
	}
	if limit <= 0 {
		limit = 1 << 20
	}
	var target *Class
	for _, cl := range m.Classes {
		if cl.Name == className {
			target = cl
			break
		}
	}
	if target == nil {
		return 0, 0, fmt.Errorf("lqn: unknown class %q", className)
	}
	orig := target.Population
	defer func() { target.Population = orig }()

	// The probe sequence solves the same model dozens of times varying
	// one population; a warm-started solver workspace caches the
	// resolution and seeds each solve from the last, which is where the
	// §8.5 search cost actually goes.
	solver := NewSolver()
	solver.WarmStart = true
	clients, err = sla.MaxClients(limit, func(n int) (bool, error) {
		target.Population = n
		res, err := solver.Solve(m, opt)
		if err != nil {
			return false, err
		}
		evaluations++
		return res.Classes[className].ResponseTime <= goalRT, nil
	})
	return clients, evaluations, err
}
