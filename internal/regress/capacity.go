package regress

import (
	"fmt"
	"math"

	"perfpred/internal/sla"
)

// MaxClients returns the largest population whose predicted mean
// response time stays within goalRT, completing the rm.Predictor
// contract. It reuses the shared doubling + bisection search, capped
// at twice the trained population range, because a black-box fit has
// nothing trustworthy to say far off its grid (the k-NN extrapolation
// keeps the curve monotone out to the cap, so the clamped limit is
// still probed and verified, never assumed).
func (m *Model) MaxClients(arch string, goalRT float64) (float64, error) {
	af, ok := m.archs[arch]
	if !ok {
		return 0, fmt.Errorf("regress: no model for architecture %q", arch)
	}
	limit := int(math.Ceil(2 * af.maxPop))
	if limit < 1 {
		limit = 1
	}
	n, err := sla.Goal{MaxRT: goalRT}.MaxClients(limit, func(n float64) (float64, error) {
		return m.predictArch(af, n, m.QueryBuyFrac), nil
	})
	return float64(n), err
}
