package sim

import "fmt"

// AliasTable is a precomputed discrete sampler over a fixed weight
// vector (Walker/Vose alias method). Construction is O(n); each Pick
// is O(1) and consumes exactly one uniform draw from the stream — the
// same stream cost as Stream.Choose, without the per-pick linear scan.
//
// The trade simulator builds one table per service class at run start,
// replacing the per-request sort-and-scan of the class mix. Note the
// draw-to-index mapping differs from Stream.Choose's CDF inversion, so
// switching a multi-type mix from Choose to an AliasTable changes the
// per-seed request sequence (the distribution is identical).
type AliasTable struct {
	prob  []float64
	alias []int
}

// NewAliasTable builds the table. It panics on an empty weight vector,
// a negative weight, or a non-positive total — the same contract as
// Stream.Choose.
func NewAliasTable(weights []float64) *AliasTable {
	n := len(weights)
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("sim: negative weight")
		}
		total += w
	}
	if n == 0 || total <= 0 {
		panic(fmt.Sprintf("sim: alias table requires positive total weight, got %v over %d entries", total, n))
	}
	t := &AliasTable{prob: make([]float64, n), alias: make([]int, n)}
	// Scale weights to mean 1 and split into under- and over-full
	// columns; each under-full column is topped up by one over-full
	// donor, recorded as its alias.
	scaled := make([]float64, n)
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		t.prob[s] = scaled[s]
		t.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	// Numerical leftovers are exactly-full columns.
	for _, i := range large {
		t.prob[i] = 1
		t.alias[i] = i
	}
	for _, i := range small {
		t.prob[i] = 1
		t.alias[i] = i
	}
	return t
}

// Pick draws one outcome index using a single uniform draw from s.
func (t *AliasTable) Pick(s *Stream) int {
	u := s.Float64() * float64(len(t.prob))
	i := int(u)
	if i >= len(t.prob) {
		i = len(t.prob) - 1
	}
	if u-float64(i) < t.prob[i] {
		return i
	}
	return t.alias[i]
}
