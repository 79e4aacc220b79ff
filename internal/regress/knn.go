package regress

import "sort"

// knnPredict returns the inverse-distance-weighted mean response time
// of the knnK nearest training samples in standardized feature space.
// Ordering is fully deterministic: distances tie-break on the training
// sample's index, and the weighted sum is accumulated in that sorted
// order. An exact feature match returns that sample's target directly.
func knnPredict(af *archFit, query []float64) float64 {
	type cand struct {
		idx  int
		dist float64
	}
	cands := make([]cand, len(af.feats))
	for i, f := range af.feats {
		var d2 float64
		for j := range f {
			d := f[j] - query[j]
			d2 += d * d
		}
		cands[i] = cand{idx: i, dist: d2}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].dist != cands[b].dist {
			return cands[a].dist < cands[b].dist
		}
		return cands[a].idx < cands[b].idx
	})
	k := min(knnK, len(cands))
	if cands[0].dist == 0 {
		return af.samples[cands[0].idx].MeanRT
	}
	var num, den float64
	for _, c := range cands[:k] {
		w := 1 / c.dist
		num += w * af.samples[c.idx].MeanRT
		den += w
	}
	return num / den
}
