package bench

// evaluationMatrix prints the paper's §8 qualitative comparison as a
// capability matrix, each cell backed by an experiment in this
// repository (named in the notes).
func (s *Suite) evaluationMatrix() (*Table, error) {
	t := &Table{
		ID:     "Section 8",
		Title:  "Method evaluation matrix (paper's qualitative comparison)",
		Header: []string{"Criterion", "Historical", "Layered queuing", "Hybrid"},
	}
	t.addRow("Systems modelled",
		"any recordable trend (incl. caching)",
		"queuing structures only; caching fixed point unsupported",
		"as layered")
	t.addRow("Metrics predicted",
		"means, percentiles (direct), stabilisation",
		"steady-state means only",
		"as layered, via pseudo data")
	t.addRow("Model creation",
		"harder: choose+validate relationships",
		"easy: declare the queuing network",
		"hardest to build, easiest to calibrate")
	t.addRow("Recalibration",
		"2 points/equation, tens of samples",
		"dedicated single-server runs per request type",
		"layered solves only (no measurements)")
	t.addRow("Capacity queries",
		"closed-form inversion",
		"search: ~20+ solver evaluations",
		"closed-form inversion")
	t.addRow("Prediction delay",
		"~ns",
		"µs-s per solve",
		"one-off start-up, then ~ns")
	t.addNote("evidence: 'cache' (§7.2), 'percentiles'/'percentile-direct' (§7.1, §8.2), 'stabilisation' (§8.2), 'data-quantity' (§4.2), 'search' (§8.2), 'delay' (§8.5)")
	return t, nil
}
