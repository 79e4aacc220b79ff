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
	t.addRow(label("Systems modelled"),
		label("any recordable trend (incl. caching)"),
		label("queuing structures only; caching fixed point unsupported"),
		label("as layered"))
	t.addRow(label("Metrics predicted"),
		label("means, percentiles (direct), stabilisation"),
		label("steady-state means only"),
		label("as layered, via pseudo data"))
	t.addRow(label("Model creation"),
		label("harder: choose+validate relationships"),
		label("easy: declare the queuing network"),
		label("hardest to build, easiest to calibrate"))
	t.addRow(label("Recalibration"),
		label("2 points/equation, tens of samples"),
		label("dedicated single-server runs per request type"),
		label("layered solves only (no measurements)"))
	t.addRow(label("Capacity queries"),
		label("closed-form inversion"),
		label("search: ~20+ solver evaluations"),
		label("closed-form inversion"))
	t.addRow(label("Prediction delay"),
		label("~ns"),
		label("µs-s per solve"),
		label("one-off start-up, then ~ns"))
	t.addNote("evidence: 'cache' (§7.2), 'percentiles'/'percentile-direct' (§7.1, §8.2), 'stabilisation' (§8.2), 'data-quantity' (§4.2), 'search' (§8.2), 'delay' (§8.5)")
	return t, nil
}
