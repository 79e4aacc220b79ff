package bench

import (
	"math"

	"perfpred/internal/workload"
)

// table1 regenerates the paper's Table 1: the historical method's
// relationship-1 parameters per server. Established servers carry the
// fitted values; the new server carries relationship-2 extrapolations.
func (s *Suite) table1() (*Table, error) {
	t := &Table{
		ID:     "Table 1",
		Title:  "Historical method relationship parameters",
		Header: []string{"Server", "cL (ms)", "lambdaL", "lambdaU (ms/client)", "cU (ms)", "m", "Xmax (req/s)"},
	}
	models, err := s.histSet()
	if err != nil {
		return nil, err
	}
	for _, arch := range workload.CaseStudyServers() {
		m := models[arch.Name]
		t.addRow(label(arch.Name), f1(m.CL*1000), g3(m.LambdaL), g3(m.LambdaU*1000), f1(m.CU*1000), f3(m.M), f1(m.MaxThroughput))
	}
	t.addNote("paper (Table 1, ms): S cL=138.9 λL=4e-06, F cL=84.1 λL=1e-04, VF cL=10.7 λL=9e-04")
	t.addNote("paper gradient m = 0.14 across all servers (1.3%% accuracy)")
	t.addNote("S parameters extrapolated via relationship 2 from F and VF, as in §4.2")
	return t, nil
}

// table2 regenerates the paper's Table 2: the layered queuing
// processing-time parameters calibrated on AppServF with the §5
// utilisation-law procedure.
func (s *Suite) table2() (*Table, error) {
	demands, err := s.lqnDemands()
	if err != nil {
		return nil, err
	}
	truth := workload.CaseStudyDemands()
	t := &Table{
		ID:     "Table 2",
		Title:  "Layered queuing processing-time parameters calibrated on AppServF",
		Header: []string{"Request type", "App server (ms)", "DB server (ms/call)", "DB calls/request", "Ground truth app (ms)"},
	}
	for _, rt := range []workload.RequestType{workload.Browse, workload.Buy} {
		d := demands[rt]
		t.addRow(label(string(rt)), f3(d.AppServerTime*1000), f3(d.DBTimePerCall*1000), f2(d.DBCallsPerRequest), f3(truth[rt].AppServerTime*1000))
	}
	t.addNote("paper (Table 2, ms): browse app=4.505 db=0.8294; buy app=8.761 db=1.613")
	t.addNote("this testbed's ground truth anchors AppServF at 186 req/s, so app-server times differ in absolute value; the buy/browse ratio and db-call counts carry the paper's values")
	return t, nil
}

// throughputGradient reports the §4.1 gradient experiment: m measured
// per server and its cross-server prediction accuracy.
func (s *Suite) throughputGradient() (*Table, error) {
	t := &Table{
		ID:     "Gradient",
		Title:  "Clients->throughput gradient m per server (section 4.1)",
		Header: []string{"Server", "m (fitted)", "Xmax (req/s)", "N* (clients)"},
	}
	mShared, err := s.gradient()
	if err != nil {
		return nil, err
	}
	models, err := s.histSet()
	if err != nil {
		return nil, err
	}
	// Per-server m from one below-saturation measurement each.
	archs := workload.CaseStudyServers()
	cells := make([]measureCell, len(archs))
	for i, arch := range archs {
		cells[i] = measureCell{arch: arch, clients: int(0.4 * models[arch.Name].MaxThroughput / mShared)}
	}
	results, err := measureCells(s, cells)
	if err != nil {
		return nil, err
	}
	var worst float64 = 100
	for i, c := range cells {
		xMax := models[c.arch.Name].MaxThroughput
		mServer := results[i].Throughput / float64(c.clients)
		acc := 100 * (1 - math.Abs(mServer-mShared)/mShared)
		if acc < worst {
			worst = acc
		}
		t.addRow(label(c.arch.Name), f3(mServer), f1(xMax), f1(xMax/mServer))
	}
	t.addRow(label("shared fit"), f3(mShared), label("-"), label("-"))
	t.addNote("cross-server gradient agreement: worst-case %.1f%% (paper: m=0.14, 1.3%% error)", 100-worst)
	return t, nil
}
