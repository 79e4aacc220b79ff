package perfpred

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestFacadeQuickstart walks the README's API snippet through the
// public API only: calibrate all three methods, predict the new server,
// convert a mean into a percentile, and run one resource-management
// planning cycle.
func TestFacadeQuickstart(t *testing.T) {
	opt := MeasureOptions{Seed: 77, WarmUp: 30, Duration: 100}

	// Historical method: the §4 chain over both established servers'
	// measured data points and the new server's benchmark alone.
	var histories []ServerHistory
	var tps []ThroughputPoint
	for _, arch := range []ServerArch{AppServF(), AppServVF()} {
		xMax, err := MeasureMaxThroughput(arch, 0, opt)
		if err != nil {
			t.Fatal(err)
		}
		nStar := xMax / 0.14
		curve, err := MeasureCurve(arch, []int{int(0.3 * nStar), int(0.55 * nStar), int(1.2 * nStar), int(1.6 * nStar)}, 0, opt)
		if err != nil {
			t.Fatal(err)
		}
		h := ServerHistory{Arch: arch, MaxThroughput: xMax}
		for _, p := range curve {
			h.Points = append(h.Points, DataPoint{Clients: float64(p.Clients), MeanRT: p.Res.MeanRT})
			if arch.Name == "AppServF" && float64(p.Clients) < 0.66*nStar {
				tps = append(tps, ThroughputPoint{Clients: float64(p.Clients), Throughput: p.Res.Throughput})
			}
		}
		histories = append(histories, h)
	}
	xS, err := MeasureMaxThroughput(AppServS(), 0, opt)
	if err != nil {
		t.Fatal(err)
	}
	m, err := CalibrateGradient(tps)
	if err != nil {
		t.Fatal(err)
	}
	models, _, err := CalibrateSet(m, append(histories, ServerHistory{Arch: AppServS(), MaxThroughput: xS}))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := models.Predict("AppServS", 600)
	if err != nil || rt <= 0 {
		t.Fatalf("historical prediction = %v, %v", rt, err)
	}

	// Layered queuing method on the case-study demands.
	lq, err := PredictTrade(AppServF(), CaseStudyDemands(), TypicalWorkload(800), LQNOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if lq.MeanResponseTime() <= 0 {
		t.Fatal("LQN predicted non-positive RT")
	}

	// Hybrid method.
	hyb, err := BuildHybrid(HybridConfig{DB: CaseStudyDB(), Demands: CaseStudyDemands()}, CaseStudyServers())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hyb.Servers.Predict("AppServS", 400); err != nil {
		t.Fatal(err)
	}

	// Percentile extension; p is a fraction, so 90 is an error.
	p90, err := PercentileFromMean(0.1, false, PaperLaplaceScale/1000, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if p90 <= 0.1 {
		t.Fatalf("p90 = %v", p90)
	}
	if _, err := PercentileFromMean(0.1, false, PaperLaplaceScale/1000, 90); err == nil {
		t.Fatal("p = 90 accepted as a fraction")
	}

	// Resource management with the hybrid predictor.
	var pred Predictor = hyb.Servers
	classes, err := SplitLoad(3000, RMCaseStudyShares())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Allocate(classes, RMCaseStudyServers(), pred, 1.1, RMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Allocations) == 0 {
		t.Fatal("empty plan")
	}
}

// TestFacadeNamesAreUsed holds the facade to what the programs use:
// every name perfpred.go exports must be spelled perfpred.<Name> in an
// examples/ program or in one of README.md's code blocks.
func TestFacadeNamesAreUsed(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "perfpred.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var exported []string
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok {
			if fd := decl.(*ast.FuncDecl); fd.Name.IsExported() {
				exported = append(exported, fd.Name.Name)
			}
			continue
		}
		for _, spec := range gd.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() {
					exported = append(exported, s.Name.Name)
				}
			case *ast.ValueSpec:
				for _, n := range s.Names {
					if n.IsExported() {
						exported = append(exported, n.Name)
					}
				}
			}
		}
	}

	var corpus strings.Builder
	programs, err := filepath.Glob(filepath.Join("examples", "*", "*.go"))
	if err != nil || len(programs) == 0 {
		t.Fatalf("no example programs found (%v)", err)
	}
	for _, p := range programs {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		corpus.Write(b)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, block := range regexp.MustCompile("(?s)```[^\n]*\n(.*?)```").FindAllStringSubmatch(string(readme), -1) {
		corpus.WriteString(block[1])
	}

	used := map[string]bool{}
	for _, m := range regexp.MustCompile(`perfpred\.([A-Z]\w*)`).FindAllStringSubmatch(corpus.String(), -1) {
		used[m[1]] = true
	}
	var unused []string
	for _, name := range exported {
		if !used[name] {
			unused = append(unused, name)
		}
	}
	if len(unused) > 0 {
		t.Errorf("%d facade names no example or README code block uses: %s", len(unused), strings.Join(unused, ", "))
	}
}
