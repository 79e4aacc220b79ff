package hist

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"perfpred/internal/workload"
)

// caseModelVF is caseModelF's very-fast counterpart, so the pair spans
// relationship 2's max-throughput axis.
func caseModelVF() *ServerModel {
	return &ServerModel{
		Arch:          workload.AppServVF(),
		MaxThroughput: 320,
		CL:            0.0107,
		LambdaL:       0.0009,
		LambdaU:       0.00312,
		CU:            -7.2,
		M:             0.14,
	}
}

// sameBits reports whether two models carry bit-identical parameters.
func sameBits(a, b *ServerModel) bool {
	pa := []float64{a.MaxThroughput, a.CL, a.LambdaL, a.LambdaU, a.CU, a.M}
	pb := []float64{b.MaxThroughput, b.CL, b.LambdaL, b.LambdaU, b.CU, b.M}
	for i := range pa {
		if math.Float64bits(pa[i]) != math.Float64bits(pb[i]) {
			return false
		}
	}
	return a.Arch.Name == b.Arch.Name
}

// The set adds a name lookup and nothing else: every answer is the
// named model's own, bit for bit, and an unknown name is an error from
// both methods.
func TestModelSetAnswersAsItsModels(t *testing.T) {
	set := ModelSet{"AppServF": caseModelF(), "AppServVF": caseModelVF()}
	for name, sm := range set {
		for _, n := range []float64{1, 300, 0.8 * sm.SaturationClients(), sm.SaturationClients(), 4000} {
			got, err := set.Predict(name, n)
			if err != nil || math.Float64bits(got) != math.Float64bits(sm.Predict(n)) {
				t.Errorf("%s Predict(%v) = %v, %v; the model says %v", name, n, got, err, sm.Predict(n))
			}
		}
		for _, goal := range []float64{0.05, 0.3, 2, -1} {
			want, wantErr := sm.MaxClients(goal)
			got, err := set.MaxClients(name, goal)
			if (err == nil) != (wantErr == nil) || math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s MaxClients(%v) = %v, %v; the model says %v, %v", name, goal, got, err, want, wantErr)
			}
		}
	}
	if _, err := set.Predict("AppServS", 100); err == nil {
		t.Error("Predict answered for an architecture not in the set")
	}
	if _, err := set.MaxClients("AppServS", 0.3); err == nil {
		t.Error("MaxClients answered for an architecture not in the set")
	}
}

// CalibrateSet is the hand-written chain — CalibrateServer per
// established server, FitRelationship2 across them in the order given,
// NewServerModel for the rest — and nothing more: same bits, whichever
// established server leads and wherever the new one stands.
func TestCalibrateSetEqualsHandChain(t *testing.T) {
	const m = 0.14
	f := ServerHistory{Arch: workload.AppServF(), MaxThroughput: 186, Points: syntheticPoints(caseModelF(), 2, 2)}
	vf := ServerHistory{Arch: workload.AppServVF(), MaxThroughput: 320, Points: syntheticPoints(caseModelVF(), 3, 2)}
	s := ServerHistory{Arch: workload.AppServS(), MaxThroughput: 86}

	for _, order := range [][]ServerHistory{{f, vf, s}, {vf, f, s}, {s, f, vf}} {
		var established []*ServerModel
		for _, h := range order {
			if len(h.Points) == 0 {
				continue
			}
			sm, err := CalibrateServer(h.Arch, h.MaxThroughput, m, h.Points)
			if err != nil {
				t.Fatal(err)
			}
			established = append(established, sm)
		}
		wantRel2, err := FitRelationship2(established)
		if err != nil {
			t.Fatal(err)
		}
		wantNew, err := wantRel2.NewServerModel(s.Arch, s.MaxThroughput)
		if err != nil {
			t.Fatal(err)
		}

		set, rel2, err := CalibrateSet(m, order)
		if err != nil {
			t.Fatal(err)
		}
		lead := established[0].Arch.Name
		if len(set) != 3 {
			t.Fatalf("%s first: %d models, want 3", lead, len(set))
		}
		for _, want := range append(established, wantNew) {
			if got := set[want.Arch.Name]; got == nil || !sameBits(got, want) {
				t.Errorf("%s first: %s = %+v, hand chain gives %+v", lead, want.Arch.Name, got, want)
			}
		}
		if !reflect.DeepEqual(rel2, wantRel2) {
			t.Errorf("%s first: relationship 2 = %+v, hand chain gives %+v", lead, rel2, wantRel2)
		}
		if rel2.XRef != established[0].MaxThroughput {
			t.Errorf("%s first: λU reference is the %v req/s server", lead, rel2.XRef)
		}
	}
}

func TestCalibrateSetErrors(t *testing.T) {
	const m = 0.14
	f := ServerHistory{Arch: workload.AppServF(), MaxThroughput: 186, Points: syntheticPoints(caseModelF(), 2, 2)}
	vf := ServerHistory{Arch: workload.AppServVF(), MaxThroughput: 320, Points: syntheticPoints(caseModelVF(), 2, 2)}
	s := ServerHistory{Arch: workload.AppServS(), MaxThroughput: 86}

	if _, _, err := CalibrateSet(m, []ServerHistory{f, s}); err == nil {
		t.Error("one established server cannot fit relationship 2")
	}
	if _, _, err := CalibrateSet(0, []ServerHistory{f, vf, s}); err == nil {
		t.Error("zero gradient accepted")
	}
	unbenchmarked := s
	unbenchmarked.MaxThroughput = 0
	if _, _, err := CalibrateSet(m, []ServerHistory{f, vf, unbenchmarked}); err == nil || !strings.Contains(err.Error(), "AppServS") {
		t.Errorf("new server without a benchmark: %v, want an error naming it", err)
	}
	thin := vf
	thin.Points = thin.Points[:3] // one upper point left
	if _, _, err := CalibrateSet(m, []ServerHistory{f, thin, s}); err == nil || !strings.Contains(err.Error(), "AppServVF") {
		t.Errorf("established server short of points: %v, want an error naming it", err)
	}
}
