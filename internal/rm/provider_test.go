package rm

import (
	"testing"
)

func twoApps(loadA, loadB []int) []Application {
	return []Application{
		{Name: "shop", Shares: CaseStudyShares(), LoadPerEpoch: loadA},
		{Name: "bank", Shares: CaseStudyShares(), LoadPerEpoch: loadB},
	}
}

func TestProviderValidation(t *testing.T) {
	truth := truthModels()
	servers := CaseStudyServers()
	if _, err := RunProvider(nil, servers, truth, truth, 0); err == nil {
		t.Fatal("no apps should fail")
	}
	if _, err := RunProvider(twoApps([]int{100}, []int{100}), nil, truth, truth, 0); err == nil {
		t.Fatal("no servers should fail")
	}
	if _, err := RunProvider(twoApps([]int{100, 200}, []int{100}), servers, truth, truth, 0); err == nil {
		t.Fatal("mismatched epoch counts should fail")
	}
	bad := twoApps([]int{100}, []int{100})
	bad[0].Name = ""
	if _, err := RunProvider(bad, servers, truth, truth, 0); err == nil {
		t.Fatal("unnamed app should fail")
	}
	bad = twoApps([]int{-1}, []int{100})
	if _, err := RunProvider(bad, servers, truth, truth, 0); err == nil {
		t.Fatal("negative load should fail")
	}
}

func TestProviderIsolatesApplications(t *testing.T) {
	// Every server serves exactly one application per epoch — the §2
	// isolation requirement.
	truth := truthModels()
	servers := CaseStudyServers()
	apps := twoApps([]int{3000, 3000}, []int{3000, 3000})
	results, err := RunProvider(apps, servers, truth, truth, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		seen := map[string]string{}
		total := 0
		for app, names := range r.ServersByApp {
			for _, name := range names {
				if prev, dup := seen[name]; dup {
					t.Fatalf("epoch %d: server %s serves both %s and %s", r.Epoch, name, prev, app)
				}
				seen[name] = app
				total++
			}
		}
		if total != len(servers) {
			t.Fatalf("epoch %d: %d servers assigned, want %d", r.Epoch, total, len(servers))
		}
	}
}

func TestProviderTransfersFollowLoadShift(t *testing.T) {
	// Epoch 0: shop carries everything. Epoch 1: the load moves to
	// bank — servers must transfer, and bank must then serve its load
	// with 0 failures under a perfect predictor.
	truth := truthModels()
	servers := CaseStudyServers()
	apps := twoApps([]int{6000, 500}, []int{500, 6000})
	results, err := RunProvider(apps, servers, truth, truth, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Transfers != 0 {
		t.Fatalf("epoch 0 transfers = %d, want 0 (initial assignment)", results[0].Transfers)
	}
	if results[1].Transfers == 0 {
		t.Fatal("load shift should force server transfers")
	}
	// The shifted load is served: both applications within goals.
	for app, fail := range results[1].FailurePctByApp {
		if fail > 0 {
			t.Fatalf("epoch 1: %s failures = %v, want 0", app, fail)
		}
	}
	// Server counts follow the load: bank holds more power in epoch 1.
	powerOf := func(names []string) float64 {
		var p float64
		byName := map[string]float64{}
		for _, s := range servers {
			byName[s.Name] = s.Power
		}
		for _, n := range names {
			p += byName[n]
		}
		return p
	}
	if powerOf(results[1].ServersByApp["bank"]) <= powerOf(results[1].ServersByApp["shop"]) {
		t.Fatal("bank should hold the larger share after the shift")
	}
}

func TestProviderStableLoadAvoidsTransfers(t *testing.T) {
	// With constant loads, the keep-first policy should leave servers
	// in place after the initial assignment.
	truth := truthModels()
	servers := CaseStudyServers()
	apps := twoApps([]int{4000, 4000, 4000}, []int{2000, 2000, 2000})
	results, err := RunProvider(apps, servers, truth, truth, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results[1:] {
		if r.Transfers != 0 {
			t.Fatalf("epoch %d: %d transfers under stable load", r.Epoch, r.Transfers)
		}
	}
}

func TestProviderZeroLoadApplication(t *testing.T) {
	truth := truthModels()
	servers := CaseStudyServers()
	apps := twoApps([]int{5000}, []int{0})
	results, err := RunProvider(apps, servers, truth, truth, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if fail := results[0].FailurePctByApp["shop"]; fail != 0 {
		t.Fatalf("shop failures = %v", fail)
	}
	if _, ok := results[0].FailurePctByApp["bank"]; ok {
		t.Fatal("idle application should report no failure entry")
	}
}
