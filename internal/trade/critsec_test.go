package trade

import (
	"math"
	"testing"

	"perfpred/internal/workload"
)

func csConfig(clients int, cs *CriticalSectionConfig) Config {
	return Config{
		Server:          workload.AppServF(),
		DB:              workload.CaseStudyDB(),
		Demands:         workload.CaseStudyDemands(),
		Load:            workload.TypicalWorkload(clients),
		Seed:            47,
		WarmUp:          40,
		Duration:        140,
		CriticalSection: cs,
	}
}

func TestCriticalSectionValidation(t *testing.T) {
	bad := csConfig(100, &CriticalSectionConfig{MeanTime: 0, Fraction: 0.5})
	if err := bad.validate(); err == nil {
		t.Fatal("zero mean time should fail")
	}
	bad = csConfig(100, &CriticalSectionConfig{MeanTime: 0.01, Fraction: 0})
	if err := bad.validate(); err == nil {
		t.Fatal("zero fraction should fail")
	}
	bad = csConfig(100, &CriticalSectionConfig{MeanTime: 0.01, Fraction: 1.5})
	if err := bad.validate(); err == nil {
		t.Fatal("fraction > 1 should fail")
	}
	if err := csConfig(100, &CriticalSectionConfig{MeanTime: 0.01, Fraction: 1}).validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCriticalSectionLowersCeiling(t *testing.T) {
	// 30% of requests burning an extra 10ms of locked CPU drop the
	// ceiling to ≈ 1/(5.38ms + 3ms) ≈ 119 req/s.
	cs := &CriticalSectionConfig{MeanTime: 0.010, Fraction: 0.30}
	res, err := Run(csConfig(2400, cs))
	if err != nil {
		t.Fatal(err)
	}
	d := workload.CaseStudyDemands()[workload.Browse]
	want := 1 / (d.AppServerTime + 0.30*0.010)
	if math.Abs(res.Throughput-want)/want > 0.06 {
		t.Fatalf("bottlenecked ceiling = %v, want ≈%v", res.Throughput, want)
	}
	// And the same load without the section runs at the normal ceiling.
	base, err := Run(csConfig(2400, nil))
	if err != nil {
		t.Fatal(err)
	}
	if base.Throughput <= res.Throughput {
		t.Fatal("removing the section should raise throughput")
	}
}

func TestCriticalSectionSerialisesUnderLoad(t *testing.T) {
	// Mid-load response time inflates well beyond the pure extra-CPU
	// effect because lock holders are slowed by CPU sharing, stretching
	// every queued waiter (the §8.1 implicit queue).
	cs := &CriticalSectionConfig{MeanTime: 0.010, Fraction: 0.30}
	withCS, err := Run(csConfig(700, cs))
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(csConfig(700, nil))
	if err != nil {
		t.Fatal(err)
	}
	// The naive expectation is +3ms (the extra CPU); the measured gap
	// must exceed it, showing genuine queueing at the lock.
	gap := withCS.MeanRT - base.MeanRT
	if gap < 0.004 {
		t.Fatalf("CS added only %v s at mid load; expected lock queueing beyond the 3ms work", gap)
	}
}
