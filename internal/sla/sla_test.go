package sla

import (
	"math"
	"testing"
)

func TestGoalValidate(t *testing.T) {
	if err := (Goal{MaxRT: 0.3}).validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Goal{MaxRT: 0}).validate(); err == nil {
		t.Fatal("zero MaxRT should fail")
	}
}

func TestGoalMet(t *testing.T) {
	g := Goal{MaxRT: 0.3}
	if !g.met(0.3) || !g.met(0.1) {
		t.Fatal("goal should be met at or below the bound")
	}
	if g.met(0.31) {
		t.Fatal("goal should be missed above the bound")
	}
}

func TestCostModel(t *testing.T) {
	c := CostModel{FailureCostPerPct: 10, UsageCostPerPct: 2}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := c.Cost(3, 50); math.Abs(got-130) > 1e-12 {
		t.Fatalf("cost = %v, want 130", got)
	}
	if err := (CostModel{}).Validate(); err == nil {
		t.Fatal("zero cost model should fail")
	}
	if err := (CostModel{FailureCostPerPct: -1, UsageCostPerPct: 1}).Validate(); err == nil {
		t.Fatal("negative cost should fail")
	}
}

func TestTracker(t *testing.T) {
	tr := NewTracker()
	if tr.FailurePct() != 0 {
		t.Fatal("empty tracker should report 0")
	}
	tr.Serve("browse", 90)
	tr.Reject("browse", 10)
	tr.Serve("buy", 50)
	if got := tr.FailurePct(); math.Abs(got-100.0*10/150) > 1e-9 {
		t.Fatalf("overall failure pct = %v", got)
	}
	if got := tr.ClassFailurePct("browse"); math.Abs(got-10) > 1e-9 {
		t.Fatalf("browse failure pct = %v", got)
	}
	if got := tr.ClassFailurePct("buy"); got != 0 {
		t.Fatalf("buy failure pct = %v", got)
	}
	if got := tr.ClassFailurePct("ghost"); got != 0 {
		t.Fatalf("unknown class failure pct = %v", got)
	}
}

func TestTrackerClassCounts(t *testing.T) {
	tr := NewTracker()
	tr.Serve("a", 7)
	tr.Reject("a", 3)
	if tr.ClassServed("a") != 7 || tr.ClassRejected("a") != 3 {
		t.Fatalf("counts = %d/%d", tr.ClassServed("a"), tr.ClassRejected("a"))
	}
	if tr.ClassServed("b") != 0 || tr.ClassRejected("b") != 0 {
		t.Fatal("unknown class should count 0")
	}
}
