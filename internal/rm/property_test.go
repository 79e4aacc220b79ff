package rm

import (
	"math"
	"testing"
	"testing/quick"
)

// Property: the runtime evaluation conserves clients — every real
// client is either served or counted as an SLA failure, for any load,
// slack and uniform predictive bias.
func TestEvaluateConservesClientsProperty(t *testing.T) {
	truth := truthModels()
	servers := CaseStudyServers()
	f := func(loadRaw uint16, slackRaw, biasRaw uint8) bool {
		total := int(loadRaw%20000) + 1
		slack := 0.5 + float64(slackRaw%16)/10 // 0.5 .. 2.0
		bias := 0.7 + float64(biasRaw%14)/10   // 0.7 .. 2.0
		classes, err := SplitLoad(total, CaseStudyShares())
		if err != nil {
			return false
		}
		pred := Biased{Base: truth, Y: bias}
		plan, err := Allocate(classes, servers, pred, slack, Options{AllowDeflation: true})
		if err != nil {
			return false
		}
		res, err := evaluate(plan, classes, servers, truth)
		if err != nil {
			return false
		}
		accounted := 0
		rejected := 0
		for _, c := range classes {
			accounted += res.Tracker.ClassServed(c.Name) + res.Tracker.ClassRejected(c.Name)
			rejected += res.Tracker.ClassRejected(c.Name)
		}
		if accounted != total {
			return false
		}
		// Failure percentage is consistent with the counts.
		wantPct := 100 * float64(rejected) / float64(total)
		return math.Abs(res.SLAFailurePct-wantPct) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: planned allocations never exceed the predicted capacity of
// any server at the tightest goal placed on it.
func TestAllocateRespectsPredictedCapacityProperty(t *testing.T) {
	truth := truthModels()
	servers := CaseStudyServers()
	f := func(loadRaw uint16, slackRaw uint8) bool {
		total := int(loadRaw%15000) + 1
		slack := 0.5 + float64(slackRaw%16)/10
		classes, err := SplitLoad(total, CaseStudyShares())
		if err != nil {
			return false
		}
		plan, err := Allocate(classes, servers, truth, slack, Options{AllowDeflation: true})
		if err != nil {
			return false
		}
		perServer := map[string]int{}
		minGoal := map[string]float64{}
		archOf := map[string]string{}
		for _, s := range servers {
			archOf[s.Name] = s.Arch
		}
		goalOf := map[string]float64{}
		for _, c := range classes {
			goalOf[c.Name] = c.GoalRT
		}
		for _, a := range plan.Allocations {
			perServer[a.Server] += a.Clients
			g := goalOf[a.Class]
			if mg, ok := minGoal[a.Server]; !ok || g < mg {
				minGoal[a.Server] = g
			}
		}
		for name, n := range perServer {
			capN, err := truth.MaxClients(archOf[name], minGoal[name])
			if err != nil {
				return false
			}
			if float64(n) > math.Floor(capN)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
