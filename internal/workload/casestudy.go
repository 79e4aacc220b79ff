package workload

import "fmt"

// This file pins down the paper's §3 case study so every experiment in
// the repository runs against one canonical configuration.
//
// The physical testbed (WebSphere + Trade on P3/P4 machines, DB2 on an
// Athlon) is substituted by the discrete-event simulator in
// internal/trade. Ground-truth service demands are chosen so the
// simulator reproduces the paper's benchmarked max throughputs — 86,
// 186 and 320 requests/second for AppServS, AppServF and AppServVF
// under the typical workload — with the browse/buy demand and
// database-call ratios of the paper's Table 2.

// Case-study constants (§3, §5.1).
const (
	// ThinkTimeMean is the IBM-recommended 7-second exponential mean
	// client think time.
	ThinkTimeMean = 7.0

	// AppServerMPL and DBServerMPL are the time-sharing
	// multiprogramming levels: "the application and database servers
	// can process 50 and 20 requests at the same time" (§5.1).
	AppServerMPL = 50
	DBServerMPL  = 20

	// MaxThroughputS/F/VF are the benchmarked typical-workload max
	// throughputs of the three architectures, requests/second (§3.2).
	MaxThroughputS  = 86.0
	MaxThroughputF  = 186.0
	MaxThroughputVF = 320.0

	// BuyRequestsPerSession is the mean number of sequential buy
	// requests a buy client makes before logging off (§3.1), giving
	// the mean portfolio size of 5.5.
	BuyRequestsPerSession = 10

	// CacheMissDBCalls is what a session-cache miss costs (§7.2): one
	// more database call, of the request type's own per-call time, to
	// read the session back. The simulator charges it and the models
	// fold it into their demands.
	CacheMissDBCalls = 1
)

// Ground-truth demands on the reference architecture (AppServF). The
// app-server time is 1/186 s so that AppServF saturates at the paper's
// 186 requests/second; DB numbers carry over the paper's Table 2
// values (0.8294 ms/call at 1.14 calls per browse request; 1.613
// ms/call at 2 calls per buy request), and the buy/browse app-time
// ratio carries over Table 2's 8.761/4.505.
var (
	browseDemandF = Demand{
		AppServerTime:     1.0 / MaxThroughputF,
		DBTimePerCall:     0.0008294,
		DBCallsPerRequest: 1.14,
	}
	buyDemandF = Demand{
		AppServerTime:     (8.761 / 4.505) / MaxThroughputF,
		DBTimePerCall:     0.001613,
		DBCallsPerRequest: 2,
	}
)

// CaseStudyDemands returns the ground-truth per-request-type demands
// on the reference architecture (AppServF).
func CaseStudyDemands() map[RequestType]Demand {
	return map[RequestType]Demand{
		Browse: browseDemandF,
		Buy:    buyDemandF,
	}
}

// AppServS returns the new 'slow' architecture (paper: P3 450 MHz,
// 128 MB heap; max throughput 86 req/s). It is the architecture with
// no historical data, for which predictions are required.
func AppServS() ServerArch {
	return ServerArch{
		Name:                 "AppServS",
		Speed:                MaxThroughputS / MaxThroughputF,
		MPL:                  AppServerMPL,
		MaxThroughputTypical: MaxThroughputS,
		Established:          false,
	}
}

// AppServF returns the established 'fast' reference architecture
// (paper: P4 1.8 GHz, 256 MB heap; max throughput 186 req/s).
func AppServF() ServerArch {
	return ServerArch{
		Name:                 "AppServF",
		Speed:                1.0,
		MPL:                  AppServerMPL,
		MaxThroughputTypical: MaxThroughputF,
		Established:          true,
	}
}

// AppServVF returns the established 'very fast' architecture (paper:
// P4 2.66 GHz, 256 MB heap; max throughput 320 req/s).
func AppServVF() ServerArch {
	return ServerArch{
		Name:                 "AppServVF",
		Speed:                MaxThroughputVF / MaxThroughputF,
		MPL:                  AppServerMPL,
		MaxThroughputTypical: MaxThroughputVF,
		Established:          true,
	}
}

// CaseStudyServers returns the three §3.2 architectures in
// slow-to-fast order.
func CaseStudyServers() []ServerArch {
	return []ServerArch{AppServS(), AppServF(), AppServVF()}
}

// ServerByName returns the case-study architecture with the given name.
func ServerByName(name string) (ServerArch, error) {
	for _, s := range CaseStudyServers() {
		if s.Name == name {
			return s, nil
		}
	}
	return ServerArch{}, fmt.Errorf("unknown server %q (want AppServS, AppServF or AppServVF)", name)
}

// CaseStudyDB returns the shared database server (paper: Athlon
// 1.4 GHz, 512 MB, DB2 7.2).
func CaseStudyDB() DBServer {
	return DBServer{Name: "DBServ", Speed: 1.0, MPL: DBServerMPL}
}

// BrowseClass returns the 'browse' service class: all requests drawn
// from Trade's representative browse mix, which this model reduces to
// the browse request type. goalRT 0 means no SLA goal.
func BrowseClass(goalRT float64) ServiceClass {
	return ServiceClass{
		Name:          "browse",
		Mix:           Mix{Browse: 1.0},
		ThinkTimeMean: ThinkTimeMean,
		GoalRT:        goalRT,
	}
}

// BuyClass returns the 'buy' service class: register/login, a run of
// buy operations, then logoff. Its requests are the buy request type.
func BuyClass(goalRT float64) ServiceClass {
	return ServiceClass{
		Name:          "buy",
		Mix:           Mix{Buy: 1.0},
		ThinkTimeMean: ThinkTimeMean,
		GoalRT:        goalRT,
	}
}

// TypicalWorkload is the paper's simplification: the typical workload
// is all browse clients (§3.1).
func TypicalWorkload(clients int) Workload {
	return Workload{{Class: BrowseClass(0), Clients: clients}}
}

// MixLoad is n clients under a buy mix: the typical all-browse
// workload at buyFrac <= 0, the browse/buy split otherwise. The two
// differ structurally (one class against two, the second possibly
// empty), so every caller that takes a mix as a number goes through
// here.
func MixLoad(n int, buyFrac float64) Workload {
	if buyFrac <= 0 {
		return TypicalWorkload(n)
	}
	return MixedWorkload(n, buyFrac)
}

// MixedWorkload returns a workload with the given total clients split
// between buy (fraction buyFrac) and browse clients, as used by the
// heterogeneous-workload experiments (figure 4).
func MixedWorkload(clients int, buyFrac float64) Workload {
	buy := int(float64(clients)*buyFrac + 0.5)
	return Workload{
		{Class: BuyClass(0), Clients: buy},
		{Class: BrowseClass(0), Clients: clients - buy},
	}
}
