package perfpred

import (
	"perfpred/internal/bench"
	"perfpred/internal/hist"
	"perfpred/internal/hybrid"
	"perfpred/internal/lqn"
	"perfpred/internal/rm"
	"perfpred/internal/rtdist"
	"perfpred/internal/sessioncache"
	"perfpred/internal/sla"
	"perfpred/internal/trade"
	"perfpred/internal/workload"
)

// Workload and platform model (§2-3).
type (
	// Mix is a service class's request-type composition.
	Mix = workload.Mix
	// ServiceClass groups clients sharing a mix, think time and SLA
	// goal.
	ServiceClass = workload.ServiceClass
	// Workload is a set of client populations across service classes.
	Workload = workload.Workload
	// ServerArch describes an application-server architecture.
	ServerArch = workload.ServerArch
)

// Browse is the Trade case study's browse request type.
const Browse = workload.Browse

// Case-study constructors (§3).
var (
	// AppServS is the new 'slow' architecture (86 req/s benchmark).
	AppServS = workload.AppServS
	// AppServF is the established reference architecture (186 req/s).
	AppServF = workload.AppServF
	// AppServVF is the established 'very fast' architecture (320 req/s).
	AppServVF = workload.AppServVF
	// CaseStudyServers returns all three §3.2 architectures.
	CaseStudyServers = workload.CaseStudyServers
	// CaseStudyDB returns the shared database server.
	CaseStudyDB = workload.CaseStudyDB
	// CaseStudyDemands returns the ground-truth per-type demands.
	CaseStudyDemands = workload.CaseStudyDemands
	// TypicalWorkload is the all-browse workload of §3.1.
	TypicalWorkload = workload.TypicalWorkload
	// BrowseClass builds the case-study browse service class.
	BrowseClass = workload.BrowseClass
)

// Historical method (§4).
type (
	// DataPoint is one historical (clients, mean RT) measurement.
	DataPoint = hist.DataPoint
	// ThroughputPoint is one (clients, throughput) observation.
	ThroughputPoint = hist.ThroughputPoint
	// ServerHistory is one server's benchmark and recorded data points
	// (none for a new server) — CalibrateSet's input.
	ServerHistory = hist.ServerHistory
)

var (
	// CalibrateGradient fits the clients→throughput gradient m (§4.1).
	CalibrateGradient = hist.CalibrateGradient
	// CalibrateSet runs the whole §4 chain over server histories; fed
	// percentile data points it yields §8.2's direct percentile models.
	CalibrateSet = hist.CalibrateSet
)

// Layered queuing method (§5).
type (
	// LQNOptions tunes the solver (convergence criterion, exact MVA,
	// damping).
	LQNOptions = lqn.Options
)

// PredictTrade builds and solves the layered queuing model of the
// Trade case study on one architecture.
var PredictTrade = lqn.PredictTrade

// Hybrid method (§6).
type (
	// HybridConfig controls hybrid model construction.
	HybridConfig = hybrid.Config
)

var (
	// BuildHybrid constructs the advanced hybrid model: layered pseudo
	// data calibrating per-architecture historical models.
	BuildHybrid = hybrid.Build
	// BuildRelationship3FromLQN generates relationship 3 with
	// layered-model data, as the paper does for figure 4.
	BuildRelationship3FromLQN = hybrid.BuildRelationship3
)

// Response-time percentiles (§7.1).
var (
	// PercentileFromMean converts a mean prediction into a percentile
	// prediction using the exponential/Laplace distributions.
	PercentileFromMean = rtdist.PercentileFromMean
)

// PaperLaplaceScale is the paper's calibrated b (204.1 ms), exported
// for exact-configuration reproduction.
const PaperLaplaceScale = rtdist.PaperScaleB

// Session-cache modelling (§7.2).
var (
	FitMissRateModel    = sessioncache.FitMissRateModel
	EqualAccessMissRate = sessioncache.EqualAccessMissRate
	EffectiveDemand     = sessioncache.EffectiveDemand
	SolveLQNWithCache   = sessioncache.SolveWithCache
)

// CachePoint is one (capacity, miss rate) historical observation.
type CachePoint = sessioncache.CachePoint

// Simulated testbed (the paper's WebSphere/Trade/DB2 substitution).
type (
	// SimConfig describes one simulated measurement run.
	SimConfig = trade.Config
	// SimCacheConfig enables the §7.2 session-cache variant.
	SimCacheConfig = trade.CacheConfig
	// SimResult is a run's measurements.
	SimResult = trade.Result
	// MeasureOptions tunes the benchmarking helpers.
	MeasureOptions = trade.MeasureOptions
	// RoutingPolicy selects the workload-manager routing for
	// multi-server tiers (§2).
	RoutingPolicy = trade.RoutingPolicy
)

// Workload-manager routing policies.
const (
	RouteSticky     = trade.RouteSticky
	RouteRoundRobin = trade.RouteRoundRobin
	RouteLeastBusy  = trade.RouteLeastBusy
)

// Simulated-testbed operations.
var (
	RunSim               = trade.Run
	Measure              = trade.Measure
	MeasureMaxThroughput = trade.MaxThroughput
	MeasureCurve         = trade.MeasureCurve
)

// Resource management (§9).
type (
	// Predictor is the model interface the resource manager consumes;
	// every method's calibrated models answer as one.
	Predictor = rm.Predictor
	// RMOptions tunes planning.
	RMOptions = rm.Options
	// SLACostModel maps SLA-failure and server-usage percentages onto
	// one cost scale.
	SLACostModel = sla.CostModel
)

var (
	// Allocate is Algorithm 1: place service classes on servers so each
	// meets its SLA goal by the predictor's account.
	Allocate = rm.Allocate
	// SplitLoad divides a total client count into service classes.
	SplitLoad = rm.SplitLoad
	// RMCaseStudyShares and RMCaseStudyServers are §9.1's service-class
	// shares and server pool.
	RMCaseStudyShares  = rm.CaseStudyShares
	RMCaseStudyServers = rm.CaseStudyServers
	// SweepLoad and SweepSlack run the figure 5-8 studies.
	SweepLoad  = rm.SweepLoad
	SweepSlack = rm.SweepSlack
	// CheapestSlack picks the lowest-cost slack under a cost model —
	// the §9.1 closing extension.
	CheapestSlack = rm.CheapestSlack
)

// NewSuite returns the experiment harness that regenerates every table
// and figure, seeded for reproducible simulated measurements.
var NewSuite = bench.NewSuite
