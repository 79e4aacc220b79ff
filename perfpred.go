package perfpred

import (
	"io"

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
	// RequestType identifies a class of requests with similar
	// performance characteristics (browse, buy).
	RequestType = workload.RequestType
	// Demand is a request type's mean resource consumption on the
	// reference architecture.
	Demand = workload.Demand
	// Mix is a service class's request-type composition.
	Mix = workload.Mix
	// ServiceClass groups clients sharing a mix, think time and SLA
	// goal.
	ServiceClass = workload.ServiceClass
	// Workload is a set of client populations across service classes.
	Workload = workload.Workload
	// Population is one service class's client count.
	Population = workload.Population
	// ServerArch describes an application-server architecture.
	ServerArch = workload.ServerArch
	// DBServer describes the shared database server.
	DBServer = workload.DBServer
)

// Request types of the Trade case study.
const (
	Browse = workload.Browse
	Buy    = workload.Buy
)

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
	// MixedWorkload splits clients between buy and browse classes.
	MixedWorkload = workload.MixedWorkload
	// BrowseClass and BuyClass build the case-study service classes.
	BrowseClass = workload.BrowseClass
	BuyClass    = workload.BuyClass
)

// Historical method (§4).
type (
	// HistoricalModel is a calibrated relationship-1 model for one
	// server architecture.
	HistoricalModel = hist.ServerModel
	// DataPoint is one historical (clients, mean RT) measurement.
	DataPoint = hist.DataPoint
	// ThroughputPoint is one (clients, throughput) observation.
	ThroughputPoint = hist.ThroughputPoint
	// Relationship2 predicts new architectures from max-throughput
	// benchmarks (§4.2).
	Relationship2 = hist.Relationship2
	// Relationship3 extrapolates max throughput across workload mixes
	// (§4.3).
	Relationship3 = hist.Relationship3
	// BuyPoint is one (buy %, max throughput) observation.
	BuyPoint = hist.BuyPoint
	// ModelSet is a set of calibrated historical models keyed by
	// architecture name; it answers as a Predictor. The historical and
	// hybrid methods both produce one.
	ModelSet = hist.ModelSet
	// ServerHistory is one server's benchmark and recorded data points
	// (none for a new server) — CalibrateSet's input.
	ServerHistory = hist.ServerHistory
	// StabilisationModel captures cold-start settling toward steady
	// state (§8.2).
	StabilisationModel = hist.StabilisationModel
	// StabilisationPoint is one bucket of a cold-start trajectory.
	StabilisationPoint = hist.StabilisationPoint
	// HistoryStore is HYDRA's persistent historical-data store.
	HistoryStore = hist.Store
)

// NewHistoryStore returns an empty HYDRA data store.
var NewHistoryStore = hist.NewStore

// TypicalWorkloadKey is the store signature for the typical workload.
const TypicalWorkloadKey = hist.TypicalWorkloadKey

// Historical method calibration and scoring.
var (
	CalibrateHistorical      = hist.CalibrateServer
	CalibrateGradient        = hist.CalibrateGradient
	FitRelationship2         = hist.FitRelationship2
	FitRelationship3         = hist.FitRelationship3
	EvaluateAccuracy         = hist.EvaluateAccuracy
	EvaluateEquationAccuracy = hist.EvaluateEquationAccuracy
	// CalibrateSet runs the whole §4 chain over server histories; fed
	// percentile data points it yields §8.2's direct percentile models.
	CalibrateSet = hist.CalibrateSet
	// FitStabilisation fits the cold-start settling model (§8.2).
	FitStabilisation = hist.FitStabilisation
	// PredictGradient and RescaleGradient derive the
	// clients→throughput gradient from the think time (§4.1).
	PredictGradient = hist.PredictGradient
	RescaleGradient = hist.RescaleGradient
)

// Layered queuing method (§5).
type (
	// LQNModel is a layered queuing network.
	LQNModel = lqn.Model
	// LQNProcessor, LQNTask, LQNEntry, LQNCall and LQNClass are the
	// model's building blocks.
	LQNProcessor = lqn.Processor
	LQNTask      = lqn.Task
	LQNEntry     = lqn.Entry
	LQNCall      = lqn.Call
	LQNClass     = lqn.Class
	// LQNOptions tunes the solver (convergence criterion, exact MVA,
	// damping).
	LQNOptions = lqn.Options
	// LQNResult is a solved model's predictions.
	LQNResult = lqn.Result
	// LQNSolver is a reusable solver workspace: zero steady-state
	// allocations and optional warm-started sweeps.
	LQNSolver = lqn.Solver
	// CalibrationRun feeds the §5 demand-calibration procedure.
	CalibrationRun = lqn.CalibrationRun
)

// Layered queuing operations.
var (
	SolveLQN = lqn.Solve
	// NewLQNSolver builds a reusable solver for repeated solves of the
	// same (or slowly mutating) model.
	NewLQNSolver  = lqn.NewSolver
	NewTradeModel = lqn.NewTradeModel
	PredictTrade  = lqn.PredictTrade
	// RetuneTradeModel rewrites a trade model's demands in place so a
	// retained solver can keep its cached topology.
	RetuneTradeModel    = lqn.RetuneTradeModel
	CalibrateDemand     = lqn.CalibrateDemand
	ScaleDemandToServer = lqn.ScaleDemandToServer
	MaxClientsSearch    = lqn.MaxClientsSearch
	ReadLQNModel        = lqn.ReadModel
	WriteLQNModel       = lqn.WriteModel
	// AddCriticalSection profiles the §8.1 implicit bottleneck into a
	// trade model.
	AddCriticalSection = lqn.AddCriticalSection
)

// Scheduling disciplines for LQN processors.
const (
	PS    = lqn.PS
	FCFS  = lqn.FCFS
	Delay = lqn.Delay
)

// Hybrid method (§6).
type (
	// HybridConfig controls hybrid model construction.
	HybridConfig = hybrid.Config
	// HybridModel is a calibrated hybrid model with its start-up
	// delay accounting.
	HybridModel = hybrid.Model
)

// BuildHybrid constructs the advanced hybrid model: layered pseudo
// data calibrating per-architecture historical models.
var BuildHybrid = hybrid.Build

// BuildRelationship3FromLQN generates relationship 3 with
// layered-model data, as the paper does for figure 4.
var BuildRelationship3FromLQN = hybrid.BuildRelationship3

// Simulated testbed (the paper's WebSphere/Trade/DB2 substitution).
type (
	// SimConfig describes one simulated measurement run.
	SimConfig = trade.Config
	// SimCacheConfig enables the §7.2 session-cache variant.
	SimCacheConfig = trade.CacheConfig
	// SimCriticalSection enables the §8.1 implicit-bottleneck variant.
	SimCriticalSection = trade.CriticalSectionConfig
	// SimResult is a run's measurements.
	SimResult = trade.Result
	// MeasureOptions tunes the benchmarking helpers.
	MeasureOptions = trade.MeasureOptions
	// CurvePoint is one point of a measured scalability curve.
	CurvePoint = trade.CurvePoint
	// ServerResult is one tier member's share of a measurement.
	ServerResult = trade.ServerResult
	// RoutingPolicy selects the workload-manager routing for
	// multi-server tiers (§2).
	RoutingPolicy = trade.RoutingPolicy
	// WindowPoint is one fixed-width window of a cold-start run.
	WindowPoint = trade.WindowPoint
	// OperationResult is one Trade operation's measurements from a
	// DetailedOperations run (§3.1).
	OperationResult = trade.OperationResult
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
	// Windows measures a cold-start run (no warm-up discard) in
	// fixed-width windows, for the stabilisation study (§8.2) and
	// time-varying workloads.
	Windows = trade.Windows
	// OpenWorkload builds a constant-rate (open) request stream
	// (§8.1).
	OpenWorkload = workload.OpenWorkload
)

// Response-time distributions (§7.1).
var (
	// PercentileFromMean converts a mean prediction into a percentile
	// prediction using the exponential/Laplace distributions.
	PercentileFromMean = rtdist.PercentileFromMean
	// CalibrateLaplaceScale estimates the post-saturation scale b.
	CalibrateLaplaceScale = rtdist.CalibrateScale
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

// Resource management (§9).
type (
	// Predictor is the model interface the resource manager consumes.
	Predictor = rm.Predictor
	// RMClass is a service class to place (clients + SLA goal).
	RMClass = rm.Class
	// RMServer is an application server available for allocation.
	RMServer = rm.Server
	// RMPlan is Algorithm 1's output.
	RMPlan = rm.Plan
	// RMOptions tunes planning.
	RMOptions = rm.Options
	// RMResult carries the §9.1 cost metrics.
	RMResult = rm.Result
	// Biased wraps a predictor with uniform inaccuracy y.
	Biased = rm.Biased
	// ClassShare defines a class as a fraction of total load.
	ClassShare = rm.ClassShare
	// SweepPoint and SlackPoint are study series elements.
	SweepPoint = rm.SweepPoint
	SlackPoint = rm.SlackPoint
	// Application and EpochResult drive the §2 multi-application
	// provider loop.
	Application = rm.Application
	EpochResult = rm.EpochResult
)

// Resource-management operations.
var (
	Allocate            = rm.Allocate
	EvaluatePlan        = rm.Evaluate
	SplitLoad           = rm.SplitLoad
	SweepLoad           = rm.SweepLoad
	SweepSlack          = rm.SweepSlack
	AverageMetrics      = rm.AverageMetrics
	MinZeroFailureSlack = rm.MinZeroFailureSlack
	RMCaseStudyShares   = rm.CaseStudyShares
	RMCaseStudyServers  = rm.CaseStudyServers
	// CheapestSlack picks the lowest-cost slack under a cost model —
	// the §9.1 closing extension.
	CheapestSlack = rm.CheapestSlack
	// RunProvider simulates the §2 service provider transferring
	// servers between hosted applications as loads shift.
	RunProvider = rm.RunProvider
)

// SLA accounting (§9).
type (
	// SLAGoal is a response-time requirement (mean or percentile).
	SLAGoal = sla.Goal
	// SLACostModel maps SLA-failure and server-usage percentages onto
	// one cost scale.
	SLACostModel = sla.CostModel
	// SLATracker accumulates served/rejected clients per class.
	SLATracker = sla.Tracker
)

// NewSLATracker returns an empty tracker.
var NewSLATracker = sla.NewTracker

// Experiment harness: regenerates every table and figure.
type (
	// Suite owns the shared calibration state of the experiments.
	Suite = bench.Suite
	// ResultTable is one regenerated table or figure.
	ResultTable = bench.Table
)

// NewSuite returns an experiment harness seeded for reproducible
// simulated measurements.
func NewSuite(seed int64) *Suite { return bench.NewSuite(seed) }

// Experiments lists the runnable experiment names in paper order.
func Experiments() []string { return bench.Experiments() }

// RunAllExperiments executes every experiment, streaming tables to w.
func RunAllExperiments(s *Suite, w io.Writer) error { return s.RunAll(w) }
