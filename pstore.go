// Package pstore is a from-scratch reproduction of P-Store, the elastic
// OLTP database system with predictive provisioning of Taft et al.
// (SIGMOD 2018; first presented as "Predictive Provisioning: A Progress
// Report", CIDR 2017).
//
// P-Store forecasts the aggregate load on a shared-nothing, partitioned,
// main-memory OLTP database with Sparse Periodic Auto-Regression (SPAR),
// plans the cheapest sequence of cluster reconfigurations whose effective
// capacity always covers the predicted load, and executes those
// reconfigurations as live, throttled data migrations — before load spikes
// arrive rather than after.
//
// The primary entry points are a Node (internal/node), which assembles and
// loads the storage engine with its recovery manager, and the Cluster
// (internal/cluster) over it: the provisioning controller's
// monitoring/decision loop and the Squall migration executor, behind one
// lifecycle (OpenNode, NewCluster, Start, Stop), publishing a typed event
// stream (MoveStarted, MoveFinished, DecisionFailed, EmergencyTriggered,
// LoadObserved, MachineFailed, MachineRecovered) for observers.
//
// The package is a facade over the internal subsystems:
//
//   - Node and Cluster: one P-Store process and the paper's closed loop
//     driving it (internal/node, internal/cluster).
//   - Engine: an H-Store-like storage engine — serial per-partition
//     executors, hash-bucketed partitioning, single-partition transactions,
//     and live bucket migration (internal/store).
//   - Squall: the live migration executor that streams buckets between
//     partitions in throttled chunks following the maximum-parallelism
//     round schedule (internal/squall, internal/migration).
//   - SPAR / AR / ARMA: load forecasting models (internal/predictor).
//   - Planner: the dynamic program of the paper's Algorithms 1-3
//     (internal/planner).
//   - PredictiveController and friends: the provisioning policies compared
//     in the paper's evaluation (internal/elastic).
//   - The B2W retail benchmark: schema, 19 stored procedures, loader and
//     trace-driven driver (internal/b2w).
//   - Simulation and experiments: the long-horizon strategy simulator and
//     one runnable experiment per paper table and figure
//     (internal/sim, internal/experiments).
//
// See the examples directory for end-to-end usage and EXPERIMENTS.md for
// the reproduction results.
package pstore

import (
	"context"
	"time"

	"pstore/internal/b2w"
	"pstore/internal/client"
	"pstore/internal/cluster"
	"pstore/internal/elastic"
	"pstore/internal/experiments"
	"pstore/internal/faults"
	"pstore/internal/metrics"
	"pstore/internal/migration"
	"pstore/internal/node"
	"pstore/internal/planner"
	"pstore/internal/predictor"
	"pstore/internal/recovery"
	"pstore/internal/server"
	"pstore/internal/sim"
	"pstore/internal/squall"
	"pstore/internal/store"
	"pstore/internal/timeseries"
	"pstore/internal/transport"
	"pstore/internal/workload"
)

// --- cluster runtime (paper Section 6) --------------------------------------

// Cluster is the controller's monitoring/decision loop and the Squall
// executor over a node's engine, under one lifecycle. It is the single owner
// of move execution and publishes a typed event stream.
type Cluster = cluster.Cluster

// ClusterConfig configures a Cluster.
type ClusterConfig = cluster.Config

// ClusterStats summarizes a runtime's decision activity.
type ClusterStats = cluster.Stats

// NewCluster builds the decision loop over an opened node's engine; Start it
// after attaching the recorder named in cfg to the node's engine
// (Engine.SetRecorder).
func NewCluster(cfg ClusterConfig, n *Node) (*Cluster, error) {
	return cluster.NewRemote(cfg, transport.NewLocal(n.Engine, n.Recovery))
}

// Node is one P-Store process assembled: the storage engine, the recovery
// manager that logs it and the server that can front it (internal/node).
type Node = node.Node

// NodeConfig describes a node. A single-process node has Nodes 1 and hosts
// every machine; Register installs the procedures and Load the dataset.
type NodeConfig = node.Config

// OpenNode assembles a node and loads its dataset (or cold-starts it from
// its data directory) without serving it; Close stops it.
func OpenNode(cfg NodeConfig) (*Node, error) { return node.Open(cfg) }

// ClusterEvent is a typed notification from the cluster runtime; subscribe
// with Cluster.Subscribe.
type ClusterEvent = cluster.Event

// The concrete event types delivered on a cluster's event stream.
type (
	// LoadObserved reports each monitoring cycle's measured load.
	LoadObserved = cluster.LoadObserved
	// MoveStarted marks the start of a reconfiguration.
	MoveStarted = cluster.MoveStarted
	// MoveFinished marks the successful end of a reconfiguration.
	MoveFinished = cluster.MoveFinished
	// MoveFailed marks an aborted reconfiguration (rolled back to the
	// pre-move bucket plan).
	MoveFailed = cluster.MoveFailed
	// DecisionFailed reports a controller error.
	DecisionFailed = cluster.DecisionFailed
	// EmergencyTriggered reports an emergency scale-out decision.
	EmergencyTriggered = cluster.EmergencyTriggered
	// MachineFailed reports a machine crash from the crash schedule.
	MachineFailed = cluster.MachineFailed
	// MachineRecovered reports a crashed machine rebuilt from its last
	// checkpoint plus command-log replay.
	MachineRecovered = cluster.MachineRecovered
)

// ErrMoveInFlight is returned by Cluster.Reconfigure while a move runs.
var ErrMoveInFlight = cluster.ErrMoveInFlight

// --- capacity and migration model (paper Section 4) -----------------------

// MigrationModel holds the empirically discovered capacity parameters: the
// per-server target throughput Q, maximum throughput Q̂, single-thread
// full-database migration time D, and partitions per server P. It prices
// moves (Equations 2-4, Algorithm 4) and computes effective capacity during
// migration (Equation 7).
type MigrationModel = migration.Model

// Schedule is a move's round-by-round sender/receiver pairing (Table 1).
type Schedule = migration.Schedule

// BuildSchedule constructs the maximum-parallelism migration schedule for a
// move between cluster sizes (Section 4.4.1).
func BuildSchedule(from, to, partitionsPerMachine int) (*Schedule, error) {
	return migration.BuildSchedule(from, to, partitionsPerMachine)
}

// --- planning (paper Section 4.3) ------------------------------------------

// Planner runs the predictive elasticity dynamic program (Algorithms 1-3).
type Planner = planner.Planner

// Plan is an optimal sequence of reconfiguration moves.
type Plan = planner.Plan

// Move is one reconfiguration step within a plan.
type Move = planner.Move

// ErrInfeasible is returned when no move sequence can keep capacity above
// the predicted load; controllers then fall back to emergency scaling.
var ErrInfeasible = planner.ErrInfeasible

// --- prediction (paper Section 5) ------------------------------------------

// Predictor forecasts future load from an observed history.
type Predictor = predictor.Predictor

// SPAR is the Sparse Periodic Auto-Regression model of Equation 8.
type SPAR = predictor.SPAR

// NewSPAR returns an unfitted SPAR model with the given period (slots per
// day), number of previous periods n, and recent-offset count m. The
// paper's defaults for per-minute retail load are NewSPAR(1440, 7, 30).
func NewSPAR(period, nPeriods, mRecent int) *SPAR {
	return predictor.NewSPAR(period, nPeriods, mRecent)
}

// NewAR returns an auto-regressive baseline model of the given order.
func NewAR(order int) Predictor { return predictor.NewAR(order) }

// NewARMA returns an ARMA(p, q) baseline model.
func NewARMA(p, q int) Predictor { return predictor.NewARMA(p, q) }

// NewOracle returns a perfect predictor replaying a known trace — the
// "P-Store Oracle" upper bound of Figure 12.
func NewOracle(trace []float64) Predictor { return predictor.NewOracle(trace) }

// OnlinePredictor wraps a model with online observation and periodic
// refitting (the paper's active learning, Section 6).
type OnlinePredictor = predictor.Online

// NewOnlinePredictor wraps model; refitEvery new observations trigger a
// refit (0 disables), maxHistory bounds the buffer (0 keeps everything).
func NewOnlinePredictor(model Predictor, refitEvery, maxHistory int) *OnlinePredictor {
	return predictor.NewOnline(model, refitEvery, maxHistory)
}

// MRE returns the mean relative error between actual and predicted values.
func MRE(actual, predicted []float64) (float64, error) {
	return timeseries.MRE(actual, predicted)
}

// --- storage engine and live migration (paper Sections 2, 6) ---------------

// Engine is the partitioned main-memory OLTP engine.
type Engine = store.Engine

// EngineConfig sizes an Engine.
type EngineConfig = store.Config

// Tx is the execution context of a stored procedure.
type Tx = store.Tx

// TxnFunc is a stored procedure body.
type TxnFunc = store.TxnFunc

// TxnID is a resolved transaction handle: resolve a registered name once
// with Engine.Handle, then submit through Engine.ExecuteID so the hot path
// never touches the name map.
type TxnID = store.TxnID

// NoTxn is the invalid transaction handle.
const NoTxn = store.NoTxn

// EngineCounters are an engine's cumulative transaction counts (submitted,
// completed, errored, forwarded mid-migration).
type EngineCounters = store.Counters

// NewEngine constructs an engine; register transactions, then Start it.
func NewEngine(cfg EngineConfig) (*Engine, error) { return store.NewEngine(cfg) }

// DefaultEngineConfig returns a small-cluster configuration suitable for
// examples and tests.
func DefaultEngineConfig() EngineConfig { return store.DefaultConfig() }

// Squall executes live reconfigurations against an Engine.
type Squall = squall.Executor

// SquallConfig tunes migration chunking and throttling.
type SquallConfig = squall.Config

// NewSquall returns a live migration executor for the engine.
func NewSquall(eng *Engine, cfg SquallConfig) (*Squall, error) {
	return squall.NewExecutor(eng, cfg)
}

// DefaultSquallConfig returns a throttled migration configuration.
func DefaultSquallConfig() SquallConfig { return squall.DefaultConfig() }

// --- crash recovery (machine failures) --------------------------------------

// RecoveryManager gives every bucket a command log and checkpoint images,
// and rebuilds a crashed machine to its exact pre-crash state by installing
// the images and replaying the logged command tails (see internal/recovery).
// Attach it with NewRecoveryManager before Engine.Start; every Node has one.
type RecoveryManager = recovery.Manager

// RecoveryStats counts crashes, recoveries, checkpoints, replayed commands
// and cumulative downtime.
type RecoveryStats = recovery.Stats

// NewRecoveryManager attaches a recovery manager to an engine's command-log
// hook. Call before Engine.Start so every transaction is logged.
func NewRecoveryManager(eng *Engine) *RecoveryManager { return recovery.NewManager(eng) }

// FaultSchedule is a deterministic fault schedule for ClusterConfig.Faults:
// chunk faults on the migration path and machine crashes (pinned to a
// monitoring cycle, or a hashed per-cycle rate).
type FaultSchedule = faults.Schedule

// ParseFaults parses the pstore -faults spec format, e.g.
// "seed=42,chunk-drop=0.05,crash-rate=0.05,crash-downtime=4,crash=1@10+5".
func ParseFaults(spec string) (*FaultSchedule, error) { return faults.Parse(spec) }

// ErrPartitionDown is returned for transactions and migrations that touch a
// crashed machine; it heals when the machine recovers.
var ErrPartitionDown = store.ErrPartitionDown

// --- provisioning controllers (paper Sections 6, 8) ------------------------

// Controller decides once per monitoring interval whether to reconfigure.
type Controller = elastic.Controller

// Decision asks the executing world to start a move now.
type Decision = elastic.Decision

// PredictiveController is P-Store's predictor→planner→scheduler control
// loop with receding-horizon control and scale-in confirmation.
type PredictiveController = elastic.Predictive

// ReactiveController is the E-Store-like reactive baseline.
type ReactiveController = elastic.Reactive

// StaticController never reconfigures.
type StaticController = elastic.Static

// SimpleController is the time-of-day heuristic of Figure 13.
type SimpleController = elastic.Simple

// ManualController schedules operator-planned capacity changes for known
// one-off events — the third arm of the paper's composite strategy (§1). It
// can wrap another controller for the ordinary cycles.
type ManualController = elastic.Manual

// Spike policies for unpredicted load (Section 4.3.1).
const (
	// SpikeRegularRate keeps migrating at the non-disruptive rate R.
	SpikeRegularRate = elastic.SpikeRegularRate
	// SpikeFastRate migrates at rate R x 8 during emergencies.
	SpikeFastRate = elastic.SpikeFastRate
)

// --- workload and benchmark (paper Section 7) ------------------------------

// Series is a uniformly sampled load series.
type Series = timeseries.Series

// B2WConfig parameterizes the synthetic retail load of Figure 1.
type B2WConfig = workload.B2WConfig

// DefaultB2WConfig returns the standard synthetic retail configuration.
func DefaultB2WConfig(seed int64, days int) B2WConfig {
	return workload.DefaultB2WConfig(seed, days)
}

// SyntheticB2W generates a seeded retail load trace.
func SyntheticB2W(cfg B2WConfig) (Series, error) { return workload.SyntheticB2W(cfg) }

// SyntheticWikipediaEnglish generates the highly periodic hourly page-view
// trace modelled on the English Wikipedia (Figure 6).
func SyntheticWikipediaEnglish(seed int64, days int) (Series, error) {
	return workload.SyntheticWikipedia(workload.EnglishWikipediaConfig(seed, days))
}

// SyntheticWikipediaGerman generates the noisier, less predictable hourly
// trace modelled on the German Wikipedia (Figure 6).
func SyntheticWikipediaGerman(seed int64, days int) (Series, error) {
	return workload.SyntheticWikipedia(workload.GermanWikipediaConfig(seed, days))
}

// RegisterB2W installs the benchmark's nineteen stored procedures and the
// decoder of their arguments (Engine.SetArgsDecoder), which a Server and a
// durable store's replay both use.
func RegisterB2W(eng *Engine) error { return b2w.Register(eng) }

// B2WLoadSpec sizes the benchmark database.
type B2WLoadSpec = b2w.LoadSpec

// LoadB2W populates a started engine with carts, checkouts and stock.
func LoadB2W(eng *Engine, spec B2WLoadSpec) error { return b2w.Load(eng, spec) }

// B2WDriver replays a load trace against the engine as benchmark
// transactions.
type B2WDriver = b2w.Driver

// B2WExecutor is the driver's submission boundary: in-process engine calls
// or a remote server over the wire, behind one interface.
type B2WExecutor = b2w.Executor

// NewB2WRemoteExecutor points the driver at a network front end through a
// connected client, turning the same driver into a separate-process load
// generator.
func NewB2WRemoteExecutor(ctx context.Context, c *Client) (B2WExecutor, error) {
	return b2w.NewRemoteExecutor(ctx, c)
}

// --- network front end and client (wire protocol) ---------------------------

// Server serves an engine over HTTP/1.1: JSON single-transaction requests,
// length-prefixed binary batches with pipelined execution, per-request
// deadlines from wire headers, and the engine's overload plane surfaced as
// 429/504/503 with machine-readable retry hints.
type Server = server.Server

// ServerConfig assembles a Server.
type ServerConfig = server.Config

// ServerCounters are a server's cumulative wire-level counts.
type ServerCounters = server.Counters

// NewServer fronts a started engine; run it with Serve on a listener.
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// Client is the Go client library: pooled connections, an in-flight cap
// with client-side shedding, deadline propagation, and retry-hint honoring.
// Its errors map back onto the engine's typed errors, so errors.Is works
// identically in-process and over the wire.
type Client = client.Client

// ClientConfig assembles a Client.
type ClientConfig = client.Config

// ClientCounters are a client's cumulative counts, including transport
// errors and client-side sheds.
type ClientCounters = client.Counters

// NewClient connects to a server address ("host:port" or a base URL).
func NewClient(cfg ClientConfig) (*Client, error) { return client.New(cfg) }

// ErrClientSaturated is returned when the client's in-flight cap sheds a
// submission locally; it matches store.ErrOverload under errors.Is.
var ErrClientSaturated = client.ErrSaturated

// --- measurement ------------------------------------------------------------

// Recorder aggregates per-transaction latencies into windows and reports
// percentiles, SLA violations and machine-allocation timelines.
type Recorder = metrics.Recorder

// NewRecorder returns a recorder with the given aggregation window.
func NewRecorder(start time.Time, window time.Duration) (*Recorder, error) {
	return metrics.NewRecorder(start, window)
}

// --- simulation and experiments (paper Section 8) ---------------------------

// Simulator replays a provisioning controller against a long load trace
// using the analytic capacity model (the paper's Section 8.3 methodology).
type Simulator = sim.Sim

// SimResult summarizes a simulated run (cost, shortfall, timelines).
type SimResult = sim.Result

// ExperimentResult is the outcome of one paper table/figure reproduction.
type ExperimentResult = experiments.Result

// ExperimentOptions tunes an experiment run.
type ExperimentOptions = experiments.Options

// Experiments lists the identifiers of every reproducible table and figure.
func Experiments() []string { return experiments.IDs() }

// RunExperiment regenerates one paper table or figure.
func RunExperiment(id string, opts ExperimentOptions) (*ExperimentResult, error) {
	return experiments.Run(id, opts)
}
