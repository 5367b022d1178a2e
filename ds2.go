package ds2

import (
	"net/http"
	"time"

	"ds2/internal/controlloop"
	"ds2/internal/core"
	"ds2/internal/dataflow"
	"ds2/internal/engine"
	"ds2/internal/metrics"
	"ds2/internal/nexmark"
	"ds2/internal/obs"
	"ds2/internal/service"
	"ds2/internal/streamrt"
	"ds2/internal/wordcount"
)

// --- Logical dataflow graphs (internal/dataflow) -----------------------

// Graph is a frozen logical dataflow DAG.
type Graph = dataflow.Graph

// GraphBuilder accumulates operators and edges before validation.
type GraphBuilder = dataflow.Builder

// Parallelism maps operator names to instance counts.
type Parallelism = dataflow.Parallelism

// OperatorRole classifies an operator as source, interior or sink.
type OperatorRole = dataflow.Role

// Operator roles.
const (
	RoleSource   = dataflow.RoleSource
	RoleOperator = dataflow.RoleOperator
	RoleSink     = dataflow.RoleSink
)

// NewGraphBuilder returns an empty graph builder.
func NewGraphBuilder() *GraphBuilder { return dataflow.NewBuilder() }

// LinearGraph builds a pipeline topology source → op1 → … → opN.
func LinearGraph(names ...string) (*Graph, error) { return dataflow.Linear(names...) }

// UniformParallelism assigns p instances to every non-source operator.
func UniformParallelism(g *Graph, p int) Parallelism {
	return dataflow.UniformParallelism(g, p)
}

// --- Instrumentation (internal/metrics) --------------------------------

// InstanceID identifies one parallel instance of an operator.
type InstanceID = metrics.InstanceID

// WindowMetrics holds one instance's counters over one window.
type WindowMetrics = metrics.WindowMetrics

// OperatorRates is the per-operator aggregate of Eq. 5–6.
type OperatorRates = metrics.OperatorRates

// Snapshot is the policy's input: per-operator rates plus source rates.
type Snapshot = metrics.Snapshot

// MetricsManager aggregates raw instrumentation events into windows.
type MetricsManager = metrics.Manager

// MetricsEvent is one raw instrumentation record.
type MetricsEvent = metrics.Event

// MetricsRepository stores snapshots for the scaling manager to poll.
type MetricsRepository = metrics.Repository

// Instrumentation event kinds.
const (
	EvRecordsProcessed = metrics.EvRecordsProcessed
	EvRecordsPushed    = metrics.EvRecordsPushed
	EvDeserialization  = metrics.EvDeserialization
	EvProcessing       = metrics.EvProcessing
	EvSerialization    = metrics.EvSerialization
	EvWaitingInput     = metrics.EvWaitingInput
	EvWaitingOutput    = metrics.EvWaitingOutput
)

// NewMetricsManager creates a manager cutting windows every interval
// seconds.
func NewMetricsManager(interval float64) (*MetricsManager, error) {
	return metrics.NewManager(interval)
}

// NewMetricsRepository creates a snapshot store retaining limit entries
// (0 = unbounded).
func NewMetricsRepository(limit int) *MetricsRepository {
	return metrics.NewRepository(limit)
}

// BuildSnapshot aggregates per-instance windows plus source target
// rates into the policy's input.
func BuildSnapshot(t float64, windows []WindowMetrics, sourceRates map[string]float64) (Snapshot, error) {
	return metrics.BuildSnapshot(t, windows, sourceRates)
}

// MergeByInstance folds multiple windows per instance into one each.
func MergeByInstance(windows []WindowMetrics) ([]WindowMetrics, error) {
	return metrics.MergeByInstance(windows)
}

// --- Observability (internal/obs) ----------------------------------------

// ObsRegistry is a dependency-free metric registry with a Prometheus
// text-format (0.0.4) exposition. ds2d serves one at GET /metrics;
// pass the same registry as LiveJobConfig.Metrics and
// ScalingServerConfig.Metrics to fold runtime and service telemetry
// into one page.
type ObsRegistry = obs.Registry

// NewObsRegistry creates an empty metric registry.
func NewObsRegistry() *ObsRegistry { return obs.NewRegistry() }

// --- The DS2 policy and scaling manager (internal/core) ----------------

// Policy is the DS2 decision function (Eq. 7–8).
type Policy = core.Policy

// PolicyConfig tunes the decision function.
type PolicyConfig = core.PolicyConfig

// Decision is one policy evaluation's output.
type Decision = core.Decision

// ScalingManager wraps a policy with the operational machinery of
// §4.2: policy intervals, warm-up, activation, target-rate correction,
// minor-change filtering, rollback and decision limits.
type ScalingManager = core.Manager

// ScalingManagerConfig carries the §4.2.1–4.2.2 knobs.
type ScalingManagerConfig = core.ManagerConfig

// ScalingAction is a rescale or rollback command.
type ScalingAction = core.Action

// Aggregation selects how activation-window decisions combine.
type Aggregation = core.Aggregation

// Activation-window aggregations.
const (
	AggLast   = core.AggLast
	AggMax    = core.AggMax
	AggMedian = core.AggMedian
)

// NewPolicy creates a DS2 policy for a frozen graph.
func NewPolicy(g *Graph, cfg PolicyConfig) (*Policy, error) {
	return core.NewPolicy(g, cfg)
}

// NewScalingManager wraps a policy with operational state, starting
// from the given deployed configuration.
func NewScalingManager(p *Policy, initial Parallelism, cfg ScalingManagerConfig) (*ScalingManager, error) {
	return core.NewManager(p, initial, cfg)
}

// TotalWorkers converts a per-operator decision into the global worker
// count of execution models like Timely's (§4.3).
func TotalWorkers(d Decision) int { return core.TotalWorkers(d) }

// --- The streaming-engine simulator (internal/engine) ------------------

// Simulator is the deterministic fluid streaming-runtime simulator
// standing in for Flink, Heron and Timely Dataflow (see DESIGN.md).
type Simulator = engine.Engine

// SimulatorConfig tunes the simulated runtime.
type SimulatorConfig = engine.Config

// ExecutionMode selects the simulated execution model.
type ExecutionMode = engine.Mode

// Execution modes.
const (
	ModeFlink  = engine.ModeFlink
	ModeHeron  = engine.ModeHeron
	ModeTimely = engine.ModeTimely
)

// OperatorSpec is the performance model of one non-source operator.
type OperatorSpec = engine.OperatorSpec

// SourceSpec is the performance model of one source.
type SourceSpec = engine.SourceSpec

// WindowSpec makes an operator windowed (stash then fire).
type WindowSpec = engine.WindowSpec

// RateFn gives a source's target rate at virtual time t.
type RateFn = engine.RateFn

// IntervalStats is everything observed in one simulated interval.
type IntervalStats = engine.IntervalStats

// LatencySample is a weighted per-record latency observation.
type LatencySample = engine.LatencySample

// EpochLatency is a completed-epoch latency (Timely mode).
type EpochLatency = metrics.EpochLatency

// NewSimulator builds a simulator for the graph.
func NewSimulator(g *Graph, specs map[string]OperatorSpec, srcs map[string]SourceSpec,
	initial Parallelism, cfg SimulatorConfig) (*Simulator, error) {
	return engine.New(g, specs, srcs, initial, cfg)
}

// ConstantRate returns a fixed-rate RateFn.
func ConstantRate(r float64) RateFn { return engine.ConstantRate(r) }

// StepRate returns a two-phase RateFn: `before` until t0, then `after`.
func StepRate(t0, before, after float64) RateFn { return engine.StepRate(t0, before, after) }

// SimulatorSnapshot aggregates interval stats into the policy's input.
func SimulatorSnapshot(st IntervalStats) (Snapshot, error) { return st.Snapshot() }

// --- The unified control loop (internal/controlloop) --------------------

// Controller is the single reusable control loop of §4.2: it drives
// any Autoscaler over any Runtime, one policy interval at a time, and
// records a structured Trace.
type Controller = controlloop.Controller

// ControllerConfig tunes one Controller run: interval pacing, horizon,
// stability/convergence stopping rules and a live per-interval hook.
type ControllerConfig = controlloop.Config

// Runtime is one executable streaming job under control — the
// simulator today, a real engine integration tomorrow.
type Runtime = controlloop.Runtime

// Autoscaler is one scaling policy plus its operational state (DS2's
// scaling manager, Dhalion, a queueing model, ...).
type Autoscaler = controlloop.Autoscaler

// Observation is everything a Runtime reports for one policy interval.
type Observation = controlloop.Observation

// Trace is the structured record of one Controller run — the same
// schema for every autoscaler and runtime.
type Trace = controlloop.Trace

// TraceInterval is one row of a Trace: deployment, rates, latency
// quantiles, and the action taken at interval end.
type TraceInterval = controlloop.Interval

// SimulatorRuntime adapts a Simulator to the Runtime interface.
type SimulatorRuntime = controlloop.EngineRuntime

// NewController builds a control loop from a runtime, an autoscaler
// and a loop configuration.
func NewController(rt Runtime, as Autoscaler, cfg ControllerConfig) (*Controller, error) {
	return controlloop.New(rt, as, cfg)
}

// NewSimulatorRuntime wraps a simulator for use with a Controller.
// settle selects whether a rescale's redeployment pause is absorbed
// synchronously (discarding the polluted metric window) or rides
// through the following intervals as Busy observations.
func NewSimulatorRuntime(sim *Simulator, settle bool) *SimulatorRuntime {
	return controlloop.NewEngineRuntime(sim, settle)
}

// DS2Autoscaler adapts a ScalingManager to the Autoscaler interface.
func DS2Autoscaler(m *ScalingManager) Autoscaler { return controlloop.DS2Autoscaler(m) }

// --- The scaling service (internal/service, cmd/ds2d) -------------------

// ScalingServer is the ds2d scaling service: a registry of remote
// jobs, a metrics ingestion API, and one decision loop per job —
// the paper's Fig. 5 deployment architecture as a long-running
// network daemon. It implements http.Handler.
type ScalingServer = service.Server

// ScalingServerConfig tunes the service (per-job snapshot history,
// ingestion buffer bound, long-poll cap).
type ScalingServerConfig = service.ServerConfig

// WorkerInfo is one streamrt worker process registered with the
// scaling service's worker rendezvous (POST/GET/DELETE /workers).
type WorkerInfo = service.WorkerInfo

// ScalingClient speaks the scaling service's HTTP API from the engine
// side: register, report metrics, poll for actions, ack redeployments.
type ScalingClient = service.Client

// JobSpec registers one streaming job with the service: logical
// graph, deployed parallelism, autoscaler choice (ds2, dhalion,
// queueing, hold) and the decision-loop schedule.
type JobSpec = service.JobSpec

// JobOperator declares one vertex of a registered job's graph.
type JobOperator = service.JobOperator

// JobManagerConfig is the wire form of the DS2 manager knobs inside a
// JobSpec; JobDhalionConfig and JobQueueingConfig tune the baselines.
type JobManagerConfig = service.ManagerConfig

// JobDhalionConfig tunes a registered job's Dhalion controller.
type JobDhalionConfig = service.DhalionConfig

// JobQueueingConfig tunes a registered job's queueing controller.
type JobQueueingConfig = service.QueueingConfig

// JobState is a job's lifecycle state (running, finished, stopped,
// failed).
type JobState = service.JobState

// Job lifecycle states.
const (
	JobRunning  = service.StateRunning
	JobFinished = service.StateFinished
	JobStopped  = service.StateStopped
	JobFailed   = service.StateFailed
)

// MetricsReport is one instrumentation delivery from a running job to
// the scaling service: per-instance windows plus the coarse external
// signals, covering a span of job time.
type MetricsReport = service.Report

// SimulatedJob runs the streaming-engine simulator as a remote job
// under a scaling service — the engine side of Fig. 5 over HTTP.
type SimulatedJob = service.SimulatedJob

// ErrReportBacklogged reports that a job's ingestion buffer is full;
// the reporter should back off and retry (HTTP 429 on the wire).
var ErrReportBacklogged = service.ErrBacklogged

// NewScalingServer creates the scaling service (serve it with
// net/http, or run cmd/ds2d).
func NewScalingServer(cfg ScalingServerConfig) *ScalingServer {
	return service.NewServer(cfg)
}

// NewScalingClient creates a client for a scaling service at baseURL.
// httpClient may be nil for a default.
func NewScalingClient(baseURL string, httpClient *http.Client) *ScalingClient {
	return service.NewClient(baseURL, httpClient)
}

// NewSimulatedJob wires a Simulator to a scaling service client.
// settle selects whether redeployments are settled synchronously
// before acking (Flink-style) or ride through reported intervals as
// busy (Heron-style).
func NewSimulatedJob(c *ScalingClient, sim *Simulator, spec JobSpec, settle bool) *SimulatedJob {
	return service.NewSimulatedJob(c, sim, spec, settle)
}

// EpochQuantile computes an epoch-latency quantile.
func EpochQuantile(eps []EpochLatency, q float64) float64 {
	return engine.EpochQuantile(eps, q)
}

// --- Wall-clock instrumentation helpers (internal/metrics) ---------------

// WallClockDurations is the wall-clock split of one instance's elapsed
// time over one observation window (§3).
type WallClockDurations = metrics.Durations

// WallClockWindow builds a WindowMetrics from real time.Now()
// measurements. Useful time exceeding the window (time booked late) is
// scaled to fit; clamped reports an excess beyond 25%, for the caller
// to count.
func WallClockWindow(id InstanceID, window time.Duration, d WallClockDurations,
	processed, pushed int64) (w WindowMetrics, clamped bool, err error) {
	return metrics.WindowFromDurations(id, window, d, processed, pushed)
}

// --- The live dataflow runtime (internal/streamrt) -----------------------

// LivePipeline is a frozen executable dataflow: the logical graph plus
// executable source/operator specs. Unlike the Simulator, a LiveJob
// deployed from it actually runs the operators — goroutine per
// instance, bounded channels as backpressured queues, hash-partitioned
// keyed exchange — instrumented with wall-clock measurements.
type LivePipeline = streamrt.Pipeline

// LiveJob is one deployed, running pipeline and the coordinator of its
// rescales and savepoints, whether its instances run in this process
// (NewLiveJob) or across worker processes (NewLiveCluster).
type LiveJob = streamrt.Job

// LiveJobConfig tunes a running LiveJob (queue bounds, batching,
// latency sampling).
type LiveJobConfig = streamrt.Config

// LiveRuntime adapts a LiveEngine to Runtime, the one seam both the
// in-process Controller and an AttachedJob (the scaling service's
// engine side) drive.
type LiveRuntime = streamrt.Runtime

// LiveInterval is one observation window of a live job.
type LiveInterval = streamrt.Interval

// NewLiveJob deploys a pipeline at the given parallelism and starts
// every instance.
func NewLiveJob(p *LivePipeline, initial Parallelism, cfg LiveJobConfig) (*LiveJob, error) {
	return streamrt.NewJob(p, initial, cfg)
}

// NewLiveRuntime wraps a running live job — single-process or
// distributed — for use with a Controller (or as the engine side of a
// scaling-service attachment).
func NewLiveRuntime(e LiveEngine) *LiveRuntime { return streamrt.NewEngineRuntime(e) }

// AttachLiveJob registers a live job with a ds2d scaling service and
// returns the engine-side driver (report/poll/ack until the service
// finishes the decision loop).
func AttachLiveJob(c *ScalingClient, e LiveEngine, spec JobSpec) *AttachedJob {
	return streamrt.AttachEngine(c, e, spec)
}

// --- Distributed live runtime (multi-process workers) --------------------

// LiveWorker is one worker process of a distributed live deployment:
// it serves named pipelines over the framed TCP transport and hosts
// whatever operator instances the cluster coordinator places on it.
type LiveWorker = streamrt.Worker

// LiveCluster is a LiveJob whose instances run on worker processes:
// the same type, named for what NewLiveCluster returns. Call Close
// after Stop to release its control connections.
type LiveCluster = LiveJob

// LiveEngine is the seam the control loop drives: pace and cut
// observation windows, redeploy, report the deployed configuration.
// *LiveJob implements it.
type LiveEngine = streamrt.Engine

// NewLiveWorker creates a worker process with the given cluster index
// serving the named pipelines. A non-nil registry exports the
// worker's runtime and per-link telemetry.
func NewLiveWorker(index int, pipes map[string]*LivePipeline, reg *ObsRegistry) *LiveWorker {
	return streamrt.NewWorker(index, pipes, reg)
}

// NewLiveCluster deploys a pipeline at the given parallelism across
// the worker processes at addrs and starts it.
func NewLiveCluster(p *LivePipeline, workload string, initial Parallelism, addrs []string, cfg LiveJobConfig) (*LiveCluster, error) {
	return streamrt.NewCluster(p, workload, initial, addrs, cfg)
}

// AttachedJob drives a locally running job against a scaling service:
// it reports what the Runtime's Advance returned, applies the polled
// action and acks the deployed parallelism.
type AttachedJob = service.AttachedJob

// NewAttachedJob wires any Runtime — a LiveRuntime, a simulator
// runtime, or a custom integration implementing the same three
// methods — to a scaling service client.
func NewAttachedJob(c *ScalingClient, rt Runtime, spec JobSpec) *AttachedJob {
	return service.NewAttachedJob(c, rt, spec)
}

// --- Durable checkpoints (internal/streamrt) ------------------------------

// LiveCheckpointStore persists encoded savepoints by name; Save must
// publish atomically with respect to Load.
type LiveCheckpointStore = streamrt.CheckpointStore

// LiveDirStore is a directory-backed checkpoint store using the
// write-fsync-rename atomic-publish idiom.
type LiveDirStore = streamrt.DirStore

// SavepointRecord is the scaling service's record of one completed
// savepoint request.
type SavepointRecord = service.SavepointRecord

// NewLiveDirStore creates dir if needed and returns a store over it.
func NewLiveDirStore(dir string) (*LiveDirStore, error) { return streamrt.NewDirStore(dir) }

// NewLiveJobFromSavepoint deploys a fresh single-process live job from
// a savepoint: keyed state repartitions under initial (which may
// differ from the savepoint's parallelism) and source counters resume
// the sequence space exactly where the cut left it.
func NewLiveJobFromSavepoint(p *LivePipeline, initial Parallelism, cfg LiveJobConfig, store LiveCheckpointStore, name string) (*LiveJob, error) {
	return streamrt.NewJobFromSavepoint(p, initial, cfg, store, name)
}

// NewLiveClusterFromSavepoint deploys a distributed live cluster from
// a savepoint; the worker count must match the savepoint's so source
// sequence striping lines up.
func NewLiveClusterFromSavepoint(p *LivePipeline, workload string, initial Parallelism, addrs []string, cfg LiveJobConfig, store LiveCheckpointStore, name string) (*LiveCluster, error) {
	return streamrt.NewClusterFromSavepoint(p, workload, initial, addrs, cfg, store, name)
}

// --- Live wordcount (internal/wordcount) ---------------------------------

// LiveWordCountConfig parameterizes the word-count pipeline on the
// live runtime: rates (with an optional step change), zipf key skew,
// per-record costs, and an optional record limit.
type LiveWordCountConfig = wordcount.LiveConfig

// Live wordcount operator names.
const (
	LiveWordCountSource = wordcount.LiveSource
	LiveWordCountSplit  = wordcount.LiveSplit
	LiveWordCountCount  = wordcount.LiveCount
)

// LiveWordCount builds the three-stage word-count pipeline (skewed
// zipf sentence source → splitter → keyed counter) on the live
// runtime.
func LiveWordCount(cfg LiveWordCountConfig) (*LivePipeline, error) {
	return wordcount.Live(cfg)
}

// LiveWordCountOptimal returns the analytically optimal configuration
// at a given source rate — what DS2 should converge to.
func LiveWordCountOptimal(cfg LiveWordCountConfig, rate float64) Parallelism {
	return wordcount.LiveOptimal(cfg, rate)
}

// --- Live Nexmark (internal/nexmark) -------------------------------------

// LiveNexmarkConfig parameterizes one live Nexmark query: rates (with
// an optional step), seed, source bound, per-stage pacing costs and
// window shape.
type LiveNexmarkConfig = nexmark.LiveQueryConfig

// LiveNexmarkWorkload bundles a live Nexmark query's executable
// pipeline with its control metadata (initial/optimal configurations,
// main operator).
type LiveNexmarkWorkload = nexmark.LiveWorkload

// LiveNexmarkQuery builds the named Nexmark query as a really-
// executing pipeline on the live runtime.
func LiveNexmarkQuery(name string, cfg LiveNexmarkConfig) (*LiveNexmarkWorkload, error) {
	return nexmark.LiveQuery(name, cfg)
}

// LiveNexmarkCalibratedCost derives a live pacing cost for a query's
// main stage from the measured reference-implementation calibration
// (see cmd/nexmark-calibrate), scaled by scale.
func LiveNexmarkCalibratedCost(query string, n int, scale float64) (time.Duration, error) {
	return nexmark.LiveCalibratedCost(query, n, scale)
}

// Live Nexmark sink aggregates — the per-key states a stopped live
// query's Stop() returns, and what the LiveNexmarkExpected* oracles
// produce.
type (
	// LiveNexmarkQ1Agg is Q1's per-auction converted-bid count and
	// euro checksum. The live Q1 sink keeps it by pointer (the hot
	// path mutates it in place), so Stop() returns *LiveNexmarkQ1Agg.
	LiveNexmarkQ1Agg = nexmark.Q1Agg
	// LiveNexmarkQ3Agg is Q3's per-seller join-match count and
	// auction-id checksum.
	LiveNexmarkQ3Agg = nexmark.Q3Agg
	// LiveNexmarkQ5Agg is Q5's per-auction fired-window count and
	// total reported bids.
	LiveNexmarkQ5Agg = nexmark.Q5Agg
	// LiveNexmarkQ8Pane is Q8's per-seller tumbling-window join pane.
	LiveNexmarkQ8Pane = nexmark.Q8Pane
)
