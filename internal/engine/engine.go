// Package engine is a deterministic fluid discrete-time simulator of a
// distributed streaming dataflow runtime. It stands in for the paper's
// host systems (Apache Flink, Apache Heron, Timely Dataflow), which we
// do not have: DS2 only observes per-instance records-in/records-out
// and the useful/waiting time split, so a simulator that reproduces the
// runtime *mechanisms* those numbers depend on — bounded buffers and
// emergent backpressure, rate-limited operators, windowed operators
// that stash and fire, savepoint-style stop/redeploy rescaling, shared
// round-robin workers (Timely) — exercises exactly the same controller
// code paths as the real engines. See DESIGN.md for the substitution
// argument.
//
// The simulation advances in fixed ticks of virtual time. Queues carry
// FIFO "buckets" (count, emission timestamp, epoch), so per-record
// latency (Flink mode) and per-epoch completion latency (Timely mode)
// are exact under the fluid approximation.
package engine

import (
	"fmt"
	"math"

	"ds2/internal/dataflow"
	"ds2/internal/metrics"
)

// Mode selects the execution model being simulated.
type Mode int

const (
	// ModeFlink: each operator has its own instances; bounded input
	// buffers; a full downstream buffer blocks the producer
	// (backpressure); sources are throttled by downstream space.
	ModeFlink Mode = iota
	// ModeHeron behaves like ModeFlink but with much deeper queues
	// and an explicit backpressure *signal* that fires only once a
	// queue crosses a threshold — the slow-reacting signal Dhalion
	// depends on (§5.2).
	ModeHeron
	// ModeTimely: a global pool of workers runs every operator
	// round-robin; queues are unbounded; sources are never delayed;
	// there is no backpressure (§4.3, §5.5).
	ModeTimely
)

func (m Mode) String() string {
	switch m {
	case ModeFlink:
		return "flink"
	case ModeHeron:
		return "heron"
	case ModeTimely:
		return "timely"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// WindowSpec makes an operator windowed: input records are stashed at a
// small insert cost and the actual computation runs when the window
// fires, producing a burst of useful time and output (§4.2.1's
// "naively-implemented window operators").
type WindowSpec struct {
	// Slide is the firing period in seconds.
	Slide float64
	// InsertFrac is the fraction of CostPerRecord paid at insertion;
	// the remainder is paid per stashed record when the window fires.
	InsertFrac float64
}

// OperatorSpec is the performance model of one non-source operator.
type OperatorSpec struct {
	// CostPerRecord is the useful time (deserialize + process +
	// serialize) one record costs one instance, in seconds, at
	// parallelism 1.
	CostPerRecord float64
	// DeserFrac and SerFrac split the cost for reporting; the
	// remainder is processing. Both default to 0.
	DeserFrac, SerFrac float64
	// Selectivity is output records per input record.
	Selectivity float64
	// RateLimit caps each instance at this many records/s (0 = no
	// cap). Used by the Dhalion benchmark's rate-limited operators.
	RateLimit float64
	// Alpha is the coordination overhead: the effective per-record
	// cost at parallelism p is CostPerRecord·(1+Alpha·(p−1)). This is
	// the sub-linear scaling that makes DS2 take 2–3 steps (§3.4).
	Alpha float64
	// HiddenAlpha is coordination overhead that consumes capacity but
	// is *invisible to instrumentation* (channel selection, network
	// stack): throughput drops by 1+HiddenAlpha·(p−1) but useful time
	// does not grow, so measured true rates stay linear. This is the
	// "overheads not captured by instrumentation" that the manager's
	// target-rate-ratio correction compensates for (§4.2.1).
	HiddenAlpha float64
	// SkewHot routes this extra fraction of the operator's input to
	// instance 0 on top of the uniform share (§4.2.3). 0 = balanced.
	SkewHot float64
	// Window, when non-nil, makes the operator windowed.
	Window *WindowSpec
}

func (s OperatorSpec) validate(name string) error {
	if s.CostPerRecord <= 0 {
		return fmt.Errorf("engine: operator %q: cost per record %v <= 0", name, s.CostPerRecord)
	}
	if s.Selectivity < 0 {
		return fmt.Errorf("engine: operator %q: negative selectivity", name)
	}
	if s.DeserFrac < 0 || s.SerFrac < 0 || s.DeserFrac+s.SerFrac > 1 {
		return fmt.Errorf("engine: operator %q: bad deser/ser fractions", name)
	}
	if s.RateLimit < 0 || s.Alpha < 0 || s.HiddenAlpha < 0 {
		return fmt.Errorf("engine: operator %q: negative rate limit or alpha", name)
	}
	if s.SkewHot < 0 || s.SkewHot >= 1 {
		return fmt.Errorf("engine: operator %q: skew %v outside [0,1)", name, s.SkewHot)
	}
	if s.Window != nil {
		if s.Window.Slide <= 0 {
			return fmt.Errorf("engine: operator %q: window slide %v <= 0", name, s.Window.Slide)
		}
		if s.Window.InsertFrac < 0 || s.Window.InsertFrac > 1 {
			return fmt.Errorf("engine: operator %q: window insert fraction outside [0,1]", name)
		}
	}
	return nil
}

// RateFn gives a source's target output rate (records/s) at virtual
// time t. It must be non-negative.
type RateFn func(t float64) float64

// ConstantRate returns a RateFn with a fixed rate.
func ConstantRate(r float64) RateFn { return func(float64) float64 { return r } }

// StepRate returns a RateFn that is `before` until t0 and `after` from
// t0 on — the two-phase workload of Fig. 7.
func StepRate(t0, before, after float64) RateFn {
	return func(t float64) float64 {
		if t < t0 {
			return before
		}
		return after
	}
}

// SourceSpec is the performance model of one source operator.
type SourceSpec struct {
	// Rate is the externally defined target output rate.
	Rate RateFn
	// CostPerRecord is the emission cost per record per instance
	// (serialization); 0 means emission is free.
	CostPerRecord float64
	// CatchupFactor bounds how fast a source drains accumulated
	// backlog after backpressure clears, as a multiple of the target
	// rate. Defaults to 2.
	CatchupFactor float64
	// NoBacklog marks a generator-style source (like the Heron
	// benchmark's spout): records it cannot emit are never produced
	// rather than buffered upstream, so there is no catch-up phase
	// after backpressure clears. Kafka-style replayable sources leave
	// this false.
	NoBacklog bool
}

// Config tunes the simulated runtime.
type Config struct {
	Mode Mode
	// Tick is the simulation quantum in seconds (default 0.01).
	Tick float64
	// QueueCapacity is the per-instance input buffer size in records
	// (default 10_000 for Flink; Heron runs default 200_000,
	// standing in for its 100 MiB queues).
	QueueCapacity float64
	// BackpressureThreshold is the queue occupancy fraction at which
	// the backpressure *signal* fires (default 0.5). The signal is
	// what Dhalion-style controllers read; blocking itself always
	// happens at full occupancy.
	BackpressureThreshold float64
	// RedeployDelay is how long a rescale stops the job (savepoint +
	// restore), in seconds.
	RedeployDelay float64
	// Workers is the initial global worker count (ModeTimely only).
	Workers int
	// EpochSize is the epoch granularity for per-epoch latency
	// (ModeTimely; default 1 s).
	EpochSize float64
	// FlushBufferRecords models Flink's output-buffer flushing: a
	// record waits on average half a buffer's fill time in each
	// operator's output stage before shipping, so per-record latency
	// gains Σ_ops (FlushBufferRecords/2)·effCost(op) even on an idle
	// pipeline — and instrumentation overhead, which inflates
	// effCost, becomes visible as a proportional latency penalty
	// (Fig. 10). 0 disables the model (records ship immediately).
	FlushBufferRecords float64
	// Instrumented enables the DS2 instrumentation cost model:
	// every operator's per-record cost is inflated by InstrOverhead.
	Instrumented bool
	// InstrOverhead is the fractional per-record instrumentation
	// cost (default 0.08).
	InstrOverhead float64
}

func (c Config) withDefaults() Config {
	if c.Tick <= 0 {
		c.Tick = 0.01
	}
	if c.QueueCapacity <= 0 {
		if c.Mode == ModeHeron {
			c.QueueCapacity = 200_000
		} else {
			c.QueueCapacity = 10_000
		}
	}
	if c.BackpressureThreshold <= 0 {
		c.BackpressureThreshold = 0.5
	}
	if c.EpochSize <= 0 {
		c.EpochSize = 1
	}
	if c.InstrOverhead <= 0 {
		c.InstrOverhead = 0.08
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	return c
}

// instance is the runtime state of one parallel operator instance.
type instance struct {
	queue bucketQueue // input buffer (non-source)
	// window state (windowed operators only)
	stash bucketQueue // records assigned to the open window
	fire  bucketQueue // records of a fired window awaiting computation

	// counters since the last Collect
	processed float64
	pushed    float64
	useful    float64
	waitIn    float64
	waitOut   float64
	serExtra  float64 // sources: useful time that is pure serialization

	// per-tick scratch, reset at the end of each processOp
	tickUseful   float64
	tickPulled   float64
	tickOutBound bool
}

// opState is the runtime state of one logical operator.
type opState struct {
	name      string
	idx       int // topological index
	isSource  bool
	spec      OperatorSpec
	src       SourceSpec
	par       int
	instances []instance // value slice: one cache-friendly block per operator
	nextFire  float64    // windowed: next fire time

	// down caches the downstream opStates (adjacency resolved once at
	// construction) so the per-tick paths never re-index the graph.
	down   []*opState
	isSink bool
	// trackEpochs enables incremental min-epoch frontiers on the
	// instance queues (ModeTimely, the only consumer of the frontier).
	trackEpochs bool

	// weightsBuf caches weights(); rebuilt lazily after resize.
	weightsBuf []float64
	// costCache/ufCache memoize effCost/usefulFrac for the current
	// parallelism; 0 = dirty (recomputed lazily; both are always > 0).
	costCache float64
	ufCache   float64
	// desired is the per-instance pull scratch reused by
	// processOp/drainFire each tick; re-sized on rescale.
	desired []float64

	// Per-tick allowedInput memoization: valid while (tick, generation)
	// match the engine tick and this operator's queue state. queueGen
	// is bumped on every push into or pop from the input queues, so a
	// cached value is reused only when recomputing it would read the
	// exact same state.
	inAllowed     float64
	inAllowedTick uint64
	inAllowedGen  uint64
	queueGen      uint64

	// source-only counters
	backlog    float64 // records owed: cumulative target − emitted
	emitted    float64 // since last Collect
	cumEmitted float64

	// backpressure-signal time since the last Collect (blocking modes)
	bpTime float64
}

// LatencySample is a weighted per-record latency observation taken at
// a sink. The type lives in internal/metrics (the shared
// instrumentation vocabulary); this alias keeps the simulator's
// surface unchanged.
type LatencySample = metrics.LatencySample

// Engine simulates one job.
type Engine struct {
	graph *dataflow.Graph
	cfg   Config
	specs map[string]OperatorSpec
	srcs  map[string]SourceSpec

	ops []*opState
	now float64

	workers int // ModeTimely

	// pending rescale: applied when now reaches resumeAt
	paused   bool
	resumeAt float64
	pendingP dataflow.Parallelism
	pendingW int

	intervalStart float64
	latencies     []LatencySample
	scratchBuf    []bucket
	residence     float64 // cached flushResidence; -1 = dirty

	// tickID stamps per-tick memoized values (allowedInput); bumped at
	// the start of every step so stamps from prior ticks never match.
	tickID uint64
	// bpLevel is the precomputed backpressure-signal occupancy
	// (threshold · capacity), hoisted out of the per-op tick scan.
	bpLevel float64
	// srcPiece is the reusable single-piece buffer for source emission.
	srcPiece [1]bucket
	// demandBuf/budgetBuf/wfActive are stepTimely/waterfill scratch,
	// sized to len(ops) once and reused every tick.
	demandBuf []float64
	budgetBuf []float64
	wfActive  []int

	// epoch accounting (ModeTimely)
	epochDone map[int64]float64 // epoch -> completion time
	epochMax  int64             // highest epoch fully emitted
	epochLats []EpochLatency
}

// EpochLatency records when a 1-epoch batch of source data finished
// flowing through the dataflow (ModeTimely); like LatencySample it
// lives in internal/metrics.
type EpochLatency = metrics.EpochLatency

// New builds an engine for the graph. specs must cover every non-source
// operator and srcs every source. initial must validate against g; in
// ModeTimely the per-operator counts are ignored in favour of
// cfg.Workers.
func New(g *dataflow.Graph, specs map[string]OperatorSpec, srcs map[string]SourceSpec,
	initial dataflow.Parallelism, cfg Config) (*Engine, error) {
	if g == nil {
		return nil, fmt.Errorf("engine: nil graph")
	}
	cfg = cfg.withDefaults()
	if err := initial.Validate(g); err != nil {
		return nil, err
	}
	e := &Engine{
		graph:     g,
		cfg:       cfg,
		specs:     specs,
		srcs:      srcs,
		workers:   cfg.Workers,
		epochDone: make(map[int64]float64),
		residence: -1,
	}
	for i := 0; i < g.NumOperators(); i++ {
		op := g.Operator(i)
		st := &opState{name: op.Name, idx: i, isSource: op.Role == dataflow.RoleSource}
		if st.isSource {
			src, ok := srcs[op.Name]
			if !ok {
				return nil, fmt.Errorf("engine: missing source spec for %q", op.Name)
			}
			if src.Rate == nil {
				return nil, fmt.Errorf("engine: source %q has nil rate", op.Name)
			}
			if src.CatchupFactor <= 0 {
				src.CatchupFactor = 2
			}
			st.src = src
		} else {
			spec, ok := specs[op.Name]
			if !ok {
				return nil, fmt.Errorf("engine: missing operator spec for %q", op.Name)
			}
			if err := spec.validate(op.Name); err != nil {
				return nil, err
			}
			st.spec = spec
			if spec.Window != nil {
				st.nextFire = spec.Window.Slide
			}
		}
		st.trackEpochs = cfg.Mode == ModeTimely
		st.par = initial[op.Name]
		if cfg.Mode == ModeTimely && !st.isSource {
			// One logical instance per operator; capacity is the
			// shared worker pool. Reporting one instance makes
			// Eq. 7 return per-operator required worker counts
			// directly (§4.3).
			st.par = 1
		}
		st.resize(st.par)
		e.ops = append(e.ops, st)
	}
	// Resolve the downstream adjacency once: the tick paths iterate
	// s.down instead of re-indexing the graph per call.
	for _, st := range e.ops {
		for _, j := range g.Downstream(st.idx) {
			st.down = append(st.down, e.ops[j])
		}
		st.isSink = len(st.down) == 0
	}
	e.demandBuf = make([]float64, len(e.ops))
	e.budgetBuf = make([]float64, len(e.ops))
	e.wfActive = make([]int, 0, len(e.ops))
	e.bpLevel = cfg.BackpressureThreshold * cfg.QueueCapacity
	return e, nil
}

// resize recreates the instance slice with n entries, redistributing
// any queued work evenly (weight-aware redistribution happens in
// rescale; at construction queues are empty). Per-parallelism caches
// (weights, pull scratch) are invalidated here — the only place the
// instance count changes.
func (s *opState) resize(n int) {
	s.par = n
	s.instances = make([]instance, n)
	if s.trackEpochs {
		for i := range s.instances {
			s.instances[i].queue.enableFrontier()
			s.instances[i].stash.enableFrontier()
			s.instances[i].fire.enableFrontier()
		}
	}
	s.weightsBuf = nil
	s.costCache, s.ufCache = 0, 0
	s.desired = make([]float64, n)
	s.queueGen++
}

// weights returns the input partition weights across the operator's
// instances, honouring SkewHot. The result is cached until the next
// resize; callers must not mutate it.
func (s *opState) weights() []float64 {
	if s.weightsBuf == nil {
		w := make([]float64, s.par)
		base := (1 - s.spec.SkewHot) / float64(s.par)
		for i := range w {
			w[i] = base
		}
		w[0] += s.spec.SkewHot
		s.weightsBuf = w
	}
	return s.weightsBuf
}

// effCost returns the effective per-record *capacity* cost for the
// operator at its current parallelism, including visible and hidden
// coordination overhead and, when enabled, instrumentation overhead.
// The value only changes on rescale (resize clears the cache), so the
// per-tick paths hit the memo.
func (e *Engine) effCost(s *opState) float64 {
	if s.costCache > 0 {
		return s.costCache
	}
	c := s.spec.CostPerRecord *
		(1 + s.spec.Alpha*float64(s.par-1)) *
		(1 + s.spec.HiddenAlpha*float64(s.par-1))
	if e.cfg.Instrumented {
		c *= 1 + e.cfg.InstrOverhead
	}
	s.costCache = c
	return c
}

// usefulFrac is the fraction of an operator's capacity cost that shows
// up as useful time in the instrumentation; the hidden-overhead
// remainder is experienced as waiting. Cached like effCost.
func (s *opState) usefulFrac() float64 {
	if s.ufCache > 0 {
		return s.ufCache
	}
	s.ufCache = 1 / (1 + s.spec.HiddenAlpha*float64(s.par-1))
	return s.ufCache
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Workers returns the current global worker count (ModeTimely).
func (e *Engine) Workers() int { return e.workers }

// Parallelism returns the currently deployed per-operator instance
// counts.
func (e *Engine) Parallelism() dataflow.Parallelism {
	out := make(dataflow.Parallelism, len(e.ops))
	for _, s := range e.ops {
		out[s.name] = s.par
	}
	return out
}

// Graph returns the logical graph the engine executes.
func (e *Engine) Graph() *dataflow.Graph { return e.graph }

// TargetRates returns the current target rate of every source —
// the externally monitored λsrc the policy consumes.
func (e *Engine) TargetRates() map[string]float64 {
	out := make(map[string]float64)
	for _, s := range e.ops {
		if s.isSource {
			out[s.name] = s.src.Rate(e.now)
		}
	}
	return out
}

// Backlog returns the number of records a source owes (accumulated
// while backpressured or paused).
func (e *Engine) Backlog(source string) float64 {
	for _, s := range e.ops {
		if s.isSource && s.name == source {
			return s.backlog
		}
	}
	return math.NaN()
}
