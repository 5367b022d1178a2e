// Package controlloop implements the paper's scaling-manager control
// loop (§4.2) exactly once: collect one interval of metrics, let a
// policy look at them, apply whatever rescale it proposes, and ride out
// the redeployment — for any controller over any runtime.
//
// The loop is deliberately split along the two seams the paper itself
// draws in Fig. 5:
//
//   - Runtime is the system under control. It advances (virtual or
//     real) time one policy interval and reports an Observation — the
//     instrumentation windows DS2 consumes plus the coarse external
//     signals (backpressure) rule-based controllers like Dhalion
//     consume. The simulator implements it via
//     EngineRuntime; a real-engine backend would implement the same
//     three methods against savepoints and a metrics repository.
//
//   - Autoscaler is the decision maker. It observes one interval and
//     either holds or returns a core.Action. DS2Autoscaler adapts the
//     scaling manager (core.Manager); internal/dhalion and
//     internal/queueing ship adapters for their controllers, so every
//     baseline runs through the identical loop and emits the identical
//     Trace schema.
//
// The Controller in between owns what used to be copy-pasted into
// every experiment, example and cmd binary: interval pacing, skipping
// decisions while the job is mid-redeployment, discarding metric
// windows polluted by a restart (via the runtime's Apply), stability
// and convergence stopping rules, target-vs-achieved bookkeeping, and
// the structured per-interval Trace.
package controlloop

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"ds2/internal/core"
	"ds2/internal/dataflow"
	"ds2/internal/metrics"
)

// Observation is everything a Runtime reports for one policy interval:
// the per-instance instrumentation windows (the DS2 policy's input,
// via Snapshot) and the externally visible signals rule-based policies
// read. It is the one record a job sends its controller, declared in
// internal/metrics.
type Observation = metrics.Observation

// ErrStopped is returned by a Runtime's Advance when the job under
// control was shut down (deregistered, connection closed) rather than
// failed. Run treats it as a clean stop: the accumulated trace is
// returned and the error surfaces unwrapped so long-running hosts (the
// ds2d scaling service) can distinguish "job went away" from a real
// policy or runtime failure.
var ErrStopped = errors.New("controlloop: runtime stopped")

// Runtime is one executable streaming job under control: the simulator
// (EngineRuntime), the live in-process dataflow runtime with wall-clock
// instrumentation (internal/streamrt's Runtime), or a job across the
// network boundary via internal/service's RemoteRuntime.
//
// The Runtime owns the loop's pacing. A simulator-backed Runtime
// advances virtual time and returns immediately; a service-backed
// Runtime blocks in Advance until the remote job has reported d
// seconds' worth of wall-clock instrumentation — the Controller itself
// never sleeps, so the same loop drives both virtual-time experiments
// and real-time daemons.
type Runtime interface {
	// Advance runs the job for d seconds of (virtual or real) time and
	// reports the interval's observation. It returns ErrStopped when
	// the job was shut down cleanly.
	Advance(d float64) (Observation, error)
	// Apply deploys a scaling action. Implementations decide how the
	// redeployment interacts with the metric stream: they may settle
	// the restart synchronously and discard the polluted partial
	// window, or let the pause ride through subsequent intervals and
	// report Busy observations meanwhile.
	Apply(*core.Action) error
	// Parallelism returns the currently deployed configuration.
	Parallelism() dataflow.Parallelism
}

// Autoscaler is one scaling policy plus its operational state. Observe
// consumes one interval and returns nil to hold the deployment or an
// action to apply before the next interval.
type Autoscaler interface {
	Observe(Observation) (*core.Action, error)
}

// Config tunes one Controller run.
type Config struct {
	// Interval is the policy interval in seconds (required > 0).
	Interval float64
	// MaxIntervals bounds the run (required > 0).
	MaxIntervals int
	// StableIntervals, when > 0, stops the run once this many
	// consecutive non-busy intervals pass without an action — the
	// §5.4 stability criterion.
	StableIntervals int
	// TraceLimit, when > 0, bounds the retained trace to the most
	// recent intervals. Long-running hosts (the ds2d scaling service)
	// set it so a job with an effectively unbounded horizon does not
	// accrete memory; the Decisions/ConvergedAt bookkeeping and the
	// MaxIntervals stopping rule count all intervals regardless.
	TraceLimit int
	// Done, when non-nil, is consulted after every interval; returning
	// true stops the run (e.g. a Dhalion convergence check).
	Done func() bool
	// OnInterval, when non-nil, observes every recorded interval as it
	// happens — for live CLI/exporter output.
	OnInterval func(Interval)
	// OnDecision, when non-nil, observes every successfully applied
	// action as a structured audit record: the deciding interval's
	// input rates, the computed optimum, and the deployment it
	// replaced. Hosts append it to an AuditRing and/or export decision
	// counters; the service additionally resolves the ack outcome.
	OnDecision func(Decision)
}

// Quantiles carries the latency quantiles of one interval.
type Quantiles struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

// Interval is one row of a Trace: the deployment an interval ran
// under, the rates it delivered, its latency quantiles, and the action
// (if any) taken at its end.
type Interval struct {
	// Time is the interval's end in seconds.
	Time float64 `json:"time"`
	// Target and Achieved are the summed source rates.
	Target   float64 `json:"target"`
	Achieved float64 `json:"achieved"`
	// Parallelism and Workers are the deployment during the interval.
	Parallelism dataflow.Parallelism `json:"parallelism"`
	Workers     int                  `json:"workers,omitempty"`
	// Busy marks an interval spent (at least partly) redeploying; no
	// decision was taken.
	Busy bool `json:"busy,omitempty"`
	// Action is the kind of action taken at interval end ("rescale",
	// "rollback", or "" when the deployment held), Reason the
	// autoscaler's explanation, and Applied the configuration deployed
	// (nil when no action fired).
	Action  string               `json:"action,omitempty"`
	Reason  string               `json:"reason,omitempty"`
	Applied dataflow.Parallelism `json:"applied,omitempty"`
	// Latency holds per-record latency quantiles over the interval;
	// EpochLatency per-epoch completion quantiles (Timely mode).
	Latency      Quantiles `json:"latency"`
	EpochLatency Quantiles `json:"epoch_latency"`
}

// Trace is the structured record of one Controller run — the same
// schema for every autoscaler and runtime (and, JSON-encoded, on the
// scaling service's trace endpoint).
type Trace struct {
	Intervals []Interval `json:"intervals"`
	// Decisions counts the actions applied.
	Decisions int `json:"decisions"`
	// ConvergedAt is the virtual time of the last action (0 if none).
	ConvergedAt float64 `json:"converged_at"`
	// Final is the configuration deployed when the run stopped.
	Final dataflow.Parallelism `json:"final"`
}

// Last returns the final recorded interval (zero value when empty).
func (t Trace) Last() Interval {
	if len(t.Intervals) == 0 {
		return Interval{}
	}
	return t.Intervals[len(t.Intervals)-1]
}

func (t Trace) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "time(s)\ttarget(rec/s)\tachieved(rec/s)\tp99(s)\tconfig\taction\n")
	for _, iv := range t.Intervals {
		action := iv.Action
		if iv.Reason != "" {
			action = fmt.Sprintf("%s: %s", iv.Action, iv.Reason)
		}
		fmt.Fprintf(&sb, "%.0f\t%.0f\t%.0f\t%.3f\t%s\t%s\n",
			iv.Time, iv.Target, iv.Achieved, iv.Latency.P99, iv.Parallelism, action)
	}
	fmt.Fprintf(&sb, "decisions=%d converged_at=%.0fs final=%s\n",
		t.Decisions, t.ConvergedAt, t.Final)
	return sb.String()
}

// Controller drives one Autoscaler over one Runtime: the single
// reusable control loop of §4.2.
type Controller struct {
	rt  Runtime
	as  Autoscaler
	cfg Config

	trace  Trace
	steps  int // intervals run, independent of trace trimming
	stable int
}

// New builds a Controller.
func New(rt Runtime, as Autoscaler, cfg Config) (*Controller, error) {
	if rt == nil {
		return nil, errors.New("controlloop: nil runtime")
	}
	if as == nil {
		return nil, errors.New("controlloop: nil autoscaler")
	}
	if cfg.Interval <= 0 {
		return nil, fmt.Errorf("controlloop: interval %v <= 0", cfg.Interval)
	}
	if cfg.MaxIntervals <= 0 {
		return nil, fmt.Errorf("controlloop: max intervals %d <= 0", cfg.MaxIntervals)
	}
	if cfg.StableIntervals < 0 {
		return nil, fmt.Errorf("controlloop: negative stable intervals")
	}
	if cfg.TraceLimit < 0 {
		return nil, fmt.Errorf("controlloop: negative trace limit")
	}
	return &Controller{rt: rt, as: as, cfg: cfg}, nil
}

// Step runs one policy interval: advance the runtime, consult the
// autoscaler (unless the runtime is mid-redeployment), apply any
// resulting action, and record the interval.
func (c *Controller) Step() (Interval, error) {
	obs, err := c.rt.Advance(c.cfg.Interval)
	if err != nil {
		return Interval{}, err
	}
	iv := Interval{
		Time:         obs.End,
		Target:       obs.TargetRate(),
		Achieved:     obs.AchievedRate(),
		Parallelism:  obs.Parallelism,
		Workers:      obs.Workers,
		Busy:         obs.Busy,
		Latency:      LatencyQuantiles(obs.Latencies),
		EpochLatency: EpochQuantiles(obs.EpochLatencies),
	}
	if !obs.Busy {
		act, err := c.as.Observe(obs)
		if err != nil {
			// Record the interval whose metrics triggered the failure:
			// it is the most relevant row of a post-mortem trace.
			c.record(iv)
			return iv, err
		}
		if act != nil {
			if err := c.rt.Apply(act); err != nil {
				c.record(iv)
				return iv, err
			}
			iv.Action = act.Kind.String()
			iv.Reason = act.Reason
			iv.Applied = act.New.Clone()
			c.trace.Decisions++
			c.trace.ConvergedAt = obs.End
			c.stable = 0
			if c.cfg.OnDecision != nil {
				c.cfg.OnDecision(Decision{
					Seq:            c.trace.Decisions,
					Time:           obs.End,
					Kind:           act.Kind.String(),
					Reason:         act.Reason,
					Target:         obs.TargetRate(),
					Achieved:       obs.AchievedRate(),
					TargetRates:    obs.TargetRates,
					SourceObserved: obs.SourceObserved,
					Old:            obs.Parallelism.Clone(),
					New:            act.New.Clone(),
					Outcome:        OutcomeApplied,
				})
			}
		} else {
			c.stable++
		}
	}
	c.record(iv)
	return iv, nil
}

// record appends the interval to the trace (trimming to TraceLimit)
// and forwards it to the live OnInterval hook, so printed timelines
// and the stored trace never diverge — including on error paths.
func (c *Controller) record(iv Interval) {
	c.steps++
	c.trace.Intervals = append(c.trace.Intervals, iv)
	if c.cfg.TraceLimit > 0 && len(c.trace.Intervals) > c.cfg.TraceLimit {
		c.trace.Intervals = c.trace.Intervals[len(c.trace.Intervals)-c.cfg.TraceLimit:]
	}
	if c.cfg.OnInterval != nil {
		c.cfg.OnInterval(iv)
	}
}

// Run drives the loop until MaxIntervals elapse, the Done predicate
// fires, or StableIntervals consecutive quiet intervals pass. It
// returns the accumulated trace (also on error, for post-mortems).
func (c *Controller) Run() (Trace, error) {
	for c.steps < c.cfg.MaxIntervals {
		if _, err := c.Step(); err != nil {
			return c.Trace(), err
		}
		if c.cfg.Done != nil && c.cfg.Done() {
			break
		}
		if c.cfg.StableIntervals > 0 && c.stable >= c.cfg.StableIntervals {
			break
		}
	}
	return c.Trace(), nil
}

// Trace returns the intervals recorded so far with Final filled from
// the runtime's current deployment.
func (c *Controller) Trace() Trace {
	tr := c.trace
	tr.Final = c.rt.Parallelism()
	return tr
}

// LatencyQuantiles summarizes weighted per-record latency samples with
// a single copy-and-sort (engine.LatencyQuantile would re-sort per
// quantile — too costly on the controller's every-interval path).
func LatencyQuantiles(samples []metrics.LatencySample) Quantiles {
	if len(samples) == 0 {
		return Quantiles{}
	}
	s := append([]metrics.LatencySample(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i].Latency < s[j].Latency })
	total := 0.0
	for _, x := range s {
		total += x.Weight
	}
	if total <= 0 {
		return Quantiles{}
	}
	var out Quantiles
	dst := []*float64{&out.P50, &out.P95, &out.P99}
	cum := 0.0
	i := 0
	for _, q := range []float64{0.50, 0.95, 0.99} {
		target := q * total
		for cum < target && i < len(s) {
			cum += s[i].Weight
			i++
		}
		idx := i - 1
		if idx < 0 {
			idx = 0
		}
		*dst[0] = s[idx].Latency
		dst = dst[1:]
	}
	return out
}

// EpochQuantiles summarizes completed-epoch latencies (Timely mode)
// with a single copy-and-sort.
func EpochQuantiles(eps []metrics.EpochLatency) Quantiles {
	if len(eps) == 0 {
		return Quantiles{}
	}
	ls := make([]float64, len(eps))
	for i, e := range eps {
		ls[i] = e.Latency
	}
	sort.Float64s(ls)
	at := func(q float64) float64 { return ls[int(q*float64(len(ls)-1))] }
	return Quantiles{P50: at(0.50), P95: at(0.95), P99: at(0.99)}
}
