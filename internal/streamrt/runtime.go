package streamrt

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync/atomic"

	"ds2/internal/controlloop"
	"ds2/internal/core"
	"ds2/internal/dataflow"
	"ds2/internal/obs"
	"ds2/internal/service"
)

// Engine is the part of the live-runtime surface the control adapters
// need: pace and cut observation windows, redeploy, report the deployed
// configuration. *Job implements it, whichever placement it runs on;
// the interface lets a test or a custom integration stand in.
type Engine interface {
	NextInterval(d float64) (Interval, error)
	Rescale(p dataflow.Parallelism) error
	Parallelism() dataflow.Parallelism
}

// Runtime adapts a live engine (a Job, single-process or distributed)
// to controlloop.Runtime, the one seam both control surfaces drive:
// the standard Controller in-process, or service.AttachedJob against a
// ds2d scaling service (report/poll/ack over HTTP, indistinguishable
// from any other remote job). Advance paces on the wall clock (the
// job's real time); Apply performs the savepoint-and-restore rescale
// synchronously, and the next window starts after it (settle
// semantics, like the Flink integration of §4.1).
type Runtime struct {
	eng Engine

	// Savepoint support (SavepointTo): the store service-requested
	// savepoints persist into, the name prefix, and a counter so each
	// request gets a distinct name.
	spStore  CheckpointStore
	spPrefix string
	spCount  atomic.Int64
}

// NewEngineRuntime wraps a live engine — a *Job on either placement —
// making it drivable by the Controller and attachable to ds2d.
func NewEngineRuntime(e Engine) *Runtime { return &Runtime{eng: e} }

// stopErr maps a stopped job onto controlloop.ErrStopped, which the
// Controller and the attached driver both treat as a clean end.
func stopErr(err error) error {
	if errors.Is(err, ErrStopped) {
		return controlloop.ErrStopped
	}
	return err
}

// Advance blocks until the job has run d more seconds of wall-clock
// time, then collects the interval's observation. Engines that trace
// rescales (a Job does) piggyback their retained timelines on it; the
// scaling service dedups by trace ID, so resending the full ring every
// interval is idempotent and delivers completions of timelines first
// shipped in flight.
func (r *Runtime) Advance(d float64) (controlloop.Observation, error) {
	iv, err := r.eng.NextInterval(d)
	if err != nil {
		return controlloop.Observation{}, stopErr(err)
	}
	o := iv.Observation()
	if tv, ok := r.eng.(interface{ RescaleTraces() []obs.TraceView }); ok {
		o.Rescales = tv.RescaleTraces()
	}
	return o, nil
}

// Apply deploys the action's configuration via the engine's Rescale.
func (r *Runtime) Apply(act *core.Action) error {
	return stopErr(r.eng.Rescale(act.New))
}

// Parallelism returns the deployed configuration.
func (r *Runtime) Parallelism() dataflow.Parallelism { return r.eng.Parallelism() }

// SavepointTo equips the runtime to execute service-requested
// savepoints: each request drains the engine, persists one savepoint
// named <prefix>-N into store, and restarts. Without it, savepoint
// requests from the service are answered with an error instead of a
// checkpoint. It returns the runtime for chaining.
func (r *Runtime) SavepointTo(store CheckpointStore, prefix string) *Runtime {
	if prefix == "" {
		prefix = "savepoint"
	}
	r.spStore = store
	r.spPrefix = prefix
	return r
}

// Savepoint implements service.SavepointEngine: cut one durable
// savepoint into the configured store and return where it landed (the
// file path for a DirStore, the store name otherwise). A stopped
// engine surfaces as controlloop.ErrStopped so the attached driver
// ends cleanly.
func (r *Runtime) Savepoint() (string, error) {
	if r.spStore == nil {
		return "", errors.New("streamrt: runtime has no checkpoint store (use SavepointTo)")
	}
	name := fmt.Sprintf("%s-%d", r.spPrefix, r.spCount.Add(1))
	sp, ok := r.eng.(interface {
		Savepoint(CheckpointStore, string) error
	})
	if !ok {
		return "", fmt.Errorf("streamrt: engine %T cannot cut savepoints", r.eng)
	}
	if err := sp.Savepoint(r.spStore, name); err != nil {
		return "", stopErr(err)
	}
	if ds, ok := r.spStore.(*DirStore); ok {
		return filepath.Join(ds.Dir(), name), nil
	}
	return name, nil
}

// AttachEngine registers a live engine with a ds2d scaling service and
// returns the engine-side driver: Run plays the report/poll/ack cycle
// until the service finishes the decision loop.
func AttachEngine(c *service.Client, eng Engine, spec service.JobSpec) *service.AttachedJob {
	return service.NewAttachedJob(c, NewEngineRuntime(eng), spec)
}

// Observation returns the interval as the record a controlloop.Runtime
// reports; the two types share one underlying struct.
func (iv Interval) Observation() controlloop.Observation {
	return controlloop.Observation(iv)
}
