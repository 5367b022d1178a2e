package service

import (
	"errors"
	"fmt"
	"time"

	"ds2/internal/controlloop"
)

// SavepointEngine is the optional extension of an attached Runtime for
// engines that can cut durable checkpoints. Savepoint drains the job,
// persists its state and source positions, restarts it, and returns
// where the savepoint landed (a file path or store-specific name). The
// attached driver calls it when the service parks a savepoint request;
// engines without it settle such requests with an error instead of
// stalling them forever.
type SavepointEngine interface {
	Savepoint() (path string, err error)
}

// AttachedJob registers a locally running job with a ds2d scaling
// service and plays the engine side of Fig. 5 against it: report what
// Advance returned, poll for a scaling command, Apply it, ack the
// deployed Parallelism. The job is any controlloop.Runtime — the same
// three methods an in-process Controller drives — so the simulator
// (controlloop.EngineRuntime), the live runtime (internal/streamrt's
// Runtime) and a real Flink/Heron integration attach the same way, and
// to the server they are indistinguishable.
//
// The driver assumes settling redeployments: Apply returns once the
// restart is complete and the next Advance covers a clean post-restart
// window. An engine with slow, non-settling restarts reports Busy
// observations instead (SimulatedJob's Heron mode).
type AttachedJob struct {
	// PollWait bounds each action long-poll (default 10 s).
	PollWait time.Duration
	// ID is the assigned job id, set by Run immediately after
	// registration. Pre-setting it makes Run drive an
	// already-registered job instead of registering a new one.
	ID string

	client *Client
	rt     controlloop.Runtime
	spec   JobSpec
}

// NewAttachedJob wires a runtime to a scaling service client.
func NewAttachedJob(c *Client, rt controlloop.Runtime, spec JobSpec) *AttachedJob {
	return &AttachedJob{client: c, rt: rt, spec: spec}
}

// pollWaitOr returns d, or the drivers' default long-poll bound when d
// is unset.
func pollWaitOr(d time.Duration) time.Duration {
	if d <= 0 {
		return 10 * time.Second
	}
	return d
}

// Run registers the job and drives it until the service finishes the
// decision loop, returning the service-side trace.
func (a *AttachedJob) Run() (controlloop.Trace, error) {
	pollWait := pollWaitOr(a.PollWait)
	id := a.ID
	if id == "" {
		var err error
		if id, err = a.client.Register(a.spec); err != nil {
			return controlloop.Trace{}, err
		}
		a.ID = id
	}

	var lastSeq, lastSpSeq, reported int
	var refused error // the last report the service refused, if any
	for cycle := 0; ; cycle++ {
		// Bounded defensively: the service finishes after MaxIntervals
		// accepted reports; a run cut short must not pass for a whole one.
		if cycle == a.spec.MaxIntervals+16 {
			return controlloop.Trace{}, errors.Join(fmt.Errorf("service: job %s still running after %d intervals", id, cycle), refused)
		}
		rep, err := a.rt.Advance(a.spec.IntervalSec)
		if err != nil {
			if errors.Is(err, controlloop.ErrStopped) {
				// The engine side went away cleanly (e.g. the live job
				// was stopped); the service-side trace is still the
				// run's record.
				break
			}
			return controlloop.Trace{}, err
		}
		state, err := a.client.Report(id, rep)
		if errors.Is(err, ErrBacklogged) {
			// A request to back off, not to stop: drop the report, go on.
			refused = err
			continue
		}
		if err != nil {
			return controlloop.Trace{}, err
		}
		if state != StateRunning {
			break
		}
		reported++

		dec, err := a.client.PollAction(id, reported-1, pollWait)
		if err != nil {
			return controlloop.Trace{}, err
		}
		if act := dec.Action; act != nil && act.Seq != lastSeq {
			lastSeq = act.Seq
			if err := a.rt.Apply(act.action()); err != nil {
				if errors.Is(err, controlloop.ErrStopped) {
					break // same clean end as on the report path
				}
				return controlloop.Trace{}, fmt.Errorf("service: applying action %d: %w", act.Seq, err)
			}
			if err := a.client.Ack(id, act.Seq, a.rt.Parallelism()); err != nil {
				return controlloop.Trace{}, err
			}
		}
		if seq := dec.SavepointSeq; seq != 0 && seq != lastSpSeq {
			lastSpSeq = seq
			var path string
			spErr := errors.New("service: engine does not support savepoints")
			if se, ok := a.rt.(SavepointEngine); ok {
				path, spErr = se.Savepoint()
				if spErr != nil && errors.Is(spErr, controlloop.ErrStopped) {
					break // clean end, like the report and rescale paths
				}
			}
			if err := a.client.SavepointDone(id, seq, path, spErr); err != nil {
				return controlloop.Trace{}, err
			}
		}
		if dec.State != StateRunning {
			break
		}
	}
	return a.client.Trace(id)
}
