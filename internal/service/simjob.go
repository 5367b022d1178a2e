package service

import (
	"fmt"
	"time"

	"ds2/internal/controlloop"
	"ds2/internal/engine"
)

// SimulatedJob runs the streaming-engine simulator as a remote job
// under a ds2d scaling service: it registers the job, then plays the
// engine side of Fig. 5 — run one policy interval, report the
// interval's instrumentation, poll for a scaling command, apply it
// via the engine's rescale API, and ack the redeployment.
//
// With Settle, a rescale's savepoint/restore pause is run out
// synchronously and the polluted partial metric window discarded
// before acking (the Flink-style integration, §4.1); this mode is the
// AttachedJob contract, so it is an AttachedJob over the settling
// controlloop.EngineRuntime. Without it the action stays unacked while
// the pause rides through subsequent reported intervals, which the
// service observes as Busy (Heron's slow redeployments, §5.2) — the ack
// then follows the restore, not Apply's return, so that loop stays its
// own. Both mirror the corresponding controlloop.EngineRuntime settle
// modes exactly, which is what the decision-parity tests pin.
type SimulatedJob struct {
	// PollWait bounds each action long-poll (default 10 s).
	PollWait time.Duration
	// ID is the assigned job id, set by Run after registration.
	ID string

	client *Client
	eng    *engine.Engine
	spec   JobSpec
	settle bool
}

// NewSimulatedJob wires an engine to a scaling service client.
func NewSimulatedJob(c *Client, e *engine.Engine, spec JobSpec, settle bool) *SimulatedJob {
	return &SimulatedJob{client: c, eng: e, spec: spec, settle: settle}
}

// Run registers the job and drives it until the service finishes the
// decision loop, returning the service-side trace. ID holds the
// assigned job id from the moment registration completes.
func (sj *SimulatedJob) Run() (controlloop.Trace, error) {
	id, err := sj.client.Register(sj.spec)
	if err != nil {
		return controlloop.Trace{}, err
	}
	sj.ID = id

	if sj.settle {
		aj := NewAttachedJob(sj.client, controlloop.NewEngineRuntime(sj.eng, true), sj.spec)
		aj.PollWait = sj.PollWait
		aj.ID = id // already registered above
		return aj.Run()
	}

	pollWait := pollWaitOr(sj.PollWait)

	var pendingSeq, lastSeq, reported int
	// The loop is bounded defensively: the service finishes after
	// MaxIntervals reports at the latest, busy ones included.
	for cycle := 0; cycle < sj.spec.MaxIntervals+16; cycle++ {
		st := sj.eng.RunInterval(sj.spec.IntervalSec)
		// A non-settling redeployment that completed during this
		// interval is acked before the interval's report goes out —
		// the moment a real engine would announce the restore done.
		// The service then observes the interval with the pause
		// already cleared, exactly as the in-process loop does.
		if pendingSeq != 0 && !sj.eng.Paused() {
			if err := sj.client.Ack(id, pendingSeq, sj.eng.Parallelism()); err != nil {
				return controlloop.Trace{}, err
			}
			pendingSeq = 0
		}
		state, err := sj.client.Report(id, st)
		if err != nil {
			return controlloop.Trace{}, err
		}
		if state != StateRunning {
			break
		}
		reported++

		dec, err := sj.client.PollAction(id, reported-1, pollWait)
		if err != nil {
			return controlloop.Trace{}, err
		}
		if act := dec.Action; act != nil && act.Seq != lastSeq {
			lastSeq = act.Seq
			if err := sj.eng.Rescale(act.New); err != nil {
				return controlloop.Trace{}, fmt.Errorf("service: applying action %d: %w", act.Seq, err)
			}
			pendingSeq = act.Seq
		}
		if dec.State != StateRunning {
			break
		}
	}
	return sj.client.Trace(id)
}
