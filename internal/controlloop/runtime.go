package controlloop

import (
	"ds2/internal/core"
	"ds2/internal/dataflow"
	"ds2/internal/engine"
)

// EngineRuntime adapts the streaming-engine simulator to the Runtime
// interface. It is the reference implementation a real-engine backend
// would mirror: Advance maps to "wait one policy interval and collect
// the metric window", Apply to "trigger a savepoint-and-restore
// rescale".
type EngineRuntime struct {
	eng *engine.Engine
	// settle controls how Apply interacts with the metric stream. When
	// true, Apply runs the savepoint/restore pause out synchronously
	// and discards the partial metric window, exactly as the paper's
	// Flink integration resets its MetricsManager on restart (§4.1) —
	// the next interval starts clean. When false the pause rides
	// through subsequent Advance calls, which report Busy observations
	// until the job resumes (Heron's slow redeployments in §5.2 span
	// several metric intervals).
	settle bool
}

// NewEngineRuntime wraps a simulator. settle selects whether Apply
// absorbs the redeployment pause synchronously (see EngineRuntime).
func NewEngineRuntime(e *engine.Engine, settle bool) *EngineRuntime {
	return &EngineRuntime{eng: e, settle: settle}
}

// Engine exposes the wrapped simulator.
func (r *EngineRuntime) Engine() *engine.Engine { return r.eng }

// Advance runs the simulator for d virtual seconds and returns what
// it collected; a paused job's interval comes back Busy.
func (r *EngineRuntime) Advance(d float64) (Observation, error) {
	return r.eng.RunInterval(d), nil
}

// Apply schedules the action's configuration on the simulator and,
// when settling, runs the redeployment pause out and discards the
// polluted partial metric window.
func (r *EngineRuntime) Apply(act *core.Action) error {
	if err := r.eng.Rescale(act.New); err != nil {
		return err
	}
	if r.settle {
		for r.eng.Paused() {
			r.eng.Run(1)
		}
		r.eng.Collect()
	}
	return nil
}

// Parallelism returns the simulator's deployed configuration.
func (r *EngineRuntime) Parallelism() dataflow.Parallelism {
	return r.eng.Parallelism()
}
