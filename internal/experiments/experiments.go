// Package experiments reproduces every table and figure of the paper's
// evaluation (§5) on the simulator substrate. Each experiment has a
// Run function returning a structured result whose String method
// prints the same rows/series the paper reports; cmd/ds2-experiments
// exposes them by id and bench_test.go wraps them in testing.B
// benchmarks. EXPERIMENTS.md records measured-vs-paper outcomes.
//
// Every experiment drives its engine through the shared
// controlloop.Controller — the same loop the examples and cmd binaries
// use — so a run is fully described by (workload, engine config,
// autoscaler, loop config) and the resulting controlloop.Trace.
package experiments

import (
	"sort"

	"ds2/internal/controlloop"
	"ds2/internal/core"
	"ds2/internal/engine"
)

// runDS2 drives a Flink/Heron-mode engine under the DS2 scaling
// manager for maxIntervals policy intervals through the shared control
// loop. Redeployments settle synchronously: the savepoint/restore
// pause is run out and the polluted partial metric window discarded,
// exactly as the real integration resets its MetricsManager on restart
// (§4.1).
func runDS2(e *engine.Engine, mgr *core.Manager, interval float64, maxIntervals int) (controlloop.Trace, error) {
	loop, err := controlloop.New(
		controlloop.NewEngineRuntime(e, true),
		controlloop.DS2Autoscaler(mgr),
		controlloop.Config{Interval: interval, MaxIntervals: maxIntervals})
	if err != nil {
		return controlloop.Trace{}, err
	}
	return loop.Run()
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
