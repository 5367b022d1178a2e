package main

import (
	"fmt"
	"runtime"
	"slices"

	"ds2/internal/experiments"
)

// table4Reps is how many Table 4 regenerations a full-size run times.
const table4Reps = 28

// table4WL regenerates Table 4 (6 queries × 6 initial configurations on
// the simulator): engine ticks, the metrics manager and the policy do
// all the work and streamrt none.
type table4WL struct {
	ref *experiments.ConvergenceTable // the warm-up's table; the simulator is deterministic, so every rep must equal it
}

func (w *table4WL) teardown() {}

func (w *table4WL) setup(*run) error {
	t, err := experiments.RunConvergenceTable()
	w.ref = t
	return err
}

// reps times n regenerations, one checked operation per cell. spans
// selects whether each regeneration is also recorded as a span.
func (w *table4WL) reps(r *run, name string, n int, spans bool) ([]float64, *experiments.ConvergenceTable, error) {
	tr := r.tr
	if !spans {
		r.tr = nil
		defer func() { r.tr = tr }()
	}
	ph := r.phase(r.root, name)
	defer r.tr.end(ph)
	var secs []float64
	var last *experiments.ConvergenceTable
	for i := 0; i < n; i++ {
		var t *experiments.ConvergenceTable
		var err error
		runtime.GC() // as for every repetition in this benchmark: start from a collected heap
		d := r.call(ph, "RunConvergenceTable", func() { t, err = experiments.RunConvergenceTable() })
		if err != nil {
			return nil, nil, err
		}
		if len(t.Cells) != len(w.ref.Cells) {
			return nil, nil, fmt.Errorf("table 4 has %d cells, the reference %d", len(t.Cells), len(w.ref.Cells))
		}
		for c, cell := range t.Cells {
			ok := len(cell.Steps) <= 3 && cell.Final == w.ref.Cells[c].Final
			r.op(ok, "table 4 rep %d, %s from %d: %d steps to %d, reference %d",
				i, cell.Query, cell.Initial, len(cell.Steps), cell.Final, w.ref.Cells[c].Final)
		}
		secs = append(secs, d.Seconds())
		last = t
	}
	return secs, last, nil
}

func (w *table4WL) measure(r *run) error {
	secs, _, err := w.reps(r, "table4", int(r.scaled(table4Reps, 1)), false)
	if err != nil {
		return err
	}
	// The fastest regeneration: interference only ever adds time, and
	// on a shared host it adds tens of percent for minutes at a time.
	r.e2e("table4_s", slices.Min(secs), secs...)
	return nil
}

func (w *table4WL) tracedRun(r *run) error {
	n := int(r.scaled(table4Reps/7, 1))
	base, _, err := w.reps(r, "table4-untraced", n, false)
	if err != nil {
		return err
	}
	secs, t, err := w.reps(r, "table4", n, true)
	if err != nil {
		return err
	}
	r.layer("trace.overhead_frac", slices.Min(secs)/slices.Min(base)-1, secs...)
	decisions, oneStep := 0, 0
	for _, c := range t.Cells {
		decisions += len(c.Steps)
		if len(c.Steps) == 1 {
			oneStep++
		}
	}
	r.layer("core.table4_decisions", float64(decisions))
	r.layer("core.table4_max_steps", float64(t.MaxSteps))
	r.layer("core.one_step_cells", float64(oneStep))
	return engineLayer(r)
}
