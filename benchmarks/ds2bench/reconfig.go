package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"ds2/internal/dataflow"
	"ds2/internal/obs"
	"ds2/internal/streamrt"
)

// reconfig-200k at full size: a keyed count over 200 000 keys (a ≈2 MB
// savepoint) fed open loop at 200 000 rec/s.
const (
	reconfKeys = 200_000
	reconfRate = 200_000
	// reconfBound is the source's record limit; the final count must
	// equal it. A job is down for the whole of a Rescale or Savepoint
	// call, so before the last forced savepoint the source emits for at
	// most reconfFill + 2·reconfCycles·reconfGap = 5.1 s, 1 020 000
	// records: no cycle ever works on an exhausted job.
	reconfBound    = 1_200_000
	reconfFill     = 1.5 // seconds before the first forced rescale
	reconfCycles   = 12
	reconfGap      = 150 * time.Millisecond
	reconfRestores = 7
	reconfResume   = 3 // parallelism of the restored jobs
)

type reconfigWL struct {
	keys []string
	dir  string
}

func (w *reconfigWL) teardown() {
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}

func (w *reconfigWL) build(bound int64, probes *userProbes) (*streamrt.Pipeline, error) {
	keys := w.keys
	return streamrt.NewPipeline().
		AddSource("src", streamrt.SourceSpec{
			Rate:  func(float64) float64 { return reconfRate },
			Next:  probes.wrapNext(func(seq int64) (string, any) { return keys[seq%int64(len(keys))], nil }),
			Limit: bound,
		}).
		AddOperator("count", streamrt.OperatorSpec{
			Keyed: true,
			State: probes.wrapState(streamrt.IntStateCodec{}),
			Process: probes.wrapProcess(func(state any, _ string, _ any, _ streamrt.Emit) any {
				c, _ := state.(int)
				return c + 1
			}),
		}).
		AddEdge("src", "count").
		Build()
}

// setup draws the key permutation, opens the savepoint directory inside
// the results directory and runs one small rescale-savepoint-restore
// cycle untimed.
func (w *reconfigWL) setup(r *run) error {
	w.keys = keyPermutation(r.seed, int(r.scaled(reconfKeys, 2000)))
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(r.outDir, "savepoints-")
	if err != nil {
		return err
	}
	w.dir = dir
	_, err = w.cycle(r, "warm-up", r.scale/40, 1, 1, false)
	return err
}

// reconfResult is one full cycle of the workload.
type reconfResult struct {
	rescaleMs, savepointMs, restoreMs []float64
	store                             *timedStore
	probes                            *userProbes
	traces                            []obs.TraceView
	keys                              int
}

// cycle runs the workload once at the given scale: fill, cycles ×
// (forced rescale, savepoint), restores of the last savepoint, the last
// restore run to the source's bound, and the final-count check.
func (w *reconfigWL) cycle(r *run, name string, scale float64, cycles, restores int, traced bool) (reconfResult, error) {
	var res reconfResult
	scaled := func(n, floor float64) float64 { return max(n*scale, floor) }
	ph := r.phase(r.root, name)
	defer r.tr.end(ph)
	var cur atomic.Uint64
	cur.Store(uint64(ph))
	parent := func() spanID { return spanID(cur.Load()) }

	bound := int64(scaled(reconfBound, 1000))
	cfg := streamrt.Config{LatencySampleEvery: 1 << 30}
	if traced {
		res.probes = new(userProbes)
		cfg.Metrics = obs.NewRegistry()
	}
	pipe, err := w.build(bound, res.probes)
	if err != nil {
		return res, err
	}
	dir, err := streamrt.NewDirStore(filepath.Join(w.dir, name))
	if err != nil {
		return res, err
	}
	res.store = &timedStore{inner: dir, r: r, parent: parent}

	par := func(n int) dataflow.Parallelism { return dataflow.Parallelism{"src": 1, "count": n} }
	var job *streamrt.Job
	r.call(ph, "NewJob", func() { job, err = streamrt.NewJob(pipe, par(2), cfg) })
	if err != nil {
		return res, err
	}
	time.Sleep(time.Duration(scaled(reconfFill, 0.05) * float64(time.Second)))
	gap := time.Duration(scaled(reconfGap.Seconds(), 0.02) * float64(time.Second))
	last := ""
	for i := 0; i < cycles; i++ {
		rep := r.phase(ph, fmt.Sprintf("cycle%d", i))
		cur.Store(uint64(rep))
		runtime.GC() // each timed call starts from a collected heap
		d := r.call(rep, "Rescale", func() { err = job.Rescale(par(2 + 2*((i+1)%2))) })
		r.op(err == nil, "reconfig rescale %d: %v", i, err)
		res.rescaleMs = append(res.rescaleMs, ms(d))
		time.Sleep(gap)
		runtime.GC()
		sp := fmt.Sprintf("sp-%d", i)
		d = r.call(rep, "Savepoint", func() { err = job.Savepoint(res.store, sp) })
		r.op(err == nil, "reconfig savepoint %d: %v", i, err)
		if err == nil {
			last = sp
		}
		res.savepointMs = append(res.savepointMs, ms(d))
		time.Sleep(gap)
		r.tr.end(rep)
	}
	cur.Store(uint64(ph))
	res.traces = job.RescaleTraces()
	r.call(ph, "Stop", func() { job.Stop() })
	if last == "" {
		return res, fmt.Errorf("reconfig: no savepoint succeeded")
	}

	var final map[string]map[string]any
	for i := 0; i < restores; i++ {
		rep := r.phase(ph, fmt.Sprintf("restore%d", i))
		cur.Store(uint64(rep))
		var restored *streamrt.Job
		runtime.GC()
		d := r.call(rep, "NewJobFromSavepoint", func() {
			restored, err = streamrt.NewJobFromSavepoint(pipe, par(reconfResume), cfg, res.store, last)
		})
		r.op(err == nil, "reconfig restore %d: %v", i, err)
		if err == nil {
			if i == restores-1 {
				r.call(rep, "Wait", func() { restored.Wait() })
			}
			r.call(rep, "Stop", func() { final = restored.Stop() })
		}
		res.restoreMs = append(res.restoreMs, ms(d))
		r.tr.end(rep)
	}
	cur.Store(uint64(ph))
	res.keys = len(final["count"])
	n := sumCounts(final["count"])
	err = checkCounts(final["count"], w.keys, bound)
	r.op(err == nil && n == bound, "reconfig final count %d of %d over %d keys: %v", n, bound, res.keys, err)
	return res, nil
}

func (w *reconfigWL) measure(r *run) error {
	res, err := w.cycle(r, "reconfig", r.scale, reconfCycles, reconfRestores, false)
	if err != nil {
		return err
	}
	r.e2e("rescale_ms_min", alternatingMin(res.rescaleMs), res.rescaleMs...)
	r.e2e("savepoint_ms_min", alternatingMin(res.savepointMs), res.savepointMs...)
	r.e2e("restore_ms_min", slices.Min(res.restoreMs), res.restoreMs...)
	return nil
}

// tracedRun runs the workload at half length twice — untraced, then
// traced — inside one run's time budget.
func (w *reconfigWL) tracedRun(r *run) error {
	base, err := w.cycle(r, "reconfig-untraced", r.scale/2, reconfCycles/2, 2, false)
	if err != nil {
		return err
	}
	res, err := w.cycle(r, "reconfig", r.scale/2, reconfCycles/2, 2, true)
	if err != nil {
		return err
	}
	if b := alternatingMin(base.savepointMs); b > 0 {
		r.layer("trace.overhead_frac", alternatingMin(res.savepointMs)/b-1, res.savepointMs...)
	}
	st := res.store
	r.layer("checkpoint.save_ms_p50", median(st.saveMs), st.saveMs...)
	r.layer("checkpoint.load_ms_p50", median(st.loadMs), st.loadMs...)
	r.layer("checkpoint.bytes", float64(st.lastSaveBytes))
	r.layer("checkpoint.keys", float64(res.keys))
	nonPersist := make([]float64, 0, len(st.saveMs))
	for i := range st.saveMs {
		if i < len(res.savepointMs) {
			nonPersist = append(nonPersist, res.savepointMs[i]-st.saveMs[i])
		}
	}
	r.layer("checkpoint.nonpersist_ms_p50", median(nonPersist), nonPersist...)
	rescalePhases(r, res.traces)
	res.probes.print("reconfig-200k")
	return nil
}
