package experiments

import (
	"fmt"
	"strings"

	"ds2/internal/controlloop"
	"ds2/internal/core"
	"ds2/internal/dataflow"
	"ds2/internal/engine"
	"ds2/internal/nexmark"
)

// TimelyRow is one worker-count configuration of one query in Fig. 9.
type TimelyRow struct {
	Query     string
	Workers   int
	Indicated bool
	// EpochsCompleted out of EpochsTotal 1 s epochs.
	EpochsCompleted int
	EpochsTotal     int
	// OnTimeFraction is the fraction of epochs processed within the
	// 1 s target.
	OnTimeFraction float64
	Latency        controlloop.Quantiles
}

// TimelyResult is the Fig. 9 sweep.
type TimelyResult struct{ Rows []TimelyRow }

func (r TimelyResult) String() string {
	var sb strings.Builder
	sb.WriteString("== Fig. 9: per-epoch latency vs worker count (Timely) ==\n")
	sb.WriteString("query\tworkers\tepochs done\ton-time\tp50(s)\tp99(s)\tindicated\n")
	for _, row := range r.Rows {
		mark := ""
		if row.Indicated {
			mark = "*"
		}
		fmt.Fprintf(&sb, "%s\t%d\t%d/%d\t%.0f%%\t%.3f\t%.3f\t%s\n",
			row.Query, row.Workers, row.EpochsCompleted, row.EpochsTotal,
			row.OnTimeFraction*100, row.Latency.P50, row.Latency.P99, mark)
	}
	sb.WriteString("(*) = DS2-indicated worker count (sum of per-operator optima, §4.3)\n")
	return sb.String()
}

// timelyEngine builds a Timely-mode engine for the workload.
func timelyEngine(w *nexmark.Workload, workers int) (*engine.Engine, error) {
	return engine.New(w.Graph, w.Specs, w.Sources, dataflow.UniformParallelism(w.Graph, 1),
		engine.Config{
			Mode:      engine.ModeTimely,
			Tick:      0.05,
			Workers:   workers,
			EpochSize: 1,
		})
}

// DecideTimelyWorkers measures the workload on a generously sized
// worker pool and returns the DS2 worker-count decision: the sum of
// the per-operator optimal parallelism over non-source operators
// (§4.3).
func DecideTimelyWorkers(w *nexmark.Workload, probeWorkers int) (int, error) {
	e, err := timelyEngine(w, probeWorkers)
	if err != nil {
		return 0, err
	}
	e.RunInterval(10)
	st := e.RunInterval(30)
	snap, err := engine.Snapshot(st)
	if err != nil {
		return 0, err
	}
	pol, err := core.NewPolicy(w.Graph, core.PolicyConfig{})
	if err != nil {
		return 0, err
	}
	cur := make(dataflow.Parallelism)
	for i, name := range w.Graph.Names() {
		if i < w.Graph.NumSources() {
			cur[name] = 1
		} else {
			cur[name] = probeWorkers
		}
	}
	dec, err := pol.Decide(snap, cur, 1)
	if err != nil {
		return 0, err
	}
	total := 0
	for i, name := range w.Graph.Names() {
		if i >= w.Graph.NumSources() {
			total += dec.Parallelism[name]
		}
	}
	return total, nil
}

// RunTimelyLatency reproduces Fig. 9: the listed queries run in Timely
// mode at worker counts around the DS2-indicated total; each run lasts
// `horizon` seconds of 1 s epochs. Two parallel stages: the per-query
// indicated-worker probe, then every (query, workers) run; rows are
// assembled in (query, workers) order.
func RunTimelyLatency(queries []string, horizon float64) (*TimelyResult, error) {
	if len(queries) == 0 {
		queries = []string{"q3", "q5", "q11"} // the queries Fig. 9 shows
	}
	if horizon <= 0 {
		horizon = 120
	}
	// Stage 1: workload + DS2-indicated worker count per query.
	type probed struct {
		w         *nexmark.Workload
		indicated int
	}
	probes := make([]probed, len(queries))
	err := forEach(len(queries), func(i int) error {
		w, err := nexmark.Query(queries[i], nexmark.SystemTimely)
		if err != nil {
			return err
		}
		indicated, err := DecideTimelyWorkers(w, w.Indicated+4)
		if err != nil {
			return fmt.Errorf("%s: %w", queries[i], err)
		}
		probes[i] = probed{w: w, indicated: indicated}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Stage 2: the (query, workers) grid.
	type runJob struct {
		p       *probed
		workers int
	}
	var jobs []runJob
	for i := range probes {
		ind := probes[i].indicated
		for _, workers := range []int{ind - 1, ind, ind + 2, ind + 4} {
			if workers < 1 {
				continue
			}
			jobs = append(jobs, runJob{p: &probes[i], workers: workers})
		}
	}
	res := &TimelyResult{Rows: make([]TimelyRow, len(jobs))}
	err = forEach(len(jobs), func(i int) error {
		p, workers := jobs[i].p, jobs[i].workers
		e, err := timelyEngine(p.w, workers)
		if err != nil {
			return err
		}
		st := e.RunInterval(horizon)
		total := int(horizon) - 1
		onTime := 0
		for _, ep := range st.EpochLatencies {
			if ep.Latency <= 1.0 {
				onTime++
			}
		}
		row := TimelyRow{
			Query:           p.w.Query,
			Workers:         workers,
			Indicated:       workers == p.indicated,
			EpochsCompleted: len(st.EpochLatencies),
			EpochsTotal:     total,
			Latency:         controlloop.EpochQuantiles(st.EpochLatencies),
		}
		if len(st.EpochLatencies) > 0 {
			// Epochs that never completed count as missed.
			row.OnTimeFraction = float64(onTime) / float64(total)
		}
		res.Rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
