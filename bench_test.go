// Benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (§5), regenerating the corresponding rows and
// reporting the headline quantities as custom metrics, plus
// micro-benchmarks of the policy's decision path (the paper's claim
// that a decision costs "a few seconds" is dominated by metric
// collection — the computation itself is microseconds).
//
// Run with: go test -bench=. -benchmem
package ds2_test

import (
	"errors"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"ds2"
	"ds2/internal/experiments"
)

// BenchmarkFig1Fig6DS2vsDhalion regenerates Figures 1 and 6: both
// controllers drive the under-provisioned wordcount on the Heron-mode
// engine. Reported metrics: decisions and convergence time of each.
func BenchmarkFig1Fig6DS2vsDhalion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunWordcountComparison()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.DS2.Decisions), "ds2-decisions")
		b.ReportMetric(r.DS2.ConvergedAt, "ds2-converge-s")
		b.ReportMetric(float64(r.Dhalion.Decisions), "dhalion-decisions")
		b.ReportMetric(r.Dhalion.ConvergedAt, "dhalion-converge-s")
	}
}

// BenchmarkFig7DynamicScaling regenerates Figure 7: the two-phase
// wordcount under DS2 on the Flink-mode engine.
func BenchmarkFig7DynamicScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunDynamicScaling()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Timeline.Decisions), "decisions")
		b.ReportMetric(float64(r.Phase1Final["flatmap"]), "phase1-flatmap")
		b.ReportMetric(float64(r.Phase2Final["flatmap"]), "phase2-flatmap")
	}
}

// BenchmarkTable4Convergence regenerates Table 4: all six Nexmark
// queries from six initial configurations each. Reported metric: the
// maximum number of steps DS2 needed (paper: 3).
func BenchmarkTable4Convergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunConvergenceTable()
		if err != nil {
			b.Fatal(err)
		}
		oneStep := 0
		for _, c := range r.Cells {
			if len(c.Steps) == 1 {
				oneStep++
			}
		}
		b.ReportMetric(float64(r.MaxSteps), "max-steps")
		b.ReportMetric(float64(oneStep), "one-step-cells")
	}
}

// BenchmarkFig8Accuracy regenerates Figure 8: the parallelism sweep of
// every query on the Flink-mode engine.
func BenchmarkFig8Accuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunAccuracy(nil)
		if err != nil {
			b.Fatal(err)
		}
		// Fraction of indicated configurations sustaining the target.
		sustained, total := 0, 0
		for _, row := range r.Rows {
			if row.Indicated {
				total++
				if row.Achieved >= row.Target*0.98 {
					sustained++
				}
			}
		}
		b.ReportMetric(float64(sustained)/float64(total), "indicated-sustain-frac")
	}
}

// BenchmarkFig9TimelyLatency regenerates Figure 9: per-epoch latency
// CDF inputs for Q3, Q5, Q11 in Timely mode.
func BenchmarkFig9TimelyLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunTimelyLatency(nil, 60)
		if err != nil {
			b.Fatal(err)
		}
		worst := 0.0
		for _, row := range r.Rows {
			if row.Indicated && row.Latency.P99 > worst {
				worst = row.Latency.P99
			}
		}
		b.ReportMetric(worst, "worst-indicated-p99-s")
	}
}

// BenchmarkFig10Overhead regenerates Figure 10: instrumentation on/off
// latency for every query on both systems.
func BenchmarkFig10Overhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunOverhead(60)
		if err != nil {
			b.Fatal(err)
		}
		maxFlink, maxTimely := 0.0, 0.0
		for _, row := range r.Rows {
			if row.System == "flink" && row.OverheadPct > maxFlink {
				maxFlink = row.OverheadPct
			}
			if row.System == "timely" && row.OverheadPct > maxTimely {
				maxTimely = row.OverheadPct
			}
		}
		b.ReportMetric(maxFlink, "max-flink-overhead-pct")
		b.ReportMetric(maxTimely, "max-timely-overhead-pct")
	}
}

// BenchmarkSkew regenerates the §4.2.3 skew experiment.
func BenchmarkSkew(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunSkew()
		if err != nil {
			b.Fatal(err)
		}
		maxDecisions := 0
		for _, res := range r.Results {
			if res.Decisions > maxDecisions {
				maxDecisions = res.Decisions
			}
		}
		b.ReportMetric(float64(maxDecisions), "max-decisions")
	}
}

// BenchmarkAblationBaselines compares DS2 vs Dhalion vs the
// queueing-theory controller end to end.
func BenchmarkAblationBaselines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunBaselines()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			b.ReportMetric(float64(row.Decisions), row.Controller+"-decisions")
		}
	}
}

// BenchmarkAblationBoost measures the target-rate-ratio correction.
func BenchmarkAblationBoost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunBoostAblation()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			name := "boost-off-achieved-frac"
			if row.BoostEnabled {
				name = "boost-on-achieved-frac"
			}
			b.ReportMetric(row.Achieved/row.Target, name)
		}
	}
}

// BenchmarkAblationActivation measures activation-window stability on
// the bursty Q5 window.
func BenchmarkAblationActivation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunActivationAblation()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Rows[0].Decisions), "every-interval-decisions")
		b.ReportMetric(float64(r.Rows[1].Decisions), "windowed-decisions")
	}
}

// --- micro-benchmarks ----------------------------------------------------

// benchPipeline builds a deep pipeline with synthetic rates for policy
// micro-benchmarks.
func benchPipeline(depth int) (*ds2.Graph, ds2.Parallelism, ds2.Snapshot) {
	names := make([]string, depth)
	names[0] = "src"
	for i := 1; i < depth; i++ {
		names[i] = string(rune('a'+(i-1)%26)) + string(rune('0'+(i-1)/26))
	}
	g, err := ds2.LinearGraph(names...)
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(1))
	cur := ds2.Parallelism{"src": 1}
	snap := ds2.Snapshot{
		Operators:   map[string]ds2.OperatorRates{},
		SourceRates: map[string]float64{"src": 1_000_000},
	}
	for _, n := range names[1:] {
		p := 1 + rng.Intn(30)
		cur[n] = p
		rate := float64(p) * (1000 + rng.Float64()*100_000)
		snap.Operators[n] = ds2.OperatorRates{
			Operator: n, Instances: p,
			TrueProcessing: rate, TrueOutput: rate * (0.2 + rng.Float64()),
		}
	}
	return g, cur, snap
}

// BenchmarkPolicyDecide measures one full Eq. 7–8 evaluation — the
// cost of a DS2 scaling decision once metrics are in hand.
func BenchmarkPolicyDecide(b *testing.B) {
	for _, depth := range []int{4, 16, 64} {
		b.Run(map[int]string{4: "depth4", 16: "depth16", 64: "depth64"}[depth], func(b *testing.B) {
			g, cur, snap := benchPipeline(depth)
			pol, err := ds2.NewPolicy(g, ds2.PolicyConfig{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pol.Decide(snap, cur, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkManagerInterval measures one scaling-manager step including
// the policy evaluation.
func BenchmarkManagerInterval(b *testing.B) {
	g, cur, snap := benchPipeline(16)
	pol, err := ds2.NewPolicy(g, ds2.PolicyConfig{})
	if err != nil {
		b.Fatal(err)
	}
	mgr, err := ds2.NewScalingManager(pol, cur, ds2.ScalingManagerConfig{ActivationIntervals: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mgr.OnInterval(snap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkControllerInterval measures one full controller cycle on
// the simulator-backed loop — advance an interval, build the snapshot,
// evaluate the scaling manager, apply any action — the per-interval
// cost of the controlloop path that every experiment and example now
// takes.
func BenchmarkControllerInterval(b *testing.B) {
	g, err := ds2.LinearGraph("src", "map", "sink")
	if err != nil {
		b.Fatal(err)
	}
	initial := ds2.Parallelism{"src": 1, "map": 8, "sink": 2}
	sim, err := ds2.NewSimulator(g,
		map[string]ds2.OperatorSpec{
			"map":  {CostPerRecord: 0.00005, Selectivity: 1},
			"sink": {CostPerRecord: 0.00001},
		},
		map[string]ds2.SourceSpec{"src": {Rate: ds2.ConstantRate(100_000)}},
		initial,
		ds2.SimulatorConfig{Mode: ds2.ModeFlink, Tick: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	pol, err := ds2.NewPolicy(g, ds2.PolicyConfig{})
	if err != nil {
		b.Fatal(err)
	}
	rt := ds2.NewSimulatorRuntime(sim, true)
	cfg := ds2.ControllerConfig{Interval: 1, MaxIntervals: 1 << 30}
	var loop *ds2.Controller
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Rebuild the manager and controller periodically so both the
		// accumulated trace and the manager's never-firing activation
		// window stay bounded, and the measurement reflects
		// per-interval work rather than slice growth. The simulator
		// (the actual job state) lives in the runtime and persists
		// across rebuilds.
		if i%1024 == 0 {
			// A huge activation window keeps the manager evaluating
			// without ever rescaling, so every iteration measures the
			// same work.
			mgr, err := ds2.NewScalingManager(pol, initial, ds2.ScalingManagerConfig{ActivationIntervals: 1 << 30})
			if err != nil {
				b.Fatal(err)
			}
			loop, err = ds2.NewController(rt, ds2.DS2Autoscaler(mgr), cfg)
			if err != nil {
				b.Fatal(err)
			}
		}
		if _, err := loop.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorSecond measures simulating one virtual second of a
// three-stage pipeline at 100K records/s.
func BenchmarkSimulatorSecond(b *testing.B) {
	g, err := ds2.LinearGraph("src", "map", "sink")
	if err != nil {
		b.Fatal(err)
	}
	sim, err := ds2.NewSimulator(g,
		map[string]ds2.OperatorSpec{
			"map":  {CostPerRecord: 0.00005, Selectivity: 1},
			"sink": {CostPerRecord: 0.00001},
		},
		map[string]ds2.SourceSpec{"src": {Rate: ds2.ConstantRate(100_000)}},
		ds2.Parallelism{"src": 1, "map": 8, "sink": 2},
		ds2.SimulatorConfig{Mode: ds2.ModeFlink})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(1)
		if (i+1)%100 == 0 {
			// Drain accumulated latency samples outside the timer so
			// the measurement is the steady-state tick kernel, not the
			// growth of an unboundedly accumulating sample buffer (no
			// real caller runs 1000s of virtual seconds between
			// Collects).
			b.StopTimer()
			sim.Collect()
			b.StartTimer()
		}
	}
	b.StopTimer()
	sim.Collect()
}

// BenchmarkMetricsManagerRecord measures the per-event cost of the
// instrumentation aggregation path.
func BenchmarkMetricsManagerRecord(b *testing.B) {
	mgr, err := ds2.NewMetricsManager(10)
	if err != nil {
		b.Fatal(err)
	}
	id := ds2.InstanceID{Operator: "map", Index: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mgr.Record(ds2.MetricsEvent{Time: float64(i) * 1e-6, ID: id, Kind: ds2.EvRecordsProcessed, Value: 1})
	}
}

// BenchmarkMetricsManagerRecordAll measures the batched ingestion
// path: one lock round-trip per 64-event flush instead of one per
// event.
func BenchmarkMetricsManagerRecordAll(b *testing.B) {
	mgr, err := ds2.NewMetricsManager(10)
	if err != nil {
		b.Fatal(err)
	}
	id := ds2.InstanceID{Operator: "map", Index: 3}
	const batch = 64
	events := make([]ds2.MetricsEvent, batch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range events {
			events[j] = ds2.MetricsEvent{
				Time: float64(i*batch+j) * 1e-6, ID: id,
				Kind: ds2.EvRecordsProcessed, Value: 1,
			}
		}
		mgr.RecordAll(events)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkServiceIngest measures the scaling service's metrics
// ingestion path end to end over HTTP loopback: one report of 33
// per-instance windows per policy interval, consumed by a per-job
// decision loop (hold autoscaler, so the measurement is ingestion +
// interval aggregation, not policy work). Reported metric: windows
// ingested per second.
func BenchmarkServiceIngest(b *testing.B) {
	srv := ds2.NewScalingServer(ds2.ScalingServerConfig{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ds2.NewScalingClient(ts.URL, ts.Client())

	const instances = 32
	id, err := client.Register(ds2.JobSpec{
		Name:        "ingest-bench",
		Operators:   []ds2.JobOperator{{Name: "src"}, {Name: "op"}},
		Edges:       [][2]string{{"src", "op"}},
		Initial:     ds2.Parallelism{"src": 1, "op": instances},
		Autoscaler:  "hold",
		IntervalSec: 1, MaxIntervals: 1 << 30,
	})
	if err != nil {
		b.Fatal(err)
	}

	report := func(t float64) ds2.MetricsReport {
		rep := ds2.MetricsReport{
			Start:          t,
			End:            t + 1,
			TargetRates:    map[string]float64{"src": 100_000},
			SourceObserved: map[string]float64{"src": 100_000},
			Parallelism:    ds2.Parallelism{"src": 1, "op": instances},
		}
		rep.Windows = append(rep.Windows, ds2.WindowMetrics{
			ID: ds2.InstanceID{Operator: "src"}, Window: 1,
			Serialization: 0.1, Pushed: 100_000,
		})
		for i := 0; i < instances; i++ {
			rep.Windows = append(rep.Windows, ds2.WindowMetrics{
				ID: ds2.InstanceID{Operator: "op", Index: i}, Window: 1,
				Processing: 0.5, Processed: 100_000.0 / instances,
			})
		}
		return rep
	}

	b.ResetTimer()
	windows := 0
	for i := 0; i < b.N; i++ {
		rep := report(float64(i))
		for {
			state, err := client.Report(id, rep)
			if err == nil {
				if state != ds2.JobRunning {
					b.Fatalf("job state %s", state)
				}
				break
			}
			if !errors.Is(err, ds2.ErrReportBacklogged) {
				b.Fatal(err)
			}
			// The bounded ingestion buffer pushed back (HTTP 429):
			// give the decision loop a beat and retry, as a real
			// reporter would.
			time.Sleep(time.Millisecond)
		}
		windows += len(rep.Windows)
	}
	b.StopTimer()
	b.ReportMetric(float64(windows)/b.Elapsed().Seconds(), "windows/s")
}

// BenchmarkWallClockWindow measures building one validated
// WindowMetrics from wall-clock durations — the per-instance
// per-interval cost of the live collection path.
func BenchmarkWallClockWindow(b *testing.B) {
	id := ds2.InstanceID{Operator: "op", Index: 3}
	d := ds2.WallClockDurations{
		Deserialization: 10 * time.Millisecond,
		Processing:      120 * time.Millisecond,
		Serialization:   15 * time.Millisecond,
		WaitingInput:    50 * time.Millisecond,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ds2.WallClockWindow(id, 200*time.Millisecond, d, 1000, 1000); err != nil {
			b.Fatal(err)
		}
	}
}
