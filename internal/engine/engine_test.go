package engine

import (
	"math"
	"testing"

	"ds2/internal/core"
	"ds2/internal/dataflow"
	"ds2/internal/metrics"
)

func mustGraph(t *testing.T, names ...string) *dataflow.Graph {
	t.Helper()
	g, err := dataflow.Linear(names...)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func findWindow(t *testing.T, ws []metrics.WindowMetrics, op string, idx int) metrics.WindowMetrics {
	t.Helper()
	for _, w := range ws {
		if w.ID.Operator == op && w.ID.Index == idx {
			return w
		}
	}
	t.Fatalf("window %s[%d] not found", op, idx)
	return metrics.WindowMetrics{}
}

func opRates(t *testing.T, st IntervalStats, op string) metrics.OperatorRates {
	t.Helper()
	snap, err := Snapshot(st)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	r, ok := snap.Operators[op]
	if !ok {
		t.Fatalf("operator %s missing from snapshot", op)
	}
	return r
}

// --- steady state -------------------------------------------------------

func TestSteadyStatePipeline(t *testing.T) {
	g := mustGraph(t, "src", "map", "sink")
	e, err := New(g,
		map[string]OperatorSpec{
			"map":  {CostPerRecord: 0.001, Selectivity: 1},
			"sink": {CostPerRecord: 0.0001, Selectivity: 0},
		},
		map[string]SourceSpec{"src": {Rate: ConstantRate(100)}},
		dataflow.Parallelism{"src": 1, "map": 1, "sink": 1},
		Config{Mode: ModeFlink})
	if err != nil {
		t.Fatal(err)
	}
	st := e.RunInterval(10)

	if got := st.SourceObserved["src"]; math.Abs(got-100) > 1 {
		t.Errorf("observed source rate = %v, want ~100", got)
	}
	r := opRates(t, st, "map")
	// True rate is 1/cost regardless of load.
	if math.Abs(r.TrueProcessing-1000) > 1 {
		t.Errorf("map true processing = %v, want ~1000", r.TrueProcessing)
	}
	if math.Abs(r.ObservedProcessing-100) > 2 {
		t.Errorf("map observed processing = %v, want ~100", r.ObservedProcessing)
	}
	// The map waits on input most of the time.
	w := findWindow(t, st.Windows, "map", 0)
	if w.WaitingInput < 8 {
		t.Errorf("map waiting input = %v, want most of the 10s", w.WaitingInput)
	}
	if len(st.Backpressured) != 0 {
		t.Errorf("unexpected backpressure: %v", st.Backpressured)
	}
	// End-to-end latency is sub-tick in steady state.
	if p99 := LatencyQuantile(st.Latencies, 0.99); p99 > 0.05 {
		t.Errorf("steady-state p99 latency = %v", p99)
	}
}

func TestSelectivityConservation(t *testing.T) {
	g := mustGraph(t, "src", "flatmap", "count")
	e, err := New(g,
		map[string]OperatorSpec{
			"flatmap": {CostPerRecord: 0.0001, Selectivity: 20},
			"count":   {CostPerRecord: 0.00001, Selectivity: 0},
		},
		map[string]SourceSpec{"src": {Rate: ConstantRate(50)}},
		dataflow.Parallelism{"src": 1, "flatmap": 1, "count": 1},
		Config{Mode: ModeFlink})
	if err != nil {
		t.Fatal(err)
	}
	st := e.RunInterval(10)
	fm := findWindow(t, st.Windows, "flatmap", 0)
	if math.Abs(fm.Pushed-fm.Processed*20) > 1e-6 {
		t.Errorf("pushed %v != 20×processed %v", fm.Pushed, fm.Processed)
	}
	cnt := findWindow(t, st.Windows, "count", 0)
	// All flatmap output reaches count (steady state, small queues).
	if math.Abs(cnt.Processed-fm.Pushed) > 20 {
		t.Errorf("count processed %v vs flatmap pushed %v", cnt.Processed, fm.Pushed)
	}
}

// --- backpressure -------------------------------------------------------

func TestBackpressureSuppressesObservedNotTrueRates(t *testing.T) {
	g := mustGraph(t, "src", "map", "sink")
	e, err := New(g,
		map[string]OperatorSpec{
			"map":  {CostPerRecord: 0.002, Selectivity: 1}, // capacity 500/s < 1000/s offered
			"sink": {CostPerRecord: 0.0001},
		},
		map[string]SourceSpec{"src": {Rate: ConstantRate(1000)}},
		dataflow.Parallelism{"src": 1, "map": 1, "sink": 1},
		Config{Mode: ModeFlink, QueueCapacity: 1000})
	if err != nil {
		t.Fatal(err)
	}
	// Let the queue fill, then measure a clean window.
	e.RunInterval(5)
	st := e.RunInterval(10)

	if got := st.SourceObserved["src"]; math.Abs(got-500) > 10 {
		t.Errorf("backpressured source rate = %v, want ~500", got)
	}
	r := opRates(t, st, "map")
	if math.Abs(r.TrueProcessing-500) > 5 {
		t.Errorf("map true rate = %v, want ~500 (unchanged by backpressure)", r.TrueProcessing)
	}
	found := false
	for _, op := range st.Backpressured {
		if op == "map" {
			found = true
		}
	}
	if !found {
		t.Errorf("map not flagged backpressured: %v", st.Backpressured)
	}
	// Source reports output waiting, not input waiting.
	sw := findWindow(t, st.Windows, "src", 0)
	if sw.WaitingOutput < sw.WaitingInput {
		t.Errorf("source waits: in=%v out=%v, want mostly output", sw.WaitingInput, sw.WaitingOutput)
	}
	// Latency reflects the standing queue: ~1000 records / 500 rec/s = ~2s.
	if p50 := LatencyQuantile(st.Latencies, 0.5); p50 < 1 || p50 > 3.5 {
		t.Errorf("median latency under backpressure = %v, want ~2s", p50)
	}
	if e.Backlog("src") <= 0 {
		t.Error("source accrued no backlog under backpressure")
	}
}

// TestFig2DownstreamStarvation verifies the Fig. 2 phenomenon end to
// end: a bottleneck suppresses *observed* rates of downstream
// operators, while true rates reveal the capacity — and the real DS2
// policy derives the paper's exact answer (o1→4, o2→2) from engine
// measurements.
func TestFig2DownstreamStarvation(t *testing.T) {
	g := mustGraph(t, "src", "o1", "o2")
	e, err := New(g,
		map[string]OperatorSpec{
			"o1": {CostPerRecord: 0.1, Selectivity: 10},  // 10 rec/s true
			"o2": {CostPerRecord: 0.005, Selectivity: 0}, // 200 rec/s true
		},
		map[string]SourceSpec{"src": {Rate: ConstantRate(40)}},
		dataflow.Parallelism{"src": 1, "o1": 1, "o2": 1},
		Config{Mode: ModeFlink, QueueCapacity: 200})
	if err != nil {
		t.Fatal(err)
	}
	e.RunInterval(30) // fill queues / reach regime
	st := e.RunInterval(30)

	snap, err := Snapshot(st)
	if err != nil {
		t.Fatal(err)
	}
	o1, o2 := snap.Operators["o1"], snap.Operators["o2"]
	if math.Abs(o1.TrueProcessing-10) > 0.5 {
		t.Errorf("o1 true rate = %v, want ~10", o1.TrueProcessing)
	}
	if math.Abs(o2.TrueProcessing-200) > 5 {
		t.Errorf("o2 true rate = %v, want ~200", o2.TrueProcessing)
	}
	if o2.ObservedProcessing > 110 {
		t.Errorf("o2 observed = %v, want suppressed ~100", o2.ObservedProcessing)
	}
	if got := st.SourceObserved["src"]; got > 12 {
		t.Errorf("observed source rate = %v, want throttled to ~10", got)
	}

	pol, err := core.NewPolicy(g, core.PolicyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := pol.Decide(snap, st.Parallelism, 1)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Parallelism["o1"] != 4 || dec.Parallelism["o2"] != 2 {
		t.Errorf("policy decision = %v, want o1:4 o2:2", dec.Parallelism)
	}
}

// --- rate limits, skew, parallelism -------------------------------------

func TestRateLimit(t *testing.T) {
	g := mustGraph(t, "src", "lim")
	e, err := New(g,
		map[string]OperatorSpec{"lim": {CostPerRecord: 1e-6, Selectivity: 0, RateLimit: 50}},
		map[string]SourceSpec{"src": {Rate: ConstantRate(500)}},
		dataflow.Parallelism{"src": 1, "lim": 1},
		Config{Mode: ModeFlink, QueueCapacity: 100000})
	if err != nil {
		t.Fatal(err)
	}
	st := e.RunInterval(10)
	lim := findWindow(t, st.Windows, "lim", 0)
	if math.Abs(lim.Processed-500) > 5 { // 50/s × 10s
		t.Errorf("rate-limited processed = %v, want ~500", lim.Processed)
	}
}

func TestParallelismScalesThroughput(t *testing.T) {
	mk := func(p int) float64 {
		g := mustGraph(t, "src", "map")
		e, err := New(g,
			map[string]OperatorSpec{"map": {CostPerRecord: 0.01, Selectivity: 0}},
			map[string]SourceSpec{"src": {Rate: ConstantRate(1000)}},
			dataflow.Parallelism{"src": 1, "map": p},
			Config{Mode: ModeFlink, QueueCapacity: 500})
		if err != nil {
			t.Fatal(err)
		}
		e.RunInterval(5)
		st := e.RunInterval(10)
		return st.SourceObserved["src"]
	}
	r1, r4 := mk(1), mk(4)
	if math.Abs(r1-100) > 5 {
		t.Errorf("p=1 throughput = %v, want ~100", r1)
	}
	if math.Abs(r4-400) > 15 {
		t.Errorf("p=4 throughput = %v, want ~400", r4)
	}
}

func TestCoordinationOverheadSublinear(t *testing.T) {
	g := mustGraph(t, "src", "map")
	e, err := New(g,
		map[string]OperatorSpec{"map": {CostPerRecord: 0.01, Selectivity: 0, Alpha: 0.02}},
		map[string]SourceSpec{"src": {Rate: ConstantRate(10000)}},
		dataflow.Parallelism{"src": 1, "map": 11},
		Config{Mode: ModeFlink, QueueCapacity: 500})
	if err != nil {
		t.Fatal(err)
	}
	e.RunInterval(5)
	st := e.RunInterval(10)
	r := opRates(t, st, "map")
	// Per-instance true rate = 100/(1+0.02·10) = 83.3; aggregate ≈ 917.
	want := 11.0 * 100 / 1.2
	if math.Abs(r.TrueProcessing-want) > 10 {
		t.Errorf("aggregated true rate = %v, want ~%v", r.TrueProcessing, want)
	}
}

func TestSkewHotInstanceSaturates(t *testing.T) {
	g := mustGraph(t, "src", "map")
	e, err := New(g,
		map[string]OperatorSpec{"map": {CostPerRecord: 0.005, Selectivity: 0, SkewHot: 0.5}},
		map[string]SourceSpec{"src": {Rate: ConstantRate(300)}},
		dataflow.Parallelism{"src": 1, "map": 2},
		Config{Mode: ModeFlink, QueueCapacity: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Weights: inst0 = 0.5+0.25 = 0.75 (225/s offered > 200/s cap),
	// inst1 = 0.25 (75/s, idle capacity).
	e.RunInterval(10)
	st := e.RunInterval(10)
	hot := findWindow(t, st.Windows, "map", 0)
	cold := findWindow(t, st.Windows, "map", 1)
	if hot.Processed <= cold.Processed*2 {
		t.Errorf("hot %v vs cold %v, want ≫", hot.Processed, cold.Processed)
	}
	if hot.WaitingInput > 1 {
		t.Errorf("hot instance waiting input %v, want saturated", hot.WaitingInput)
	}
	if cold.WaitingInput < 5 {
		t.Errorf("cold instance waiting %v, want mostly idle", cold.WaitingInput)
	}
	// Throughput capped by hot instance: 200/0.75 ≈ 267 < 300.
	if got := st.SourceObserved["src"]; got > 280 {
		t.Errorf("throughput with skew = %v, want < 280", got)
	}
}

// --- windows -------------------------------------------------------------

func TestWindowStashAndFire(t *testing.T) {
	g := mustGraph(t, "src", "win", "sink")
	e, err := New(g,
		map[string]OperatorSpec{
			"win":  {CostPerRecord: 0.002, Selectivity: 0.1, Window: &WindowSpec{Slide: 1, InsertFrac: 0.2}},
			"sink": {CostPerRecord: 1e-5},
		},
		map[string]SourceSpec{"src": {Rate: ConstantRate(100)}},
		dataflow.Parallelism{"src": 1, "win": 1, "sink": 1},
		Config{Mode: ModeFlink})
	if err != nil {
		t.Fatal(err)
	}
	// Before the first fire: inserts only, no output.
	st := e.RunInterval(0.95)
	w := findWindow(t, st.Windows, "win", 0)
	if w.Processed < 80 {
		t.Errorf("pre-fire processed = %v", w.Processed)
	}
	if w.Pushed != 0 {
		t.Errorf("pre-fire pushed = %v, want 0", w.Pushed)
	}
	preRate := w.Processed / w.Useful() // insert-only: looks fast
	// Cross the fire boundary.
	st = e.RunInterval(0.2)
	w = findWindow(t, st.Windows, "win", 0)
	if w.Pushed < 5 {
		t.Errorf("post-fire pushed = %v, want ~10 (100 records × 0.1)", w.Pushed)
	}
	postRate := w.Processed / w.Useful()
	if postRate >= preRate {
		t.Errorf("processing rate did not drop on fire: pre %v post %v", preRate, postRate)
	}
}

func TestWindowFireCatchesUpAfterPause(t *testing.T) {
	g := mustGraph(t, "src", "win")
	e, err := New(g,
		map[string]OperatorSpec{"win": {CostPerRecord: 0.001, Selectivity: 0, Window: &WindowSpec{Slide: 0.5, InsertFrac: 0.5}}},
		map[string]SourceSpec{"src": {Rate: ConstantRate(10)}},
		dataflow.Parallelism{"src": 1, "win": 1},
		Config{Mode: ModeFlink, RedeployDelay: 2})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(1)
	if err := e.Rescale(dataflow.Parallelism{"src": 1, "win": 2}); err != nil {
		t.Fatal(err)
	}
	e.Run(5) // pause spans several slide boundaries; must not wedge
	if e.Paused() {
		t.Fatal("still paused")
	}
	if got := e.Parallelism()["win"]; got != 2 {
		t.Errorf("win parallelism = %d", got)
	}
}

// --- rescaling ------------------------------------------------------------

func TestRescalePausesAndPreservesWork(t *testing.T) {
	g := mustGraph(t, "src", "map")
	e, err := New(g,
		map[string]OperatorSpec{"map": {CostPerRecord: 0.01, Selectivity: 0}},
		map[string]SourceSpec{"src": {Rate: ConstantRate(500)}},
		dataflow.Parallelism{"src": 1, "map": 1},
		Config{Mode: ModeFlink, QueueCapacity: 2000, RedeployDelay: 3})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(10) // map saturates at 100/s; queue fills
	var before float64
	for _, inst := range e.ops[1].instances {
		before += inst.queue.count
	}
	if before < 1000 {
		t.Fatalf("expected standing queue, got %v", before)
	}
	e.Collect()
	if err := e.Rescale(dataflow.Parallelism{"src": 1, "map": 6}); err != nil {
		t.Fatal(err)
	}
	if !e.Paused() {
		t.Fatal("not paused after rescale")
	}
	// During the pause nothing is emitted.
	st := e.RunInterval(3)
	if st.SourceObserved["src"] > 1e-9 {
		t.Errorf("source emitted during redeploy: %v", st.SourceObserved["src"])
	}
	if e.Paused() {
		t.Fatal("still paused after delay")
	}
	var after float64
	for _, inst := range e.ops[1].instances {
		after += inst.queue.count
	}
	if math.Abs(after-before) > 1 {
		t.Errorf("queued work not preserved: %v -> %v", before, after)
	}
	if len(e.ops[1].instances) != 6 {
		t.Errorf("instances = %d, want 6", len(e.ops[1].instances))
	}
	// 6 instances (600/s) handle 500/s and drain the backlog at the
	// catch-up bound.
	e.RunInterval(30)
	st = e.RunInterval(10)
	if got := st.SourceObserved["src"]; math.Abs(got-500) > 10 {
		t.Errorf("post-rescale throughput = %v, want ~500", got)
	}
}

func TestRescaleErrors(t *testing.T) {
	g := mustGraph(t, "src", "map")
	e, err := New(g,
		map[string]OperatorSpec{"map": {CostPerRecord: 0.01}},
		map[string]SourceSpec{"src": {Rate: ConstantRate(1)}},
		dataflow.Parallelism{"src": 1, "map": 1},
		Config{Mode: ModeFlink, RedeployDelay: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Rescale(dataflow.Parallelism{"src": 1}); err == nil {
		t.Error("invalid parallelism accepted")
	}
	if err := e.RescaleWorkers(4); err == nil {
		t.Error("RescaleWorkers accepted in Flink mode")
	}
	if err := e.Rescale(dataflow.Parallelism{"src": 1, "map": 2}); err != nil {
		t.Fatal(err)
	}
	if err := e.Rescale(dataflow.Parallelism{"src": 1, "map": 3}); err == nil {
		t.Error("concurrent rescale accepted")
	}
}

// --- construction errors ---------------------------------------------------

func TestNewErrors(t *testing.T) {
	g := mustGraph(t, "src", "map")
	good := map[string]OperatorSpec{"map": {CostPerRecord: 0.01}}
	goodSrc := map[string]SourceSpec{"src": {Rate: ConstantRate(1)}}
	p := dataflow.Parallelism{"src": 1, "map": 1}

	if _, err := New(nil, good, goodSrc, p, Config{}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := New(g, nil, goodSrc, p, Config{}); err == nil {
		t.Error("missing op spec accepted")
	}
	if _, err := New(g, good, nil, p, Config{}); err == nil {
		t.Error("missing source spec accepted")
	}
	if _, err := New(g, good, map[string]SourceSpec{"src": {}}, p, Config{}); err == nil {
		t.Error("nil rate accepted")
	}
	if _, err := New(g, map[string]OperatorSpec{"map": {}}, goodSrc, p, Config{}); err == nil {
		t.Error("zero cost accepted")
	}
	if _, err := New(g, map[string]OperatorSpec{"map": {CostPerRecord: 1, SkewHot: 1.5}}, goodSrc, p, Config{}); err == nil {
		t.Error("bad skew accepted")
	}
	if _, err := New(g, map[string]OperatorSpec{"map": {CostPerRecord: 1, Window: &WindowSpec{}}}, goodSrc, p, Config{}); err == nil {
		t.Error("zero slide accepted")
	}
	if _, err := New(g, good, goodSrc, dataflow.Parallelism{"src": 1}, Config{}); err == nil {
		t.Error("bad parallelism accepted")
	}
}

// --- dynamic rates ----------------------------------------------------------

func TestStepRateAndBacklogCatchup(t *testing.T) {
	fn := StepRate(10, 200, 50)
	if fn(0) != 200 || fn(9.99) != 200 || fn(10) != 50 || fn(100) != 50 {
		t.Error("StepRate boundaries")
	}
	g := mustGraph(t, "src", "map")
	e, err := New(g,
		map[string]OperatorSpec{"map": {CostPerRecord: 0.001, Selectivity: 0}},
		map[string]SourceSpec{"src": {Rate: fn}},
		dataflow.Parallelism{"src": 1, "map": 1},
		Config{Mode: ModeFlink})
	if err != nil {
		t.Fatal(err)
	}
	st := e.RunInterval(10)
	if math.Abs(st.SourceObserved["src"]-200) > 5 {
		t.Errorf("phase 1 rate = %v", st.SourceObserved["src"])
	}
	st = e.RunInterval(10)
	if math.Abs(st.SourceObserved["src"]-50) > 5 {
		t.Errorf("phase 2 rate = %v", st.SourceObserved["src"])
	}
}

// --- conservation property ---------------------------------------------------

func TestRecordConservation(t *testing.T) {
	g := mustGraph(t, "src", "a", "b")
	e, err := New(g,
		map[string]OperatorSpec{
			"a": {CostPerRecord: 0.004, Selectivity: 2},
			"b": {CostPerRecord: 0.001, Selectivity: 0},
		},
		map[string]SourceSpec{"src": {Rate: ConstantRate(300)}},
		dataflow.Parallelism{"src": 1, "a": 1, "b": 1},
		Config{Mode: ModeFlink, QueueCapacity: 700})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(20)
	// Emitted = processed by a + still queued at a.
	aProc, aQueue := 0.0, 0.0
	for _, inst := range e.ops[1].instances {
		aProc += inst.processed
		aQueue += inst.queue.count
	}
	if diff := math.Abs(e.ops[0].cumEmitted - (aProc + aQueue)); diff > 1e-6*e.ops[0].cumEmitted+1e-6 {
		t.Errorf("conservation at a: emitted %v vs %v", e.ops[0].cumEmitted, aProc+aQueue)
	}
	// a's output = b processed + b queued.
	aPushed, bProc, bQueue := 0.0, 0.0, 0.0
	for _, inst := range e.ops[1].instances {
		aPushed += inst.pushed
	}
	for _, inst := range e.ops[2].instances {
		bProc += inst.processed
		bQueue += inst.queue.count
	}
	if diff := math.Abs(aPushed - (bProc + bQueue)); diff > 1e-6*aPushed+1e-6 {
		t.Errorf("conservation at b: pushed %v vs %v", aPushed, bProc+bQueue)
	}
}
