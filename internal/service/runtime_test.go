package service

import (
	"encoding/json"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"ds2/internal/controlloop"
	"ds2/internal/core"
	"ds2/internal/dataflow"
	"ds2/internal/metrics"
	"ds2/internal/obs"
)

func testGraph(t *testing.T) *dataflow.Graph {
	t.Helper()
	g, err := dataflow.Linear("src", "op")
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func window(op string, idx int, w, useful, processed, pushed float64) metrics.WindowMetrics {
	return metrics.WindowMetrics{
		ID:         metrics.InstanceID{Operator: op, Index: idx},
		Window:     w,
		Processing: useful,
		Processed:  processed,
		Pushed:     pushed,
	}
}

func testReport(start, end float64) Report {
	return Report{
		Start:          start,
		End:            end,
		Windows:        []metrics.WindowMetrics{window("op", 0, end-start, end-start, 100, 100)},
		TargetRates:    map[string]float64{"src": 100},
		SourceObserved: map[string]float64{"src": 90},
		Parallelism:    dataflow.Parallelism{"src": 1, "op": 1},
	}
}

func TestRemoteRuntimeAdvanceAggregatesReports(t *testing.T) {
	g := testGraph(t)
	repo := metrics.NewRepository(8)
	rt := NewRemoteRuntime(g, dataflow.Parallelism{"src": 1, "op": 1}, repo, 8)

	// Two half-interval reports satisfy one 10 s interval.
	if err := rt.Ingest(testReport(0, 5)); err != nil {
		t.Fatal(err)
	}
	if err := rt.Ingest(testReport(5, 10)); err != nil {
		t.Fatal(err)
	}
	obs, err := rt.Advance(10)
	if err != nil {
		t.Fatal(err)
	}
	if obs.Start != 0 || obs.End != 10 || obs.Busy {
		t.Errorf("obs span [%v, %v] busy=%v", obs.Start, obs.End, obs.Busy)
	}
	snap, err := obs.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Two 5 s windows with 100 processed each merge into 200/10 s.
	if got := snap.Operators["op"].TrueProcessing; got != 20 {
		t.Errorf("true processing = %v, want 20", got)
	}
	if got := obs.AchievedRate(); got != 90 {
		t.Errorf("achieved = %v, want 90", got)
	}
	if repo.Len() != 1 {
		t.Errorf("repository holds %d snapshots, want 1", repo.Len())
	}
}

func TestRemoteRuntimeAdvanceBlocksUntilCovered(t *testing.T) {
	g := testGraph(t)
	rt := NewRemoteRuntime(g, dataflow.Parallelism{"src": 1, "op": 1}, nil, 8)
	var wg sync.WaitGroup
	wg.Add(1)
	var obs controlloop.Observation
	var advErr error
	go func() {
		defer wg.Done()
		obs, advErr = rt.Advance(10)
	}()
	// The advance cannot complete on half an interval.
	if err := rt.Ingest(testReport(0, 5)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if err := rt.Ingest(testReport(5, 10)); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if advErr != nil {
		t.Fatal(advErr)
	}
	if obs.End != 10 {
		t.Errorf("obs.End = %v", obs.End)
	}
}

func TestRemoteRuntimeRejectsOverlappingReports(t *testing.T) {
	g := testGraph(t)
	rt := NewRemoteRuntime(g, dataflow.Parallelism{"src": 1, "op": 1}, nil, 8)
	if err := rt.Ingest(testReport(0, 10)); err != nil {
		t.Fatal(err)
	}
	// A retried duplicate delivery must not double-count job time.
	if err := rt.Ingest(testReport(0, 10)); err == nil {
		t.Fatal("duplicate report accepted")
	}
	// Partial overlap is rejected too.
	if err := rt.Ingest(testReport(5, 15)); err == nil {
		t.Fatal("overlapping report accepted")
	}
	// A gap (job time discarded during a settling redeployment) is
	// fine.
	if err := rt.Ingest(testReport(30, 40)); err != nil {
		t.Fatalf("gapped report rejected: %v", err)
	}
}

func TestRemoteRuntimeBacklogBound(t *testing.T) {
	g := testGraph(t)
	rt := NewRemoteRuntime(g, dataflow.Parallelism{"src": 1, "op": 1}, nil, 2)
	if err := rt.Ingest(testReport(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := rt.Ingest(testReport(1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := rt.Ingest(testReport(2, 3)); !errors.Is(err, ErrBacklogged) {
		t.Fatalf("third ingest: %v, want ErrBacklogged", err)
	}
}

func TestRemoteRuntimeApplyAckCycle(t *testing.T) {
	g := testGraph(t)
	initial := dataflow.Parallelism{"src": 1, "op": 1}
	rt := NewRemoteRuntime(g, initial, nil, 8)

	next := dataflow.Parallelism{"src": 1, "op": 3}
	err := rt.Apply(&core.Action{Kind: core.ActionRescale, New: next, Old: initial, Reason: "test"})
	if err != nil {
		t.Fatal(err)
	}
	act := rt.Pending()
	if act == nil || act.Seq != 1 || act.Kind != "rescale" || !act.New.Equal(next) {
		t.Fatalf("pending = %+v", act)
	}
	// The deployment does not change until the engine acks.
	if !rt.Parallelism().Equal(initial) {
		t.Error("parallelism changed before ack")
	}
	// An interval observed while unacked is busy.
	if err := rt.Ingest(testReport(0, 10)); err != nil {
		t.Fatal(err)
	}
	obs, err := rt.Advance(10)
	if err != nil {
		t.Fatal(err)
	}
	if !obs.Busy {
		t.Error("interval with unacked action not busy")
	}
	// Wrong seq is rejected; right seq lands.
	if err := rt.Ack(7, nil); err == nil {
		t.Error("stale ack accepted")
	}
	if err := rt.Ack(1, nil); err != nil {
		t.Fatal(err)
	}
	if !rt.Parallelism().Equal(next) {
		t.Errorf("parallelism = %v, want %v", rt.Parallelism(), next)
	}
	if rt.Pending() != nil {
		t.Error("pending survives ack")
	}
}

func TestRemoteRuntimeWaitDecision(t *testing.T) {
	g := testGraph(t)
	rt := NewRemoteRuntime(g, dataflow.Parallelism{"src": 1, "op": 1}, nil, 8)

	// Timeout path: nothing pending, nothing decided.
	start := time.Now()
	act, n := rt.WaitDecision(0, 20*time.Millisecond)
	if act != nil || n != 0 {
		t.Errorf("WaitDecision = %v, %d", act, n)
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Error("WaitDecision returned before timeout")
	}

	// Wake on decided interval.
	go func() {
		time.Sleep(5 * time.Millisecond)
		rt.NoteInterval()
	}()
	_, n = rt.WaitDecision(0, time.Second)
	if n != 1 {
		t.Errorf("intervals = %d, want 1", n)
	}
}

func TestRemoteRuntimeClose(t *testing.T) {
	g := testGraph(t)
	rt := NewRemoteRuntime(g, dataflow.Parallelism{"src": 1, "op": 1}, nil, 8)
	done := make(chan error, 1)
	go func() {
		_, err := rt.Advance(10)
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	rt.Close()
	if err := <-done; !errors.Is(err, controlloop.ErrStopped) {
		t.Fatalf("Advance after close: %v, want ErrStopped", err)
	}
	if err := rt.Ingest(testReport(0, 1)); !errors.Is(err, controlloop.ErrStopped) {
		t.Fatalf("Ingest after close: %v, want ErrStopped", err)
	}
}

// TestReportWireGolden pins the body of POST /jobs/{id}/metrics: a
// report with every field set marshals to the bytes commit 31df397
// produced (where Report was its own struct), unset fields stay off
// the wire, and the bytes round-trip.
func TestReportWireGolden(t *testing.T) {
	const golden = `{"start":60,"end":120.5,"busy":true,` +
		`"windows":[{"id":{"operator":"op","index":1},"window":60.5,"deserialization":1.25,"processing":30,"serialization":2.5,"waiting_input":20,"waiting_output":6.75,"processed":1000,"pushed":2000}],` +
		`"target_rates":{"src":100},"source_observed":{"src":87.5},` +
		`"backpressured":["op"],"backpressure_fraction":{"op":0.25},` +
		`"parallelism":{"op":2,"src":1},"workers":3,` +
		`"latencies":[{"latency":0.125,"weight":64}],"epoch_latencies":[{"epoch":7,"latency":0.5}],` +
		`"rescales":[{"id":"rescale-1","name":"rescale","started_at":"2023-11-14T22:13:20Z","complete":true,"duration_ns":500,` +
		`"spans":[{"id":1,"name":"drain","worker":-1,"start_ns":0,"end_ns":100},{"id":2,"parent":1,"name":"drain/w1","worker":1,"start_ns":10,"end_ns":90}]}]}`
	rep := Report{
		Start: 60,
		End:   120.5,
		Busy:  true,
		Windows: []metrics.WindowMetrics{{
			ID:              metrics.InstanceID{Operator: "op", Index: 1},
			Window:          60.5,
			Deserialization: 1.25,
			Processing:      30,
			Serialization:   2.5,
			WaitingInput:    20,
			WaitingOutput:   6.75,
			Processed:       1000,
			Pushed:          2000,
		}},
		TargetRates:          map[string]float64{"src": 100},
		SourceObserved:       map[string]float64{"src": 87.5},
		Backpressured:        []string{"op"},
		BackpressureFraction: map[string]float64{"op": 0.25},
		Parallelism:          dataflow.Parallelism{"op": 2, "src": 1},
		Workers:              3,
		Latencies:            []metrics.LatencySample{{Latency: 0.125, Weight: 64}},
		EpochLatencies:       []metrics.EpochLatency{{Epoch: 7, Latency: 0.5}},
		Rescales: []obs.TraceView{{
			ID: "rescale-1", Name: "rescale", StartedAt: time.Unix(1700000000, 0).UTC(), Complete: true, DurationNs: 500,
			Spans: []obs.Span{
				{ID: 1, Name: "drain", Worker: -1, StartNs: 0, EndNs: 100},
				{ID: 2, Parent: 1, Name: "drain/w1", Worker: 1, StartNs: 10, EndNs: 90},
			},
		}},
	}
	// Every field of the record must be set above, or a field added
	// later would slip past the golden.
	for v, i := reflect.ValueOf(rep), 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("report field %s is unset: extend the golden", v.Type().Field(i).Name)
		}
	}
	got, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != golden {
		t.Errorf("wire form changed:\n got %s\nwant %s", got, golden)
	}
	var back Report
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, rep) {
		t.Errorf("round trip lost data:\n got %+v\nwant %+v", back, rep)
	}
	if got, err := json.Marshal(Report{Start: 1, End: 2}); err != nil || string(got) != `{"start":1,"end":2}` {
		t.Errorf("bare report = %s (%v), want only start and end on the wire", got, err)
	}
}

func TestReportValidate(t *testing.T) {
	g := testGraph(t)
	cases := []struct {
		name string
		rep  Report
	}{
		{"empty span", Report{Start: 5, End: 5}},
		{"unknown operator", Report{Start: 0, End: 1,
			Windows: []metrics.WindowMetrics{window("ghost", 0, 1, 1, 1, 1)}}},
		{"target rate for non-source", Report{Start: 0, End: 1,
			TargetRates: map[string]float64{"op": 10}}},
		{"bad parallelism", Report{Start: 0, End: 1,
			Parallelism: dataflow.Parallelism{"src": 1}}},
	}
	for _, tc := range cases {
		if err := validateReport(tc.rep, g); err == nil {
			t.Errorf("%s: validated", tc.name)
		}
	}
}

func TestJobSpecBuildErrors(t *testing.T) {
	ops := []JobOperator{{Name: "src"}, {Name: "op"}}
	edges := [][2]string{{"src", "op"}}
	good := JobSpec{
		Operators: ops, Edges: edges,
		Initial:     dataflow.Parallelism{"src": 1, "op": 1},
		IntervalSec: 10, MaxIntervals: 5,
	}
	if _, _, _, err := good.build(); err != nil {
		t.Fatalf("good spec: %v", err)
	}

	bad := []struct {
		name string
		mut  func(*JobSpec)
	}{
		{"no operators", func(s *JobSpec) { s.Operators = nil }},
		{"bad autoscaler", func(s *JobSpec) { s.Autoscaler = "magic" }},
		{"no interval", func(s *JobSpec) { s.IntervalSec = 0 }},
		{"no horizon", func(s *JobSpec) { s.MaxIntervals = 0 }},
		{"bad initial", func(s *JobSpec) { s.Initial = dataflow.Parallelism{"src": 1} }},
		{"bad aggregation", func(s *JobSpec) { s.Manager = &ManagerConfig{Aggregation: "mean"} }},
	}
	for _, tc := range bad {
		spec := good
		tc.mut(&spec)
		if _, _, _, err := spec.build(); err == nil {
			t.Errorf("%s: built", tc.name)
		}
	}
}
