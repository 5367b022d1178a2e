// Tests for the one counters record: what a worker ships is what the
// coordinator builds from, a late booking is clamped and counted instead
// of failing the interval, and NextInterval's sleep never rounds to zero.
package streamrt

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"ds2/internal/dataflow"
	"ds2/internal/metrics"
	"ds2/internal/obs"
)

// seamAccs is one window's counters for seamPipeline at {src:1,count:2},
// with values that do not survive a lossy encoding: odd nanosecond
// counts, latencies with no short decimal form, a zero and an absent
// down-wait.
func seamAccs() []wireAcc {
	return []wireAcc{
		{Op: "src", Idx: 0, counters: counters{
			Dur:       metrics.Durations{Processing: 123456789, Serialization: 7, WaitingInput: 1, WaitingOutput: 99999999},
			Processed: 1 << 40, Pushed: 1<<40 + 1,
			DownWait: []time.Duration{99999999},
		}},
		{Op: "count", Idx: 1, counters: counters{
			Dur:       metrics.Durations{Deserialization: 3, Processing: 333333333, WaitingInput: 166666667},
			Processed: 12345,
			Lats: []metrics.LatencySample{
				{Latency: 0.1 + 0.2, Weight: 64},
				{Latency: 1.0 / 3, Weight: 64},
			},
		}},
		{Op: "count", Idx: 0, counters: counters{Dur: metrics.Durations{WaitingInput: 500000001}}},
	}
}

func TestWireAccJSONBuildsIdenticalInterval(t *testing.T) {
	pipe := seamPipeline(t, 0, nil)
	par := dataflow.Parallelism{"src": 1, "count": 2}
	direct := seamAccs()

	body, err := json.Marshal(collectResp{Accs: direct})
	if err != nil {
		t.Fatal(err)
	}
	var resp collectResp
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp.Accs, direct) {
		t.Fatalf("accumulators changed on the wire:\n got: %+v\nwant: %+v", resp.Accs, direct)
	}

	want, err := buildInterval(pipe, direct, 1.25, 1.75, par, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := buildInterval(pipe, resp.Accs, 1.25, 1.75, par, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("interval built from shipped accumulators differs:\n got: %s\nwant: %s", gotJSON, wantJSON)
	}
	if len(got.Windows) != 3 || len(got.Latencies) != 2 || got.BackpressureFraction["count"] == 0 {
		t.Fatalf("interval lost content: %s", gotJSON)
	}
}

func TestBuildIntervalClampsAndCounts(t *testing.T) {
	pipe := seamPipeline(t, 0, nil)
	par := dataflow.Parallelism{"src": 1, "count": 2}
	o := newJobObs(obs.NewRegistry(), pipe, func() int { return 0 })

	// count[1] booked 0.9 s of useful time in a 0.5 s window: time from
	// the window before, booked late.
	accs := seamAccs()
	accs[1].Dur.Processing = 900 * time.Millisecond
	iv, err := buildInterval(pipe, accs, 1.25, 1.75, par, o)
	if err != nil {
		t.Fatalf("a late booking failed the interval: %v", err)
	}
	for _, w := range iv.Windows {
		if w.Useful() > w.Window*(1+1e-9) {
			t.Errorf("%s: useful %v exceeds the %v window", w.ID, w.Useful(), w.Window)
		}
	}
	if got := o.clamped["count"].Value(); got != 1 {
		t.Errorf("window_clamped_total{count} = %d, want 1", got)
	}
	if got := o.clamped["src"].Value(); got != 0 {
		t.Errorf("window_clamped_total{src} = %d, want 0", got)
	}

	// A negative component is broken accounting, not lateness.
	accs = seamAccs()
	accs[2].Dur.Processing = -1
	if _, err := buildInterval(pipe, accs, 1.25, 1.75, par, o); err == nil {
		t.Fatal("negative processing time accepted")
	}
}

func TestIntervalSleepNeverZero(t *testing.T) {
	for _, tc := range []struct {
		remain float64
		want   time.Duration
	}{
		{1e-12, 1}, // truncation made this 0: a busy loop until the clock ticked
		{0.5e-9, 1},
		{1e-9, 1},
		{2.5e-9, 3},
		{0.02, 20 * time.Millisecond},
		{0.05, 50 * time.Millisecond},
		{3600, 50 * time.Millisecond},
	} {
		if got := intervalSleep(tc.remain); got != tc.want {
			t.Errorf("intervalSleep(%v) = %v, want %v", tc.remain, got, tc.want)
		}
	}
}

// TestLateBatchBookingIsClampedNotFatal shows the booking that overshoots
// and what becomes of it: a batch is booked when it completes, so a
// 256-record batch of 1 ms records lands its whole quarter second in
// whichever 100 ms window it ends in. That window used to fail Collect
// and with it the controller's loop; now it is scaled, counted and
// reported like any other.
func TestLateBatchBookingIsClampedNotFatal(t *testing.T) {
	p, err := NewPipeline().
		AddSource("src", SourceSpec{
			Rate: func(float64) float64 { return 1e12 }, // unpaced: full batches
			Next: func(seq int64) (string, any) { return "", nil },
		}).
		AddOperator("slow", OperatorSpec{
			Process: func(any, string, any, Emit) any { return nil },
			Cost:    time.Millisecond,
		}).
		AddEdge("src", "slow").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	// One queued batch, so Stop has a quarter second to drain, not four.
	j, err := NewJob(p, dataflow.Parallelism{"src": 1, "slow": 1},
		Config{BatchSize: 256, ChannelCapacity: 1, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Stop()
	for i := 0; i < 8; i++ {
		iv, err := j.NextInterval(0.1)
		if err != nil {
			t.Fatalf("interval %d: %v", i, err)
		}
		for _, w := range iv.Windows {
			if w.Useful() > w.Window*(1+1e-9) {
				t.Errorf("interval %d, %s: useful %v exceeds the %v window", i, w.ID, w.Useful(), w.Window)
			}
		}
	}
	if got := j.obs.clamped["slow"].Value(); got == 0 {
		t.Error("no window of slow was counted as clamped: a 256 ms batch never landed in a 100 ms window")
	}
}
