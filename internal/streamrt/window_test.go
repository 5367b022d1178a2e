package streamrt_test

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ds2/internal/dataflow"
	"ds2/internal/streamrt"
)

// windowedCountPipeline builds source → windowed per-key counter →
// keyed sink. The source emits `limit` records round-robin over `keys`
// keys at `rate` records/s; the windowed operator counts records per
// key per pane and fires the count; the sink accumulates fired counts
// per key. Conservation (sink totals + residual panes == records per
// key) is therefore an exactly-once pin on the whole window path.
func windowedCountPipeline(t *testing.T, rate float64, limit int64, keys int, win streamrt.WindowSpec) *streamrt.Pipeline {
	t.Helper()
	win.Fire = func(key string, agg any, emit streamrt.Emit) {
		emit(key, agg.(int))
	}
	p, err := streamrt.NewPipeline().
		AddSource("src", streamrt.SourceSpec{
			Rate:  func(float64) float64 { return rate },
			Next:  func(seq int64) (string, any) { return fmt.Sprintf("k%02d", seq%int64(keys)), 1 },
			Limit: limit,
		}).
		AddOperator("window", streamrt.OperatorSpec{
			Keyed: true,
			Process: func(state any, _ string, _ any, _ streamrt.Emit) any {
				c, _ := state.(int)
				return c + 1
			},
			Window: &win,
		}).
		AddOperator("sink", streamrt.OperatorSpec{
			Keyed: true,
			Process: func(state any, _ string, v any, _ streamrt.Emit) any {
				c, _ := state.(int)
				return c + v.(int)
			},
		}).
		AddEdge("src", "window").
		AddEdge("window", "sink").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// windowConservation sums fired (sink) plus residual (open panes)
// counts per key from a stopped job's final states.
func windowConservation(t *testing.T, states map[string]map[string]any) map[string]int {
	t.Helper()
	total := make(map[string]int)
	for key, st := range states["sink"] {
		total[key] += st.(int)
	}
	for key, st := range states["window"] {
		ws, ok := st.(*streamrt.WindowState)
		if !ok {
			t.Fatalf("window state for %s is %T, want *WindowState", key, st)
		}
		for _, agg := range ws.Panes {
			total[key] += agg.(int)
		}
	}
	return total
}

// TestTumblingWindowFiresExactlyOnce: a bounded stream through a small
// tumbling window must fire every closed pane exactly once — fired
// counts at the sink plus residual open panes add up to the exact
// per-key record totals, and at least one window actually fired
// mid-run.
func TestTumblingWindowFiresExactlyOnce(t *testing.T) {
	const (
		limit = 600
		keys  = 8
	)
	p := windowedCountPipeline(t, 3000, limit, keys, streamrt.WindowSpec{Size: 40 * time.Millisecond})
	j, err := streamrt.NewJob(p, dataflow.Parallelism{"src": 1, "window": 2, "sink": 1}, streamrt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	j.Wait()
	states := j.Stop()

	fired := 0
	for _, st := range states["sink"] {
		fired += st.(int)
	}
	if fired == 0 {
		t.Fatal("no window ever fired")
	}
	total := windowConservation(t, states)
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("k%02d", k)
		if got, want := total[key], limit/keys; got != want {
			t.Errorf("key %s: fired+residual = %d, want %d", key, got, want)
		}
	}
}

// TestSlidingWindowCombines: with size = 3×slide every record
// contributes to up to three fired windows, folded by Combine. The
// per-window fire is the pane-order sum, so total fired mass is
// bounded by 3× the record count and the residual panes still hold
// each record exactly once.
func TestSlidingWindowCombines(t *testing.T) {
	const limit = 400
	win := streamrt.WindowSpec{
		Size:    60 * time.Millisecond,
		Slide:   20 * time.Millisecond,
		Combine: func(a, b any) any { return a.(int) + b.(int) },
	}
	p := windowedCountPipeline(t, 3000, limit, 4, win)
	j, err := streamrt.NewJob(p, dataflow.Parallelism{"src": 1, "window": 1, "sink": 1}, streamrt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	j.Wait()
	states := j.Stop()

	fired := 0
	for _, st := range states["sink"] {
		fired += st.(int)
	}
	if fired == 0 {
		t.Fatal("no sliding window ever fired")
	}
	if fired > 3*limit {
		t.Fatalf("fired mass %d exceeds 3x the %d records — a pane fired into more than 3 windows", fired, limit)
	}
	// Residual panes hold each not-yet-retired record at most once per
	// pane; total mass across sink and panes is bounded by 3x records
	// (each record in at most 3 windows) and at least the record count
	// (each record fires at least once or is still buffered).
	total := 0
	for _, n := range windowConservation(t, states) {
		total += n
	}
	if total < limit {
		t.Fatalf("fired+residual mass %d lost records (want >= %d)", total, limit)
	}
}

// TestWindowStateSurvivesConcurrentRescale is the -race pin for the
// windowed snapshot/repartition path: a windowed job rescaled
// repeatedly while records flow and windows fire must neither lose nor
// duplicate a single record — fired plus residual counts stay exact.
func TestWindowStateSurvivesConcurrentRescale(t *testing.T) {
	const (
		limit = 900
		keys  = 8
	)
	p := windowedCountPipeline(t, 4000, limit, keys, streamrt.WindowSpec{Size: 30 * time.Millisecond})
	j, err := streamrt.NewJob(p, dataflow.Parallelism{"src": 1, "window": 1, "sink": 1}, streamrt.Config{})
	if err != nil {
		t.Fatal(err)
	}

	configs := []dataflow.Parallelism{
		{"src": 1, "window": 3, "sink": 2},
		{"src": 1, "window": 2, "sink": 1},
		{"src": 1, "window": 4, "sink": 2},
		{"src": 1, "window": 1, "sink": 1},
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for _, cfg := range configs {
			time.Sleep(35 * time.Millisecond)
			if err := j.Rescale(cfg); err != nil {
				t.Errorf("rescale to %s: %v", cfg, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		// Concurrent observation exercises Collect against the rescale
		// path under -race.
		for i := 0; i < 6; i++ {
			time.Sleep(30 * time.Millisecond)
			if _, err := j.Collect(); err != nil {
				t.Errorf("collect: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	j.Wait()
	states := j.Stop()

	total := windowConservation(t, states)
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("k%02d", k)
		want := limit / keys
		if k < limit%keys {
			want++
		}
		if got := total[key]; got != want {
			t.Errorf("key %s: fired+residual = %d across %d rescales, want %d", key, got, len(configs), want)
		}
	}
	if j.Rescales() != len(configs) {
		t.Fatalf("job performed %d rescales, want %d", j.Rescales(), len(configs))
	}
}

// TestWindowSpecValidation pins the builder's windowed-operator
// invariants.
// TestCountersExactAcrossTheLoop: every instance kind books through the
// one loop and the one counters record, so over a bounded run the
// Processed and Pushed counts of all collected intervals — cut mid-run
// and after the drain — add up to the exact record counts, and no time
// component is ever negative. Counts only: nothing here depends on how
// long anything took.
func TestCountersExactAcrossTheLoop(t *testing.T) {
	const (
		limit = 1200
		keys  = 8
	)
	var fired atomic.Int64
	p, err := streamrt.NewPipeline().
		AddSource("src", streamrt.SourceSpec{
			Rate:  func(float64) float64 { return 6000 },
			Next:  func(seq int64) (string, any) { return fmt.Sprintf("k%02d", seq%keys), 1 },
			Limit: limit,
		}).
		AddOperator("twice", streamrt.OperatorSpec{
			Keyed: true,
			Process: func(state any, key string, v any, emit streamrt.Emit) any {
				emit(key, v)
				emit(key, v)
				c, _ := state.(int)
				return c + 1
			},
		}).
		AddOperator("window", streamrt.OperatorSpec{
			Keyed: true,
			Process: func(state any, _ string, _ any, _ streamrt.Emit) any {
				c, _ := state.(int)
				return c + 1
			},
			Window: &streamrt.WindowSpec{
				Size: 20 * time.Millisecond,
				Fire: func(key string, agg any, emit streamrt.Emit) {
					fired.Add(1)
					emit(key, agg)
				},
			},
		}).
		AddEdge("src", "twice").
		AddEdge("twice", "window").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	j, err := streamrt.NewJob(p, dataflow.Parallelism{"src": 1, "twice": 1, "window": 1}, streamrt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Stop()
	done := make(chan struct{})
	go func() { j.Wait(); close(done) }()

	processed, pushed := make(map[string]float64), make(map[string]float64)
	intervals := 0
	sum := func(iv streamrt.Interval, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("interval %d: %v", intervals, err)
		}
		intervals++
		for _, w := range iv.Windows {
			for name, v := range map[string]float64{
				"deserialization": w.Deserialization, "processing": w.Processing, "serialization": w.Serialization,
				"waiting_input": w.WaitingInput, "waiting_output": w.WaitingOutput,
			} {
				if v < 0 {
					t.Errorf("interval %d, %s: %s = %v", intervals, w.ID, name, v)
				}
			}
			processed[w.ID.Operator] += w.Processed
			pushed[w.ID.Operator] += w.Pushed
		}
	}
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
			sum(j.NextInterval(0.03))
		}
	}
	sum(j.Collect()) // what the instances merged as they exited
	if intervals < 3 {
		t.Fatalf("only %d intervals cut; the run was meant to span several", intervals)
	}
	if fired.Load() == 0 {
		t.Fatal("no window ever fired")
	}
	for _, c := range []struct {
		what string
		got  float64
		want int64
	}{
		{"src processed", processed["src"], limit},
		{"src pushed", pushed["src"], limit},
		{"twice processed", processed["twice"], limit},
		{"twice pushed", pushed["twice"], 2 * limit},
		{"window processed", processed["window"], 2 * limit},
		{"window pushed", pushed["window"], fired.Load()},
	} {
		if c.got != float64(c.want) {
			t.Errorf("%s = %v over %d intervals, want %d", c.what, c.got, intervals, c.want)
		}
	}
}

func TestWindowSpecValidation(t *testing.T) {
	count := func(state any, _ string, _ any, _ streamrt.Emit) any {
		c, _ := state.(int)
		return c + 1
	}
	fire := func(string, any, streamrt.Emit) {}
	cases := []struct {
		name string
		spec streamrt.OperatorSpec
		want string
	}{
		{"unkeyed", streamrt.OperatorSpec{Process: count,
			Window: &streamrt.WindowSpec{Size: time.Second, Fire: fire}}, "must be keyed"},
		{"no-size", streamrt.OperatorSpec{Keyed: true, Process: count,
			Window: &streamrt.WindowSpec{Fire: fire}}, "size"},
		{"slide-over-size", streamrt.OperatorSpec{Keyed: true, Process: count,
			Window: &streamrt.WindowSpec{Size: time.Second, Slide: 2 * time.Second, Fire: fire}}, "slide"},
		{"ragged", streamrt.OperatorSpec{Keyed: true, Process: count,
			Window: &streamrt.WindowSpec{Size: time.Second, Slide: 300 * time.Millisecond, Fire: fire}}, "multiple"},
		{"no-fire", streamrt.OperatorSpec{Keyed: true, Process: count,
			Window: &streamrt.WindowSpec{Size: time.Second}}, "Fire"},
		{"no-combine", streamrt.OperatorSpec{Keyed: true, Process: count,
			Window: &streamrt.WindowSpec{Size: time.Second, Slide: 500 * time.Millisecond, Fire: fire}}, "Combine"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := streamrt.NewPipeline().
				AddSource("src", streamrt.SourceSpec{
					Rate: func(float64) float64 { return 1 },
					Next: func(seq int64) (string, any) { return "k", seq },
				}).
				AddOperator("w", tc.spec).
				AddEdge("src", "w").
				Build()
			if err == nil {
				t.Fatalf("Build accepted invalid window spec %q", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
