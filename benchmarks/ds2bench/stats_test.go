package main

import (
	"math"
	"math/rand"
	"testing"

	"ds2/internal/controlloop"
	"ds2/internal/dataflow"
	"ds2/internal/metrics"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	// Expected values are Python's statistics.quantiles(v, n=4).
	for _, c := range []struct {
		vals   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 2, 7}, 2, 10},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{1.5, 2.5, 2.5, 2.75, 3.25, 4.75}, 2.25, 3.625},
	} {
		q1, q3, ok := quartiles(c.vals)
		if !ok || !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v", c.vals, q1, q3, ok, c.q1, c.q3)
		}
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value reported ok")
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestAlternatingMin(t *testing.T) {
	// Two populations, around 300 and around 200.
	got := alternatingMin([]float64{310, 200, 290, 210, 300, 190})
	if got != 240 {
		t.Errorf("alternatingMin = %v, want (290+190)/2", got)
	}
	if got := alternatingMin([]float64{7}); got != 7 {
		t.Errorf("single sample = %v, want 7", got)
	}
}

func TestWeightedQuantilesMatchControlloop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		samples := make([]metrics.LatencySample, 1+rng.Intn(400))
		for i := range samples {
			samples[i] = metrics.LatencySample{Latency: rng.ExpFloat64(), Weight: float64(1 + rng.Intn(64))}
		}
		want := controlloop.LatencyQuantiles(samples)
		got := weightedQuantiles(samples, 0.50, 0.95, 0.99)
		if got[0] != want.P50 || got[1] != want.P95 || got[2] != want.P99 {
			t.Fatalf("trial %d: got %v, controlloop %+v", trial, got, want)
		}
	}
	if got := weightedQuantiles(nil, 0.5); got[0] != 0 {
		t.Errorf("no samples: %v", got)
	}
}

func TestBoundCheck(t *testing.T) {
	if w := worsening(100, 90, true); !near(w, 0.10) {
		t.Errorf("higher-better drop: worsening = %v, want 0.10", w)
	}
	if w := worsening(100, 90, false); !near(w, -0.10) {
		t.Errorf("lower-better drop: worsening = %v, want -0.10", w)
	}
	for _, c := range []struct {
		worse, spA, spB, bound float64
		want                   string
	}{
		{0.04, 0.01, 0.02, 0.10, "ok"},
		{0.11, 0.01, 0.02, 0.10, "REGRESSION"},
		{-0.30, 0.01, 0.02, 0.10, "ok"},         // an improvement is never a regression
		{0.11, 0.12, 0.02, 0.10, "unresolved"},  // a's own noise is wider than the bound
		{0.01, 0.02, 0.101, 0.10, "unresolved"}, // so is b's
	} {
		if got := verdict(c.worse, c.spA, c.spB, c.bound); got != c.want {
			t.Errorf("verdict(%v, %v, %v, %v) = %s, want %s", c.worse, c.spA, c.spB, c.bound, got, c.want)
		}
	}
}

func TestScaleDirection(t *testing.T) {
	p := func(work, count int) dataflow.Parallelism {
		return dataflow.Parallelism{"src": 1, "work": work, "count": count}
	}
	for _, c := range []struct {
		from, to dataflow.Parallelism
		want     int
	}{
		{p(1, 1), p(2, 1), 1},
		{p(4, 2), p(1, 1), -1},
		{p(2, 1), p(1, 2), 0},
		{p(2, 1), p(2, 1), 0},
	} {
		if got := scaleDirection(c.from, c.to); got != c.want {
			t.Errorf("scaleDirection(%v, %v) = %d, want %d", c.from, c.to, got, c.want)
		}
	}
	if got, want := autoOptimum(850), p(4, 2); !got.Equal(want) {
		t.Errorf("autoOptimum(850) = %v, want %v", got, want)
	}
	if got, want := autoOptimum(100), p(1, 1); !got.Equal(want) {
		t.Errorf("autoOptimum(100) = %v, want %v", got, want)
	}
}

func TestHostStalled(t *testing.T) {
	// Bins are autoInterval (0.25 s) of job time; bin 6 covers 1.5-1.75 s.
	w := &hostWatch{lost: make([]float64, 12)}
	w.lost[6] = 0.030 // 30 ms lost: 12% of the bin
	w.lost[9] = 0.015 // 6%: below hostStallShare
	for _, c := range []struct {
		start, end float64
		want       bool
	}{
		{1.45, 2.9, true},  // the bin lies inside the phase
		{0, 1.45, false},   // the phase ends before the bin starts
		{0, 1.55, true},    // ... or inside it
		{1.8, 2.9, true},   // the interval before the phase is decided on inside it
		{2.05, 2.9, false}, // two intervals before is not
	} {
		if _, got := w.stalled(c.start, c.end); got != c.want {
			t.Errorf("stalled(%v, %v) = %v, want %v", c.start, c.end, got, c.want)
		}
	}
	if ms, _ := w.stalled(2.05, 2.9); !near(ms, 15) {
		t.Errorf("worst loss = %v ms, want 15", ms)
	}
}

func TestScheduleIntegral(t *testing.T) {
	// Four phases at each of 100, 400 and 850 rec/s, 2 s each.
	if got := scheduleIntegral(autoRates, 2); !near(got, 4*2*(100+400+850)) {
		t.Errorf("schedule integral = %v, want 10800", got)
	}
	if got := scheduleIntegral(nil, 2.4); got != 0 {
		t.Errorf("empty schedule = %v", got)
	}
}

func TestReplayCounts(t *testing.T) {
	keys := keyPermutation(3, 7)
	seen := make(map[string]bool)
	for _, k := range keys {
		seen[k] = true
	}
	if len(seen) != 7 {
		t.Fatalf("permutation has %d distinct keys, want 7", len(seen))
	}
	if same := keyPermutation(3, 7); same[0] != keys[0] || same[6] != keys[6] {
		t.Error("the same seed gave another permutation")
	}
	// 17 sequences over 7 keys: everyone twice, the first three a third time.
	state := make(map[string]any)
	for seq := 0; seq < 17; seq++ {
		c, _ := state[keys[seq%7]].(int)
		state[keys[seq%7]] = c + 1
	}
	if err := checkCounts(state, keys, 17); err != nil {
		t.Errorf("exact replay rejected: %v", err)
	}
	state[keys[0]] = 2 // one record lost
	if err := checkCounts(state, keys, 17); err == nil {
		t.Error("a lost record passed the exactly-once check")
	}
}

func TestSelfTimes(t *testing.T) {
	sp := []span{
		{name: "rep", start: 0, end: 100, id: 1},
		{name: "NewJob", start: 5, end: 15, id: 2, parent: 1},
		{name: "Wait", start: 15, end: 90, id: 3, parent: 1},
		{name: "Collect", start: 40, end: 45, id: 4, parent: 3},
	}
	want := []int64{15, 10, 70, 5}
	for i, got := range selfTimes(sp) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", sp[i].name, got, want[i])
		}
	}
}
