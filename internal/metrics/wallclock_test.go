package metrics

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestWindowFromDurationsBasic(t *testing.T) {
	id := InstanceID{Operator: "op", Index: 2}
	w, _, err := WindowFromDurations(id, time.Second, Durations{
		Deserialization: 100 * time.Millisecond,
		Processing:      300 * time.Millisecond,
		Serialization:   100 * time.Millisecond,
		WaitingInput:    400 * time.Millisecond,
		WaitingOutput:   100 * time.Millisecond,
	}, 500, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if w.ID != id || w.Window != 1 || w.Processed != 500 || w.Pushed != 1000 {
		t.Fatalf("unexpected window %+v", w)
	}
	if got, want := w.Useful(), 0.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("useful = %v, want %v", got, want)
	}
	r, err := w.Rates()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.TrueProcessing-1000) > 1e-9 || math.Abs(r.TrueOutput-2000) > 1e-9 {
		t.Fatalf("true rates %+v, want 1000/2000", r)
	}
}

func TestWindowFromDurationsExactBoundary(t *testing.T) {
	// Useful time exactly equal to the window must pass unscaled.
	w, _, err := WindowFromDurations(InstanceID{Operator: "op"}, time.Second,
		Durations{Processing: time.Second}, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if w.Processing != 1 {
		t.Fatalf("processing = %v, want 1 (unscaled)", w.Processing)
	}
}

func TestWindowFromDurationsJitterClamped(t *testing.T) {
	// 10% overshoot sits inside the default 25% tolerance: the useful
	// components are scaled to fit the window, preserving proportions.
	d := Durations{
		Deserialization: 110 * time.Millisecond,
		Processing:      880 * time.Millisecond,
		Serialization:   110 * time.Millisecond,
	}
	w, clamped, err := WindowFromDurations(InstanceID{Operator: "op"}, time.Second, d, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	if clamped {
		t.Fatal("overshoot inside the tolerance reported as clamped")
	}
	if got := w.Useful(); math.Abs(got-1) > 1e-12 {
		t.Fatalf("clamped useful = %v, want exactly the 1s window", got)
	}
	// Proportions preserved: processing is 80% of useful before and
	// after scaling.
	if got, want := w.Processing/w.Useful(), 0.8; math.Abs(got-want) > 1e-12 {
		t.Fatalf("processing share = %v, want %v", got, want)
	}
	if err := w.Validate(); err != nil {
		t.Fatalf("clamped window fails validation: %v", err)
	}
}

func TestWindowFromDurationsBeyondTolerance(t *testing.T) {
	// 30% overshoot exceeds the default tolerance: time booked late,
	// scaled to fit like any overshoot and reported so the caller can
	// count it.
	d := Durations{Deserialization: 260 * time.Millisecond, Processing: 1040 * time.Millisecond}
	w, clamped, err := WindowFromDurations(InstanceID{Operator: "op"}, time.Second, d, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !clamped {
		t.Fatal("30% overshoot not reported as clamped")
	}
	if got := w.Useful(); math.Abs(got-1) > 1e-12 {
		t.Fatalf("clamped useful = %v, want exactly the 1s window", got)
	}
	if got, want := w.Processing/w.Useful(), 0.8; math.Abs(got-want) > 1e-12 {
		t.Fatalf("processing share = %v, want %v", got, want)
	}
}

func TestWindowFromDurationsInvalid(t *testing.T) {
	if _, _, err := WindowFromDurations(InstanceID{Operator: "op"}, 0, Durations{}, 0, 0); err == nil {
		t.Fatal("expected error for zero window")
	}
	if _, _, err := WindowFromDurations(InstanceID{Operator: "op"}, -time.Second, Durations{}, 0, 0); err == nil {
		t.Fatal("expected error for negative window")
	}
}

// TestWindowFromDurationsRejectsNegatives pins that every negative
// duration component and negative count is rejected up front with an
// error naming the offending field — before the jitter clamp can scale
// a corrupted split into something that merely looks valid. A negative
// useful time would flip the sign of the true-rate estimate
// downstream.
func TestWindowFromDurationsRejectsNegatives(t *testing.T) {
	id := InstanceID{Operator: "op", Index: 1}
	cases := []struct {
		name      string
		d         Durations
		processed int64
		pushed    int64
	}{
		{"deserialization", Durations{Deserialization: -time.Millisecond}, 1, 1},
		{"processing", Durations{Processing: -time.Millisecond}, 1, 1},
		{"serialization", Durations{Serialization: -time.Millisecond}, 1, 1},
		{"waiting-for-input", Durations{WaitingInput: -time.Millisecond}, 1, 1},
		{"waiting-for-output", Durations{WaitingOutput: -time.Millisecond}, 1, 1},
		{"processed", Durations{Processing: time.Millisecond}, -1, 1},
		{"pushed", Durations{Processing: time.Millisecond}, 1, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := WindowFromDurations(id, time.Second, tc.d, tc.processed, tc.pushed)
			if err == nil {
				t.Fatalf("negative %s accepted", tc.name)
			}
			if !strings.Contains(err.Error(), tc.name) {
				t.Fatalf("error %q does not name the %s field", err, tc.name)
			}
		})
	}
	// A negative component must not be rescued by a positive overshoot
	// elsewhere: useful time within tolerance overall, yet corrupted.
	_, _, err := WindowFromDurations(id, time.Second,
		Durations{Processing: 1100 * time.Millisecond, Serialization: -50 * time.Millisecond}, 1, 1)
	if err == nil {
		t.Fatal("negative serialization masked by processing overshoot was accepted")
	}
}

func TestWindowFromDurationsWaitingUnscaled(t *testing.T) {
	// Waiting time is diagnostic: it may exceed the window (e.g. both
	// input and output blocked measurements overlapping a boundary)
	// without being touched by the clamp.
	d := Durations{
		Processing:   1200 * time.Millisecond,
		WaitingInput: 900 * time.Millisecond,
	}
	w, _, err := WindowFromDurations(InstanceID{Operator: "op"}, time.Second, d, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := w.WaitingInput, 0.9; math.Abs(got-want) > 1e-12 {
		t.Fatalf("waiting input = %v, want %v (unscaled)", got, want)
	}
}
