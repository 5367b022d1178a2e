package metrics

import (
	"fmt"
	"time"
)

// LatencySample is a weighted per-record latency observation taken at
// a sink. It lives in the instrumentation package because both the
// simulator and real wall-clock runtimes produce it.
type LatencySample struct {
	Latency float64 `json:"latency"` // seconds
	Weight  float64 `json:"weight"`  // records represented
}

// Durations is the wall-clock split of one operator instance's elapsed
// time over one observation window — the raw material of §3's
// instrumentation, measured with real time.Now() deltas.
type Durations struct {
	Deserialization time.Duration
	Processing      time.Duration
	Serialization   time.Duration
	WaitingInput    time.Duration
	WaitingOutput   time.Duration
}

// Useful returns the useful portion (deserialization + processing +
// serialization) of the split.
func (d Durations) Useful() time.Duration {
	return d.Deserialization + d.Processing + d.Serialization
}

// DefaultJitterTolerance is the relative excess of useful time over the
// window that WindowFromDurations treats as ordinary: an instance
// accounts a batch's time when the batch completes, so a batch
// straddling a window cut attributes its whole span to the window it
// completes in. 25% covers spans up to a quarter of the reporting
// interval; a larger excess is scaled down all the same, but reported.
const DefaultJitterTolerance = 0.25

// WindowFromDurations builds a WindowMetrics from wall-clock
// measurements. Useful time measured in one window can be booked to
// the next (a sleep the host woke late), so whenever it exceeds the
// window the three useful components are scaled down proportionally to
// fit; clamped reports an excess beyond DefaultJitterTolerance, for the
// caller to count. Negative components, negative counts and a
// non-positive window are errors: broken accounting, not lateness.
// Waiting times are diagnostic and pass through unscaled.
func WindowFromDurations(id InstanceID, window time.Duration, d Durations, processed, pushed int64) (w WindowMetrics, clamped bool, err error) {
	if window <= 0 {
		return WindowMetrics{}, false, fmt.Errorf("metrics: %s: wall-clock window %v <= 0", id, window)
	}
	// A negative component means broken accounting upstream (a clock
	// stepped backwards, or a caller subtracted overlapping spans).
	// Rejecting it here matters: a negative useful time flips the sign
	// of the true-rate estimate and every policy decision built on it.
	switch {
	case d.Deserialization < 0:
		return WindowMetrics{}, false, fmt.Errorf("metrics: %s: negative deserialization time %v", id, d.Deserialization)
	case d.Processing < 0:
		return WindowMetrics{}, false, fmt.Errorf("metrics: %s: negative processing time %v", id, d.Processing)
	case d.Serialization < 0:
		return WindowMetrics{}, false, fmt.Errorf("metrics: %s: negative serialization time %v", id, d.Serialization)
	case d.WaitingInput < 0:
		return WindowMetrics{}, false, fmt.Errorf("metrics: %s: negative waiting-for-input time %v", id, d.WaitingInput)
	case d.WaitingOutput < 0:
		return WindowMetrics{}, false, fmt.Errorf("metrics: %s: negative waiting-for-output time %v", id, d.WaitingOutput)
	case processed < 0:
		return WindowMetrics{}, false, fmt.Errorf("metrics: %s: negative processed count %d", id, processed)
	case pushed < 0:
		return WindowMetrics{}, false, fmt.Errorf("metrics: %s: negative pushed count %d", id, pushed)
	}
	w = WindowMetrics{
		ID:              id,
		Window:          window.Seconds(),
		Deserialization: d.Deserialization.Seconds(),
		Processing:      d.Processing.Seconds(),
		Serialization:   d.Serialization.Seconds(),
		WaitingInput:    d.WaitingInput.Seconds(),
		WaitingOutput:   d.WaitingOutput.Seconds(),
		Processed:       float64(processed),
		Pushed:          float64(pushed),
	}
	if u := w.Useful(); u > w.Window {
		clamped = u > w.Window*(1+DefaultJitterTolerance)
		// Scale the split, not just the total, so the three activities
		// keep their measured proportions and Useful() == Window holds
		// exactly afterwards.
		f := w.Window / u
		w.Deserialization *= f
		w.Processing *= f
		w.Serialization *= f
	}
	if err := w.Validate(); err != nil {
		return WindowMetrics{}, false, err
	}
	return w, clamped, nil
}
