package main

import (
	"math"
	"time"
)

// calibration is the host probe: a fixed arithmetic loop that no change
// to the program under test can move. Every run records how long it
// took (calib_ms in the result file, harness.calib_ms in a traced run),
// so a drifting host can be told from a regression.
//
// It also fills the driver's line. The driver wants every end-to-end
// metric from every workload, refuses a 0 and refuses a time that reads
// the same on every run, while most metrics exist on one or two
// workloads only. A slot the workload does not measure carries ratio:
// the loop's fastest time over the fastest time of the same loop run a
// quarter longer — 0.8 but for timer noise. Both halves see the same
// host, so unlike the spin time itself (36–51 ms on the sizing host) the
// ratio does not follow the host's speed: ten runs spread by about 2%,
// inside the tightest bound.
type calibration struct {
	spinMs float64 // fastest spin of the loop
	ratio  float64 // fastest spin ÷ fastest spin of the loop a quarter longer
}

const calibIters = 20_000_000 // ≈ 40 ms per spin

// spin runs the probe loop for iters iterations and returns how long it
// took, in milliseconds.
func spin(iters int) float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for k := 0; k < iters; k++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	sink += int64(x & 1)
	return ms(time.Since(t0))
}

// calibrate takes the probe: the loop and the same loop a quarter
// longer, alternately, spins times each (9 for a full-size run), keeping
// the fastest of each — interference only ever adds time, so the
// minimum is the steadiest estimate of fixed work, and alternating
// keeps the two under the same conditions.
func calibrate(spins int) calibration {
	a, b := math.Inf(1), math.Inf(1)
	for i := 0; i < spins; i++ {
		a = min(a, spin(calibIters))
		b = min(b, spin(calibIters*5/4))
	}
	return calibration{spinMs: a, ratio: a / b}
}
