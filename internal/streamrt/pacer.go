package streamrt

import "time"

// maxDebt is the lateness a sleeper is forgiven. A timer wakes hundreds
// of µs to ~1 ms late, so a sleep shorter than this is mostly overshoot
// and an overshoot up to this long is the host, not the dataflow: work()
// banks its costs until this much is owed and carries at most this much
// overshoot as credit; a source catches up on at most this much missed
// schedule. One value, because both forgive the same thing.
const maxDebt = 2 * time.Millisecond

// pacer is a source instance's schedule in absolute time. Every record
// scheduled before next has been emitted or forgiven; the k-th record
// after it falls due at next + k·per. It does arithmetic only — the
// caller reads the clock, sleeps and emits — so a synthetic clock can
// drive it (pacer_test.go).
type pacer struct {
	next time.Time
}

// cadence turns an operator's rate into one of its nsrc instances'
// schedule: per nanoseconds between records, and the burst a pacing
// sleep waits for — a flush interval of records, so nothing due waits
// longer than a partial batch may, at least one and at most a batch.
func cadence(rate float64, nsrc int, flush time.Duration, batch int64) (per float64, burst int64) {
	per = float64(nsrc) / rate * float64(time.Second)
	if b := float64(flush) / per; b < float64(batch) {
		return per, max(int64(b), 1)
	}
	return per, batch
}

// due is one pacing step at clock reading now, for per nanoseconds
// between records and bursts of burst records, at most batch a step.
// Either n records are due and the cursor has moved past them, or none
// are and the burst falls due in full after wait. Lateness is measured
// against the instant the burst fell due — against the cursor it would
// count the period itself, and a period above maxDebt would never be
// met — and the part of it beyond maxDebt is dropped from the schedule:
// the no-backlog spout of §5.2.
func (p *pacer) due(now time.Time, per float64, burst, batch int64) (n int64, wait time.Duration) {
	span := time.Duration(float64(burst) * per)
	late := now.Sub(p.next) - span
	if late < 0 {
		return 0, -late
	}
	if late > maxDebt {
		p.next = p.next.Add(late - maxDebt)
		late = maxDebt
	}
	// Clamped in float64: at the flat-out rate per is ~1e-3 ns. At least
	// the burst, which span/per can round below.
	n = max(burst, int64(min(float64(span+late)/per, float64(batch))))
	p.next = p.next.Add(time.Duration(float64(n) * per))
	return n, 0
}

// blocked slides the schedule past d spent waiting for output: what
// fell due while a full queue held the source is suppressed, never
// caught up on.
func (p *pacer) blocked(d time.Duration) {
	p.next = p.next.Add(d)
}
