package streamrt

import (
	"fmt"
	"math"
	"testing"
	"time"
)

const (
	testFlush = 2 * time.Millisecond // Config's default FlushInterval
	testBatch = 256                  // Config's default BatchSize
	// emitCost is what the synthetic clock charges a record's generation
	// and emission: a 10 M rec/s source, so the flat-out schedule
	// (1e12 rec/s) is out of reach and every other rate is not.
	emitCost = 100 * time.Nanosecond
)

// simSource drives a pacer the way runSource does, on a clock it moves
// itself: a sleep wakes oversleep after it was asked to, emitting n
// records takes n·emitCost, nothing else takes time.
type simSource struct {
	t         *testing.T
	p         pacer
	start     time.Time
	now       time.Time
	oversleep time.Duration

	emitted int64
	sleeps  int
	dropped time.Duration // lateness beyond maxDebt, summed over the wakes
}

func newSimSource(t *testing.T, oversleep time.Duration) *simSource {
	start := time.Unix(1_700_000_000, 0)
	return &simSource{t: t, p: pacer{next: start}, start: start, now: start, oversleep: oversleep}
}

// far is an until for a source that does catch up.
var far = time.Unix(1_800_000_000, 0)

// catchUp steps the pacer until it asks for a sleep and returns that
// sleep and the records emitted on the way. A source that is never
// caught up (flat out) stops at until.
func (s *simSource) catchUp(per float64, burst int64, until time.Time) (wait time.Duration, emitted int64) {
	s.t.Helper()
	for s.now.Before(until) {
		n, wait := s.p.due(s.now, per, burst, testBatch)
		if n == 0 {
			if wait <= 0 {
				s.t.Fatalf("nothing due and nothing to wait for (wait %v)", wait)
			}
			return wait, emitted
		}
		if n < burst || n > testBatch {
			s.t.Fatalf("step emits %d records, want between the burst (%d) and a batch (%d)", n, burst, testBatch)
		}
		emitted += n
		s.emitted += n
		s.now = s.now.Add(time.Duration(n) * emitCost)
	}
	return 0, emitted
}

// sleep is a pacing sleep of wait that wakes oversleep late.
func (s *simSource) sleep(wait time.Duration) {
	s.sleeps++
	s.now = s.now.Add(wait + s.oversleep)
	if s.oversleep > maxDebt {
		s.dropped += s.oversleep - maxDebt
	}
}

// behind is how many records the schedule, less what was dropped from
// it, is ahead of the emitted count.
func (s *simSource) behind(per float64) float64 {
	return float64(s.now.Sub(s.start)-s.dropped)/per - float64(s.emitted)
}

func TestPacerHoldsTheScheduleOnASyntheticClock(t *testing.T) {
	rates := []float64{100, 400, 850, 2e5, 1e6}
	oversleeps := []time.Duration{0, 300 * time.Microsecond, time.Millisecond, 7 * time.Millisecond}
	for _, rate := range rates {
		for _, nsrc := range []int{1, 3} {
			for _, oversleep := range oversleeps {
				t.Run(fmt.Sprintf("rate=%g/nsrc=%d/oversleep=%v", rate, nsrc, oversleep), func(t *testing.T) {
					per, burst := cadence(rate, nsrc, testFlush, testBatch)
					s := newSimSource(t, oversleep)
					end := s.start.Add(time.Second)
					for s.now.Before(end) {
						wait, _ := s.catchUp(per, burst, far)
						// Caught up: the emitted count is the schedule
						// (less what lateness beyond the bound dropped
						// from it) to within the burst now accruing. A
						// period above the bound (100 and 400 rec/s) is
						// no exception — trap 1.
						if b := s.behind(per); b < -1e-3 || b >= float64(burst)+1e-3 {
							t.Fatalf("at +%v, %d records emitted: %.3f behind the schedule, want within [0, %d)",
								s.now.Sub(s.start), s.emitted, b, burst)
						}
						s.sleep(wait)
					}
					if s.sleeps == 0 {
						t.Fatal("a reachable rate never slept")
					}
					// Over the second: the instance's share of the rate,
					// less dropped·rate — nothing when the timer's
					// lateness stays within the bound.
					elapsed := s.now.Sub(s.start)
					want := float64(elapsed-s.dropped) / per
					if oversleep <= maxDebt {
						if s.dropped != 0 {
							t.Fatalf("dropped %v of schedule with oversleep within the bound", s.dropped)
						}
						want = rate / float64(nsrc) * elapsed.Seconds()
					}
					slack := float64(burst) + float64(oversleep)/per + 1
					if got := float64(s.emitted); math.Abs(got-want) > slack {
						t.Fatalf("emitted %v records in %v, want %.1f ± %.1f", got, elapsed, want, slack)
					}
				})
			}
		}
	}
}

// The closed-loop schedule (1e12 rec/s; per is about 1e-3 ns, below a
// Duration's resolution) is always behind: it must never sleep, never
// step outside a batch and never overflow the arithmetic.
func TestPacerFlatOutNeitherSleepsNorOverflows(t *testing.T) {
	for _, nsrc := range []int{1, 3} {
		per, burst := cadence(1e12, nsrc, testFlush, testBatch)
		if burst != testBatch {
			t.Fatalf("nsrc=%d: burst %d, want a batch", nsrc, burst)
		}
		s := newSimSource(t, 0)
		end := s.start.Add(100 * time.Millisecond)
		wait, _ := s.catchUp(per, burst, end) // fatal on a step outside [burst, batch]
		if wait != 0 || s.now.Before(end) {
			t.Fatalf("nsrc=%d: flat-out source asked to sleep %v at +%v", nsrc, wait, s.now.Sub(s.start))
		}
		if want := int64(end.Sub(s.start) / emitCost); s.emitted < want || s.emitted > want+testBatch {
			t.Fatalf("nsrc=%d: emitted %d records, want the %d the emit cost allows", nsrc, s.emitted, want)
		}
		if lag := s.now.Sub(s.p.next); lag < 0 || lag > maxDebt+time.Millisecond {
			t.Fatalf("nsrc=%d: cursor %v behind the clock, want within the debt bound", nsrc, lag)
		}
	}
}

// Trap 2: time blocked on output — in the flush before a pacing sleep as
// much as inside the emit loop — is slid out of the schedule, not
// counted as lateness: a backpressured source resumes owing the burst
// that fell due and its timer's oversleep, not a debt bound's worth of
// catch-up on every step.
func TestPacerBlockedTimeIsNeverCaughtUpOn(t *testing.T) {
	const blockedFor = 300 * time.Millisecond
	for _, rate := range []float64{100, 400, 850, 2e5, 1e6} {
		for _, oversleep := range []time.Duration{0, time.Millisecond, 7 * time.Millisecond} {
			per, burst := cadence(rate, 1, testFlush, testBatch)
			s := newSimSource(t, oversleep)
			block := func() {
				s.now = s.now.Add(blockedFor)
				s.p.blocked(blockedFor)
			}
			wait, _ := s.catchUp(per, burst, far)
			s.sleep(wait)
			_, inLoop := s.catchUp(per, burst, far)  // a burst and the oversleep's worth ...
			block()                                  // ... its last flush blocked ...
			wait, more := s.catchUp(per, burst, far) // ... and nothing is owed for that.
			block()                                  // The flush before the sleep blocks too.
			s.sleep(wait)
			_, resumed := s.catchUp(per, burst, far)
			// What a wake owes is its own lateness, none of the blocked
			// time — and what falls due while that is being emitted.
			owed := (float64(burst) + float64(min(oversleep, maxDebt))/per) / (1 - float64(emitCost)/per)
			for _, got := range []int64{inLoop + more, resumed} {
				if float64(got) > owed {
					t.Errorf("rate %g oversleep %v: %d records around 300 ms blocked, want at most %.1f (burst + oversleep)",
						rate, oversleep, got, owed)
				}
			}
		}
	}
}

// A rate step that lands in the middle of a sleep armed for the old
// rate is late by the old period under the new one. It owes the burst
// plus the debt bound at the new rate, not the old period's worth.
func TestPacerRateStepMidSleepOwesAtMostTheBound(t *testing.T) {
	s := newSimSource(t, 600*time.Microsecond)
	per, burst := cadence(100, 1, testFlush, testBatch)
	wait, _ := s.catchUp(per, burst, far)
	s.sleep(wait) // 10.6 ms at 100 rec/s ...
	per, burst = cadence(850, 1, testFlush, testBatch)
	_, got := s.catchUp(per, burst, far) // ... is nine periods at 850
	if owed := burst + int64(math.Ceil(maxDebt.Seconds()*850)); got < burst || got > owed {
		t.Fatalf("%d records after a 100 -> 850 step mid-sleep, want between %d and %d", got, burst, owed)
	}
}
