package engine

import (
	"sort"

	"ds2/internal/metrics"
)

// IntervalStats is what Collect returns: everything observed since the
// previous Collect, in the one record every job hands its controller.
// Busy reports that the job was paused for redeployment at collection
// time.
type IntervalStats = metrics.Observation

// Collect closes the current observation interval: it materializes
// per-instance windows from the counters, resets them, and returns the
// interval's statistics.
func (e *Engine) Collect() IntervalStats {
	d := e.now - e.intervalStart
	out := IntervalStats{
		Start:                e.intervalStart,
		End:                  e.now,
		Busy:                 e.paused,
		SourceObserved:       make(map[string]float64),
		TargetRates:          e.TargetRates(),
		BackpressureFraction: make(map[string]float64),
		Parallelism:          e.Parallelism(),
		Workers:              e.workers,
	}
	if d <= 0 {
		return out
	}
	for _, s := range e.ops {
		occ := 0.0
		for k := range s.instances {
			inst := &s.instances[k]
			if e.cfg.QueueCapacity > 0 {
				if o := inst.queue.count / e.cfg.QueueCapacity; o > occ {
					occ = o
				}
			}
			shares := 1
			if e.cfg.Mode == ModeTimely && !s.isSource {
				// Report one window per worker: every worker hosts
				// one instance of each operator (§4.3), and the
				// processor-sharing budget spreads evenly.
				shares = e.workers
			}
			for sh := 0; sh < shares; sh++ {
				w := e.buildWindow(s, inst, d, shares)
				w.ID = metrics.InstanceID{Operator: s.name, Index: k*shares + sh}
				out.Windows = append(out.Windows, w)
			}
			inst.processed, inst.pushed, inst.useful = 0, 0, 0
			inst.waitIn, inst.waitOut, inst.serExtra = 0, 0, 0
		}
		if !s.isSource {
			out.BackpressureFraction[s.name] = clamp(s.bpTime/d, 0, 1)
			s.bpTime = 0
			if occ >= e.cfg.BackpressureThreshold {
				out.Backpressured = append(out.Backpressured, s.name)
			}
		}
		if s.isSource {
			out.SourceObserved[s.name] = s.emitted / d
			s.emitted = 0
		}
	}
	sort.Strings(out.Backpressured)
	out.Latencies = e.latencies
	e.latencies = nil
	out.EpochLatencies = e.epochLats
	e.epochLats = nil
	e.intervalStart = e.now
	return out
}

// buildWindow converts an instance's counters into one WindowMetrics,
// splitting useful time into the deser/proc/ser activities by the
// spec's fractions. shares > 1 divides everything evenly (Timely's
// per-worker reporting).
func (e *Engine) buildWindow(s *opState, inst *instance, d float64, shares int) metrics.WindowMetrics {
	f := 1.0 / float64(shares)
	useful := inst.useful * f
	if useful > d {
		useful = d // float safety: Wu <= W
	}
	w := metrics.WindowMetrics{
		Window:        d,
		Processed:     inst.processed * f,
		Pushed:        inst.pushed * f,
		WaitingInput:  clamp(inst.waitIn*f, 0, d),
		WaitingOutput: clamp(inst.waitOut*f, 0, d),
	}
	if s.isSource {
		w.Serialization = clamp(inst.serExtra*f, 0, useful)
		return w
	}
	deser := useful * s.spec.DeserFrac
	ser := useful * s.spec.SerFrac
	w.Deserialization = deser
	w.Serialization = ser
	w.Processing = useful - deser - ser
	return w
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// RunInterval advances the simulation by d seconds and collects the
// interval's statistics — the harness's main loop primitive.
func (e *Engine) RunInterval(d float64) IntervalStats {
	e.Run(d)
	return e.Collect()
}

// Snapshot aggregates interval stats into the policy's input. In
// Timely mode the current parallelism passed to the policy should be
// the per-worker view (every operator at parallelism == workers);
// stats windows already reflect that split.
func Snapshot(st IntervalStats) (metrics.Snapshot, error) { return st.Snapshot() }

// LatencyQuantile computes the q-quantile (0..1) of weighted latency
// samples. It returns 0 when there are no samples.
func LatencyQuantile(samples []LatencySample, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]LatencySample(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i].Latency < s[j].Latency })
	total := 0.0
	for _, x := range s {
		total += x.Weight
	}
	if total <= 0 {
		return 0
	}
	target := q * total
	cum := 0.0
	for _, x := range s {
		cum += x.Weight
		if cum >= target {
			return x.Latency
		}
	}
	return s[len(s)-1].Latency
}

// EpochQuantile computes the q-quantile of epoch latencies.
func EpochQuantile(eps []EpochLatency, q float64) float64 {
	if len(eps) == 0 {
		return 0
	}
	ls := make([]float64, len(eps))
	for i, e := range eps {
		ls[i] = e.Latency
	}
	sort.Float64s(ls)
	idx := int(q * float64(len(ls)-1))
	return ls[idx]
}
