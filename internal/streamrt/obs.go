package streamrt

import (
	"time"

	"ds2/internal/metrics"
	"ds2/internal/obs"
)

// flushReason classifies why an exchange batch left the sender — the
// batching policy's observable behaviour. Size flushes dominate a
// saturated pipeline; a drift toward interval/idle flushes means the
// job is running under its batch budget.
type flushReason int

const (
	flushSize     flushReason = iota // batch reached Config.BatchSize
	flushDeadline                    // FlushInterval passed
	flushIdle                        // sender about to block on input
	flushPacing                      // source about to sleep for pacing
	flushExit                        // drain at teardown
	numFlushReasons
)

var flushReasonNames = [numFlushReasons]string{"size", "deadline", "idle", "pacing", "exit"}

// stallThreshold separates a backpressure stall from the nanoseconds
// an uncontended channel send costs: a send blocked this long was
// genuinely waiting on a full downstream queue.
const stallThreshold = 500 * time.Microsecond

// latencySampleStride is the exporter's record-latency sampling rate:
// sinks observe every 1024th record into the histogram. Power of two
// so the hot-path check is one mask; at 4M rec/s that is ~4k
// observations/s of a lock-free histogram — invisible next to the
// exchange itself, and still thousands of samples per policy interval.
const latencySampleStride = 1024

// timePhases are the §3 useful-time split plus the two waiting
// activities, exported as fractions of the observation window.
var timePhases = [5]string{"deserialization", "processing", "serialization", "waiting_input", "waiting_output"}

// jobObs is a Job's pre-resolved metric handles. Everything the hot
// path touches is resolved here, once, at job construction — workers
// never take the registry lock. A nil *jobObs (Config.Metrics unset)
// disables telemetry entirely; the hot path pays one nil check per
// batch.
type jobObs struct {
	reg *obs.Registry

	// Hot-path handles (atomic adds only).
	flushBatches [numFlushReasons]*obs.Counter
	flushRecords *obs.Counter
	stalls       *obs.Counter
	latHists     map[string]*obs.Histogram // per sink operator

	// rescale owns the reconfiguration-cost instrumentation: the trace
	// ring behind GET /jobs/{id}/rescales and the phase/downtime
	// histograms. Touched only while rescaling.
	rescale *rescaleObs

	// Collect-path handles, per operator.
	clamped     map[string]*obs.Counter
	instances   map[string]*obs.Gauge
	fractions   map[string][len(timePhases)]*obs.Gauge
	trueProc    map[string]*obs.Gauge
	trueOut     map[string]*obs.Gauge
	obsProc     map[string]*obs.Gauge
	obsOut      map[string]*obs.Gauge
	bpFraction  map[string]*obs.Gauge
	srcTarget   map[string]*obs.Gauge
	srcObserved map[string]*obs.Gauge
}

func newJobObs(reg *obs.Registry, pipe *Pipeline, rescales func() int) *jobObs {
	o := &jobObs{
		reg:         reg,
		latHists:    make(map[string]*obs.Histogram),
		clamped:     make(map[string]*obs.Counter),
		instances:   make(map[string]*obs.Gauge),
		fractions:   make(map[string][len(timePhases)]*obs.Gauge),
		trueProc:    make(map[string]*obs.Gauge),
		trueOut:     make(map[string]*obs.Gauge),
		obsProc:     make(map[string]*obs.Gauge),
		obsOut:      make(map[string]*obs.Gauge),
		bpFraction:  make(map[string]*obs.Gauge),
		srcTarget:   make(map[string]*obs.Gauge),
		srcObserved: make(map[string]*obs.Gauge),
	}
	o.rescale = newRescaleObs(reg)
	for r := flushReason(0); r < numFlushReasons; r++ {
		o.flushBatches[r] = reg.Counter("streamrt_batch_flushes_total",
			"Exchange batches flushed, by what triggered the flush.",
			obs.L("reason", flushReasonNames[r]))
	}
	o.flushRecords = reg.Counter("streamrt_flushed_records_total",
		"Records carried by flushed exchange batches (flushed_records/batch_flushes = mean batch size).")
	o.stalls = reg.Counter("streamrt_backpressure_stalls_total",
		"Batch sends that blocked on a full downstream queue.")
	reg.CounterFunc("streamrt_rescales_total", "Redeployments performed by the job.",
		func() float64 { return float64(rescales()) })

	g := pipe.graph
	for i := 0; i < g.NumOperators(); i++ {
		op := g.Operator(i)
		name := op.Name
		o.clamped[name] = reg.Counter("streamrt_window_clamped_total",
			"Instance windows whose useful time overshot the window beyond the jitter tolerance and was scaled to fit.",
			obs.L("operator", name))
		o.instances[name] = reg.Gauge("streamrt_operator_instances",
			"Deployed parallel instances per operator.", obs.L("operator", name))
		var fr [len(timePhases)]*obs.Gauge
		for p, phase := range timePhases {
			fr[p] = reg.Gauge("streamrt_time_fraction",
				"Fraction of the last observation window the operator's instances spent per activity (§3 time splits).",
				obs.L("operator", name), obs.L("phase", phase))
		}
		o.fractions[name] = fr
		o.trueProc[name] = reg.Gauge("streamrt_true_rate",
			"Per-operator true rate over the last window: records per second of useful time, summed over instances (Eq. 5-6).",
			obs.L("operator", name), obs.L("kind", "processing"))
		o.trueOut[name] = reg.Gauge("streamrt_true_rate",
			"Per-operator true rate over the last window: records per second of useful time, summed over instances (Eq. 5-6).",
			obs.L("operator", name), obs.L("kind", "output"))
		o.obsProc[name] = reg.Gauge("streamrt_observed_rate",
			"Per-operator observed rate over the last window: records per second of wall clock, summed over instances.",
			obs.L("operator", name), obs.L("kind", "processing"))
		o.obsOut[name] = reg.Gauge("streamrt_observed_rate",
			"Per-operator observed rate over the last window: records per second of wall clock, summed over instances.",
			obs.L("operator", name), obs.L("kind", "output"))
		o.bpFraction[name] = reg.Gauge("streamrt_backpressure_fraction",
			"Largest fraction of the last window any upstream instance spent blocked pushing into this operator.",
			obs.L("operator", name))
		if _, isSrc := pipe.sources[name]; isSrc {
			o.srcTarget[name] = reg.Gauge("streamrt_source_target_rate",
				"Target rate of the source at the last window cut, records/s.",
				obs.L("source", name))
			o.srcObserved[name] = reg.Gauge("streamrt_source_observed_rate",
				"Achieved output rate of the source over the last window, records/s.",
				obs.L("source", name))
		}
	}
	return o
}

// latHist resolves (once per sink operator) the record-latency
// histogram a sink instance records into. Buckets span 100µs..~1.6s.
func (o *jobObs) latHist(op string) *obs.Histogram {
	h, ok := o.latHists[op]
	if !ok {
		h = o.reg.Histogram("streamrt_record_latency_seconds",
			"Source-to-sink record latency, sampled every 1024th record at the sink.",
			obs.HistogramOpts{Min: 1e-4, Growth: 2, Buckets: 14},
			obs.L("operator", op))
		o.latHists[op] = h
	}
	return h
}

// flushed records one batch flush on the hot path: two atomic adds,
// plus a third when the send stalled on backpressure.
func (o *jobObs) flushed(reason flushReason, records int, blocked time.Duration) {
	o.flushBatches[reason].Inc()
	o.flushRecords.Add(uint64(records))
	if blocked >= stallThreshold {
		o.stalls.Inc()
	}
}

// observeInterval publishes one cut window's per-operator signals.
// Called from Collect with the interval already built; len(iv.Windows)
// can be 0 for a degenerate span, in which case gauges keep their last
// values.
func (o *jobObs) observeInterval(iv Interval) {
	span := iv.End - iv.Start
	if span <= 0 || len(iv.Windows) == 0 {
		return
	}
	for op, p := range iv.Parallelism {
		if g := o.instances[op]; g != nil {
			g.Set(float64(p))
		}
	}
	// iv.Windows is sorted by (operator, index); fold each operator's
	// run of windows into its gauges.
	for lo := 0; lo < len(iv.Windows); {
		hi := lo
		op := iv.Windows[lo].ID.Operator
		var phases [len(timePhases)]float64
		for hi < len(iv.Windows) && iv.Windows[hi].ID.Operator == op {
			w := iv.Windows[hi]
			phases[0] += w.Deserialization
			phases[1] += w.Processing
			phases[2] += w.Serialization
			phases[3] += w.WaitingInput
			phases[4] += w.WaitingOutput
			hi++
		}
		wall := span * float64(hi-lo)
		if fr, ok := o.fractions[op]; ok {
			for p := range phases {
				fr[p].Set(phases[p] / wall)
			}
		}
		if rates, err := metrics.AggregateOperator(iv.Windows[lo:hi]); err == nil {
			o.trueProc[op].Set(rates.TrueProcessing)
			o.trueOut[op].Set(rates.TrueOutput)
			o.obsProc[op].Set(rates.ObservedProcessing)
			o.obsOut[op].Set(rates.ObservedOutput)
		}
		lo = hi
	}
	// Explicitly zero operators absent from the backpressure map:
	// gauges hold their last value, and a bottleneck that cleared must
	// read 0, not its old fraction.
	for op, g := range o.bpFraction {
		g.Set(iv.BackpressureFraction[op])
	}
	for src, g := range o.srcTarget {
		g.Set(iv.TargetRates[src])
	}
	for src, g := range o.srcObserved {
		g.Set(iv.SourceObserved[src])
	}
}
