package metrics

import (
	"ds2/internal/dataflow"
	"ds2/internal/obs"
)

// EpochLatency records when a 1-epoch batch of source data finished
// flowing through the dataflow (Timely mode).
type EpochLatency struct {
	Epoch   int64   `json:"epoch"`
	Latency float64 `json:"latency"` // completion − epoch end; >= 0
}

// Observation is the one message an instrumented job sends its scaling
// manager (Fig. 5, §4.1): the per-instance windows of one span of job
// time plus the coarse external signals rule-based controllers
// consume. The simulator's Collect, a live job's window cut and the
// scaling service's merge of ingested reports all produce it; the
// Controller's autoscalers and the service's wire format consume it.
// Its JSON form is the body of POST /jobs/{id}/metrics.
type Observation struct {
	// Start and End delimit the span [Start, End) in seconds of job
	// time. Reports to the scaling service may be finer-grained than
	// the policy interval; the service merges them until one
	// interval's worth of coverage has arrived.
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	// Busy marks a span that ended mid-redeployment; its windows are
	// polluted, so it is recorded but no autoscaler is consulted.
	Busy bool `json:"busy,omitempty"`
	// Windows are the per-instance instrumentation windows.
	Windows []WindowMetrics `json:"windows,omitempty"`
	// TargetRates is the target rate per source at End.
	TargetRates map[string]float64 `json:"target_rates,omitempty"`
	// SourceObserved is the achieved output rate per source over the
	// span — what an external monitor sees.
	SourceObserved map[string]float64 `json:"source_observed,omitempty"`
	// Backpressured lists operators whose input crossed the
	// backpressure threshold, and BackpressureFraction the fraction of
	// the span each spent signaling (the Dhalion inputs; meaningless
	// in Timely mode).
	Backpressured        []string           `json:"backpressured,omitempty"`
	BackpressureFraction map[string]float64 `json:"backpressure_fraction,omitempty"`
	// Parallelism and Workers snapshot the deployment the span ran
	// under.
	Parallelism dataflow.Parallelism `json:"parallelism,omitempty"`
	Workers     int                  `json:"workers,omitempty"`
	// Latencies are weighted per-record latency samples taken at
	// sinks; EpochLatencies are completed-epoch latencies (Timely
	// mode). Both feed the trace's quantile columns.
	Latencies      []LatencySample `json:"latencies,omitempty"`
	EpochLatencies []EpochLatency  `json:"epoch_latencies,omitempty"`
	// Rescales carries the engine's retained rescale span timelines,
	// oldest first. The service merges them into the job's record by
	// trace ID — a timeline first delivered incomplete (its trailing
	// first_record span pending) is replaced once a later report
	// carries the finished version. Served by GET /jobs/{id}/rescales.
	Rescales []obs.TraceView `json:"rescales,omitempty"`
}

// Span returns the job-time coverage of the observation.
func (o Observation) Span() float64 { return o.End - o.Start }

// Snapshot aggregates the windows into the DS2 policy's input. A Busy
// observation yields the zero snapshot. Nothing is cached: the
// aggregation runs when called, so snapshot-blind autoscalers (Dhalion,
// Hold) never pay it, and a caller that needs it twice keeps the result.
func (o Observation) Snapshot() (Snapshot, error) {
	if o.Busy {
		return Snapshot{}, nil
	}
	return BuildSnapshot(o.End, o.Windows, o.TargetRates)
}

// TargetRate sums the target rates of all sources.
func (o Observation) TargetRate() float64 {
	sum := 0.0
	for _, r := range o.TargetRates {
		sum += r
	}
	return sum
}

// AchievedRate sums the observed output rates of all sources.
func (o Observation) AchievedRate() float64 {
	sum := 0.0
	for _, r := range o.SourceObserved {
		sum += r
	}
	return sum
}
