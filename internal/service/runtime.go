package service

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"ds2/internal/controlloop"
	"ds2/internal/core"
	"ds2/internal/dataflow"
	"ds2/internal/metrics"
)

// Report is one instrumentation delivery from a running job instance
// (or its metrics sidecar) to the scaling service, covering the
// job-time span [Start, End): the same record a Runtime hands an
// in-process Controller, JSON-encoded. Reports may be finer-grained
// than the policy interval; the service merges them until one
// interval's worth of coverage has arrived.
type Report = metrics.Observation

// validateReport checks the report's structural invariants against the
// job's graph.
func validateReport(r Report, g *dataflow.Graph) error {
	if !(r.End > r.Start) {
		return fmt.Errorf("service: report span [%v, %v) is empty", r.Start, r.End)
	}
	for _, w := range r.Windows {
		if _, ok := g.Lookup(w.ID.Operator); !ok {
			return fmt.Errorf("service: report window for unknown operator %q", w.ID.Operator)
		}
		if err := w.Validate(); err != nil {
			return err
		}
	}
	for src := range r.TargetRates {
		op, ok := g.Lookup(src)
		if !ok || op.Role != dataflow.RoleSource {
			return fmt.Errorf("service: target rate for non-source %q", src)
		}
	}
	if r.Parallelism != nil {
		if err := r.Parallelism.Validate(g); err != nil {
			return err
		}
	}
	return nil
}

// ActionEnvelope is a scaling command in flight between the service
// and the engine: the paper's "rescale via the engine's API" edge of
// Fig. 5. Seq orders actions within one job; the engine acknowledges
// completion of the savepoint-and-restore cycle with the same Seq.
type ActionEnvelope struct {
	Seq    int                  `json:"seq"`
	Kind   string               `json:"kind"` // rescale|rollback
	New    dataflow.Parallelism `json:"new"`
	Old    dataflow.Parallelism `json:"old,omitempty"`
	Reason string               `json:"reason,omitempty"`
}

// action is the envelope as the core.Action it was built from (Apply).
func (e ActionEnvelope) action() *core.Action {
	kind := core.ActionRescale
	if e.Kind == core.ActionRollback.String() {
		kind = core.ActionRollback
	}
	return &core.Action{Kind: kind, New: e.New, Old: e.Old, Reason: e.Reason}
}

// ErrBacklogged is returned by Ingest when the job's report buffer is
// full — the decision loop has fallen behind the reporters and the
// caller should retry after backing off.
var ErrBacklogged = errors.New("service: report buffer full")

// ErrStaleAck is returned by Ack when the sequence number does not
// match the pending action (already acked, superseded, or never
// issued) — a state conflict, as opposed to a malformed request.
var ErrStaleAck = errors.New("service: ack does not match pending action")

// RemoteRuntime implements controlloop.Runtime across the network
// boundary: the Controller that drives it lives in the scaling
// service, while the job it "advances" runs elsewhere and communicates
// only through Ingest (metrics in) and WaitDecision/Ack (actions out).
//
//   - Advance blocks until ingested reports cover one policy interval
//     of job time, then merges them into a single Observation. This is
//     the loop's real wall-clock pacing: the remote job's reporting
//     cadence, not a timer, paces decisions.
//   - Apply does not rescale anything itself — it parks the action in
//     a mailbox for the engine to poll, and every subsequent interval
//     is observed Busy until the engine acks the redeployment,
//     mirroring a savepoint-and-restore cycle that spans metric
//     intervals (Heron in §5.2). An engine that settles the restart
//     synchronously acks before its next report and never produces a
//     Busy interval, matching the Flink-style integration.
//
// Each non-busy interval's aggregated snapshot is published to the
// job's bounded metrics.Repository — the metrics repository of Fig. 5,
// which the HTTP API exposes for observability.
type RemoteRuntime struct {
	graph *dataflow.Graph
	repo  *metrics.Repository

	mu sync.Mutex
	// notify is closed and replaced on every state change — a
	// broadcast that, unlike sync.Cond, cannot lose a wakeup to a
	// timer racing the wait (receivers capture the channel under mu;
	// a generation closed before they select is ready immediately).
	notify chan struct{}

	closed bool
	// queue holds ingested, not-yet-consumed reports; queued is their
	// total job-time coverage. maxQueue bounds the buffer. watermark
	// is the highest job time ingested so far: reports must move
	// forward (gaps are fine — a settling redeployment discards job
	// time — but overlaps would double-count windows, e.g. a reporter
	// retrying a delivery whose response got lost).
	queue     []Report
	queued    float64
	maxQueue  int
	watermark float64

	cur     dataflow.Parallelism
	workers int

	pending   *ActionEnvelope // unacked action, nil when idle
	seq       int             // last issued action sequence number
	intervals int             // policy intervals fully decided so far

	// spPending is the unacknowledged savepoint request the engine is
	// expected to execute (0 when none); spSeq numbers requests. A
	// savepoint is a pure engine-side operation — unlike a rescale it
	// does not make intervals Busy: the engine's drain/restore shows up
	// in the instrumentation it reports, not as a service-side state.
	spPending int
	spSeq     int
}

// NewRemoteRuntime creates the runtime for one registered job.
// maxQueue bounds the ingestion buffer (reports, not windows);
// values < 1 default to 64. repo receives one aggregated snapshot per
// non-busy interval; it may be nil.
func NewRemoteRuntime(g *dataflow.Graph, initial dataflow.Parallelism, repo *metrics.Repository, maxQueue int) *RemoteRuntime {
	if maxQueue < 1 {
		maxQueue = 64
	}
	return &RemoteRuntime{
		graph:    g,
		repo:     repo,
		maxQueue: maxQueue,
		cur:      initial.Clone(),
		notify:   make(chan struct{}),
	}
}

// signalLocked wakes every current waiter. Callers hold r.mu.
func (r *RemoteRuntime) signalLocked() {
	close(r.notify)
	r.notify = make(chan struct{})
}

// Ingest accepts one report into the buffer. It returns ErrBacklogged
// when the buffer is full and ErrStopped when the job was shut down.
func (r *RemoteRuntime) Ingest(rep Report) error {
	if err := validateReport(rep, r.graph); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return controlloop.ErrStopped
	}
	if len(r.queue) >= r.maxQueue {
		return ErrBacklogged
	}
	// Tolerance scaled to the span absorbs float noise on boundaries
	// without letting a retried duplicate slip through.
	if rep.Start < r.watermark-rep.Span()*1e-9 {
		return fmt.Errorf("service: report [%v, %v) overlaps already-ingested job time (watermark %v): duplicate or out-of-order delivery",
			rep.Start, rep.End, r.watermark)
	}
	r.watermark = rep.End
	r.queue = append(r.queue, rep)
	r.queued += rep.Span()
	r.signalLocked()
	return nil
}

// Advance blocks until the buffered reports cover d seconds of job
// time (or the runtime is closed), consumes them, and merges them into
// one Observation.
func (r *RemoteRuntime) Advance(d float64) (controlloop.Observation, error) {
	// Tolerate float noise in report spans: a report covering
	// 59.999999996 s satisfies a 60 s interval.
	need := d * (1 - 1e-9)
	r.mu.Lock()
	for r.queued < need && !r.closed {
		ch := r.notify
		r.mu.Unlock()
		<-ch
		r.mu.Lock()
	}
	if r.queued < need {
		r.mu.Unlock()
		return controlloop.Observation{}, controlloop.ErrStopped
	}
	var taken []Report
	covered := 0.0
	// The length guard protects against float drift between the
	// incremental r.queued accumulator and the true sum of spans: an
	// unguarded r.queue[0] here would panic the job's decision-loop
	// goroutine — and with it the whole daemon.
	for covered < need && len(r.queue) > 0 {
		rep := r.queue[0]
		r.queue = r.queue[1:]
		covered += rep.Span()
		taken = append(taken, rep)
	}
	r.queued -= covered
	if len(r.queue) == 0 {
		// Resync the accumulator whenever the buffer drains so drift
		// cannot build up over a long-running job.
		r.queued = 0
	} else if r.queued < 0 {
		r.queued = 0
	}
	busyAction := r.pending != nil
	cur := r.cur.Clone()
	workers := r.workers
	r.mu.Unlock()

	obs, err := mergeReports(taken, cur, workers)
	if err != nil {
		return controlloop.Observation{}, err
	}
	// An interval is busy while the engine still owes an ack for an
	// issued action — the job is mid-redeployment from the service's
	// point of view even if individual reports did not flag it.
	obs.Busy = obs.Busy || busyAction
	if !obs.Busy {
		// Built here even though the autoscaler may build it again: a
		// malformed window must fail the interval whichever policy runs.
		snap, err := obs.Snapshot()
		if err != nil {
			return controlloop.Observation{}, err
		}
		if r.repo != nil {
			r.repo.Publish(snap)
		}
	}
	return obs, nil
}

// mergeReports combines consecutive reports into one Observation
// covering their union: one window per instance, last-value semantics
// for deployment state and target rates, time-weighted means for rates
// and signal fractions, concatenation for latency samples. cur and
// workers stand in for a deployment the last report did not state.
func mergeReports(taken []Report, cur dataflow.Parallelism, workers int) (controlloop.Observation, error) {
	if len(taken) == 0 {
		return controlloop.Observation{}, errors.New("service: no reports to merge")
	}
	last := taken[len(taken)-1]
	// The common case — one report per policy interval — passes
	// signal values through bit-exact instead of taking the weighted
	// mean (whose multiply-then-divide round trip is not an identity in
	// floating point). Decision parity with the in-process loop depends
	// on this.
	obs := last
	if len(taken) > 1 {
		obs = controlloop.Observation{Start: taken[0].Start, End: last.End, TargetRates: last.TargetRates}
		mergeSignals(&obs, taken)
	}
	obs.Parallelism, obs.Workers = cur, workers
	if last.Parallelism != nil {
		obs.Parallelism = last.Parallelism.Clone()
	}
	if last.Workers > 0 {
		obs.Workers = last.Workers
	}
	var all []metrics.WindowMetrics
	for _, rep := range taken {
		all = append(all, rep.Windows...)
	}
	var err error
	obs.Windows, err = metrics.MergeByInstance(all)
	return obs, err
}

// mergeSignals fills obs's busy flag, rates, backpressure signals and
// latency samples from several reports.
func mergeSignals(obs *controlloop.Observation, taken []Report) {
	total := 0.0
	srcObs := make(map[string]float64)
	bpFrac := make(map[string]float64)
	bpSet := make(map[string]bool)
	for _, rep := range taken {
		span := rep.Span()
		total += span
		obs.Busy = obs.Busy || rep.Busy
		for s, v := range rep.SourceObserved {
			srcObs[s] += v * span
		}
		for op, f := range rep.BackpressureFraction {
			bpFrac[op] += f * span
		}
		for _, op := range rep.Backpressured {
			bpSet[op] = true
		}
		obs.Latencies = append(obs.Latencies, rep.Latencies...)
		obs.EpochLatencies = append(obs.EpochLatencies, rep.EpochLatencies...)
	}
	if total > 0 {
		if len(srcObs) > 0 {
			obs.SourceObserved = make(map[string]float64, len(srcObs))
			for s, v := range srcObs {
				obs.SourceObserved[s] = v / total
			}
		}
		if len(bpFrac) > 0 {
			obs.BackpressureFraction = make(map[string]float64, len(bpFrac))
			for op, v := range bpFrac {
				obs.BackpressureFraction[op] = v / total
			}
		}
	}
	for op := range bpSet {
		obs.Backpressured = append(obs.Backpressured, op)
	}
	sort.Strings(obs.Backpressured)
}

// Apply parks the action in the mailbox for the engine to poll. The
// runtime reports Busy intervals until the engine acks.
func (r *RemoteRuntime) Apply(act *core.Action) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return controlloop.ErrStopped
	}
	r.seq++
	r.pending = &ActionEnvelope{
		Seq:    r.seq,
		Kind:   act.Kind.String(),
		New:    act.New.Clone(),
		Old:    act.Old.Clone(),
		Reason: act.Reason,
	}
	r.signalLocked()
	return nil
}

// Parallelism returns the configuration the service believes is
// deployed: the initial spec until the first ack, then whatever the
// engine last acked.
func (r *RemoteRuntime) Parallelism() dataflow.Parallelism {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cur.Clone()
}

// NoteInterval records that the decision loop finished one interval
// (observe + apply), waking long-pollers. The server's OnInterval hook
// calls it, making WaitDecision's "the service has decided on
// everything you reported" contract precise.
func (r *RemoteRuntime) NoteInterval() {
	r.mu.Lock()
	r.intervals++
	r.signalLocked()
	r.mu.Unlock()
}

// Intervals returns the number of fully decided policy intervals.
func (r *RemoteRuntime) Intervals() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.intervals
}

// WaitDecision long-polls for the engine: it returns as soon as an
// action or a savepoint request is pending or the decision loop has
// completed more intervals than the caller has seen, and otherwise
// after the timeout. It returns the pending action (nil if none) and
// the decided-interval count; the poll handler reads the pending
// savepoint separately.
func (r *RemoteRuntime) WaitDecision(seen int, timeout time.Duration) (*ActionEnvelope, int) {
	timer := time.NewTimer(timeout)
	defer timer.Stop()

	r.mu.Lock()
	for r.pending == nil && r.spPending == 0 && r.intervals <= seen && !r.closed {
		ch := r.notify
		r.mu.Unlock()
		select {
		case <-ch:
		case <-timer.C:
			r.mu.Lock()
			act, n := r.pendingLocked(), r.intervals
			r.mu.Unlock()
			return act, n
		}
		r.mu.Lock()
	}
	act, n := r.pendingLocked(), r.intervals
	r.mu.Unlock()
	return act, n
}

// Pending returns the unacked action, if any, without waiting.
func (r *RemoteRuntime) Pending() *ActionEnvelope {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pendingLocked()
}

func (r *RemoteRuntime) pendingLocked() *ActionEnvelope {
	if r.pending == nil {
		return nil
	}
	cp := *r.pending
	cp.New = cp.New.Clone()
	cp.Old = cp.Old.Clone()
	return &cp
}

// RequestSavepoint parks a savepoint request for the engine to poll —
// the durable-checkpoint counterpart of Apply's rescale mailbox. One
// request is in flight at a time: asking again while one is pending
// returns the pending sequence number rather than queueing a second.
func (r *RemoteRuntime) RequestSavepoint() (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0, controlloop.ErrStopped
	}
	if r.spPending != 0 {
		return r.spPending, nil
	}
	r.spSeq++
	r.spPending = r.spSeq
	r.signalLocked()
	return r.spPending, nil
}

// PendingSavepoint returns the unacknowledged savepoint request's
// sequence number, or 0.
func (r *RemoteRuntime) PendingSavepoint() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spPending
}

// AckSavepoint settles a savepoint request (whether the engine
// succeeded or failed — the outcome is the server's record, not the
// runtime's). A stale or unknown seq is rejected.
func (r *RemoteRuntime) AckSavepoint(seq int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.spPending == 0 || r.spPending != seq {
		return fmt.Errorf("%w: savepoint seq %d", ErrStaleAck, seq)
	}
	r.spPending = 0
	r.signalLocked()
	return nil
}

// Ack reports that the engine completed the redeployment for the
// action with the given sequence number. applied is the configuration
// the engine actually deployed; nil means the action's target. A stale
// or unknown seq is rejected.
func (r *RemoteRuntime) Ack(seq int, applied dataflow.Parallelism) error {
	if applied != nil {
		if err := applied.Validate(r.graph); err != nil {
			return err
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.pending == nil || r.pending.Seq != seq {
		return fmt.Errorf("%w: seq %d", ErrStaleAck, seq)
	}
	if applied != nil {
		r.cur = applied.Clone()
	} else {
		r.cur = r.pending.New.Clone()
	}
	r.pending = nil
	r.signalLocked()
	return nil
}

// Close shuts the runtime down: Advance returns ErrStopped once the
// buffer cannot satisfy another interval, Ingest rejects new reports,
// and pollers wake.
func (r *RemoteRuntime) Close() {
	r.mu.Lock()
	r.closed = true
	r.signalLocked()
	r.mu.Unlock()
}
