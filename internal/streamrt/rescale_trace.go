package streamrt

import (
	"fmt"
	"sync/atomic"
	"time"

	"ds2/internal/obs"
)

// The rescale phase vocabulary. The coordinator times drain, snapshot
// and first_record; the local placement's deploy is one restart phase,
// the remote one's adds router_rebuild, transfer (per-worker state
// shipment) and per-worker child spans under drain/transfer/restart. Phase names double as the `phase` label of
// streamrt_rescale_phase_seconds.
const (
	phaseDrain         = "drain"
	phaseSnapshot      = "snapshot"
	phaseRouterRebuild = "router_rebuild"
	phaseTransfer      = "transfer"
	phaseRestart       = "restart"
	phaseFirstRecord   = "first_record"
)

// firstRecordWait bounds how long a rescale trace waits for the new
// deployment to process its first record before giving up and leaving
// the timeline incomplete (a drained-again, stopped, or starved job may
// never produce one).
const firstRecordWait = 30 * time.Second

// rescaleObs owns a job's reconfiguration-cost instrumentation: the
// bounded trace ring served via GET /jobs/{id}/rescales and the two
// cost families. All of it is off the data hot path — rescales are
// rare, so spans may take locks and resolve registry handles freely.
type rescaleObs struct {
	reg      *obs.Registry
	ring     *obs.TraceRing
	downtime *obs.Histogram
}

func newRescaleObs(reg *obs.Registry) *rescaleObs {
	return &rescaleObs{
		reg:  reg,
		ring: obs.NewTraceRing(32),
		downtime: reg.Histogram("streamrt_rescale_downtime_seconds",
			"Rescale downtime: drain start to the first record processed after restart.",
			obs.HistogramOpts{Min: 1e-3, Growth: 2, Buckets: 20}),
	}
}

// phaseHist resolves the per-phase duration histogram. Buckets span
// 100µs..~1.7min.
func (o *rescaleObs) phaseHist(phase string) *obs.Histogram {
	return o.reg.Histogram("streamrt_rescale_phase_seconds",
		"Time spent in each phase of a rescale (drain, snapshot, router_rebuild, transfer, restart, first_record).",
		obs.HistogramOpts{Min: 1e-4, Growth: 2, Buckets: 20},
		obs.L("phase", phase))
}

// rescaleTrace times one rescale against a Trace. A nil *rescaleTrace
// (telemetry off) is fully functional: every method no-ops, so callers
// instrument unconditionally.
type rescaleTrace struct {
	ro *rescaleObs
	t  *obs.Trace
}

// beginTrace starts the trace of the n'th reconfiguration of its kind
// ("rescale" or "savepoint" — one ring holds both, so GET
// /jobs/{id}/rescales shows savepoint timelines alongside rescales)
// and publishes it to the ring immediately, so an in-flight cycle is
// already visible (as an incomplete timeline) to /rescales readers.
func (o *jobObs) beginTrace(kind string, n int) *rescaleTrace {
	if o == nil {
		return nil
	}
	rt := &rescaleTrace{ro: o.rescale, t: obs.NewTrace(fmt.Sprintf("%s-%d", kind, n), kind)}
	o.rescale.ring.Append(rt.t)
	return rt
}

// now returns nanoseconds since the trace started.
func (rt *rescaleTrace) now() int64 {
	if rt == nil {
		return 0
	}
	return rt.t.Now()
}

// phase runs fn as one top-level phase span and observes its duration
// into the phase histogram. fn receives the span's pre-allocated ID so
// fan-out work inside the phase can parent child spans under it.
func (rt *rescaleTrace) phase(name string, fn func(parent uint64)) {
	if rt == nil {
		fn(0)
		return
	}
	id := rt.t.NewSpanID()
	start := rt.t.Now()
	fn(id)
	end := rt.t.Now()
	rt.t.Add(obs.Span{ID: id, Name: name, Worker: -1, StartNs: start, EndNs: end})
	rt.ro.phaseHist(name).Observe(float64(end-start) / 1e9)
}

// child records one per-worker span (typically an RPC measured at the
// coordinator) under parent, then re-bases the worker-reported spans —
// offsets from the worker's handler start — onto this span's window.
// The worker's clock never mixes with the coordinator's: children are
// anchored at the RPC's start and clamped to its end, which keeps the
// tree causally ordered even across hosts with skewed wall clocks.
func (rt *rescaleTrace) child(name string, worker int, parent uint64, start, end int64, spans []wireSpan) {
	if rt == nil {
		return
	}
	id := rt.t.Add(obs.Span{Parent: parent, Name: name, Worker: worker, StartNs: start, EndNs: end})
	for _, ws := range spans {
		s, e := start+ws.Start, start+ws.End
		if e > end {
			e = end
		}
		if s > e {
			s = e
		}
		rt.t.Add(obs.Span{Parent: id, Name: ws.Name, Worker: worker, StartNs: s, EndNs: e})
	}
}

// finish appends the trailing first_record span and completes the
// timeline. at is the wall-clock unix-nano instant the first record was
// processed (ok=false — cancelled or timed out — leaves the trace
// incomplete, recording nothing). restartEnd is the offset the restart
// phase ended at; downtime is drain start (trace zero) to first record.
func (rt *rescaleTrace) finish(restartEnd int64, at int64, ok bool) {
	if rt == nil || !ok {
		return
	}
	end := at - rt.t.StartedAt().UnixNano()
	if end < restartEnd {
		// Records can flow the instant instances start, before Rescale
		// has even returned; clamp so the span tree stays monotone.
		end = restartEnd
	}
	rt.t.Add(obs.Span{Name: phaseFirstRecord, Worker: -1, StartNs: restartEnd, EndNs: end})
	rt.ro.phaseHist(phaseFirstRecord).Observe(float64(end-restartEnd) / 1e9)
	rt.ro.downtime.Observe(float64(end) / 1e9)
	rt.t.Complete()
}

// firstRecord resolves the instant a fresh deployment processes its
// first record. Instances race to note it: the first CAS wins and wakes
// every waiter; teardown cancels so waiters never leak. The hot path
// pays one pointer nil-check per batch in steady state (instances clear
// their pointer after noting).
type firstRecord struct {
	t  atomic.Int64 // 0 = pending, -1 = cancelled, else unix nanos
	ch chan struct{}
}

func newFirstRecord() *firstRecord { return &firstRecord{ch: make(chan struct{})} }

// note marks t as the first-record instant; only the first call wins.
func (f *firstRecord) note(t time.Time) {
	if f.t.CompareAndSwap(0, t.UnixNano()) {
		close(f.ch)
	}
}

// cancel resolves the wait negatively (teardown before any record).
func (f *firstRecord) cancel() {
	if f.t.CompareAndSwap(0, -1) {
		close(f.ch)
	}
}

// value returns the current resolution without blocking: 0 pending, -1
// cancelled, else the unix-nano instant. The distributed first-record
// poll reads this.
func (f *firstRecord) value() int64 { return f.t.Load() }

// wait blocks until the instant is noted, the deployment is cancelled,
// or timeout passes.
func (f *firstRecord) wait(timeout time.Duration) (int64, bool) {
	select {
	case <-f.ch:
	case <-time.After(timeout):
		return 0, false
	}
	v := f.t.Load()
	if v <= 0 {
		return 0, false
	}
	return v, true
}
