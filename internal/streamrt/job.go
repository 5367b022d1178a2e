package streamrt

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"ds2/internal/dataflow"
	"ds2/internal/metrics"
	"ds2/internal/obs"
)

// ErrStopped reports that the job was stopped; Runtime translates it
// to controlloop.ErrStopped so hosts see a clean shutdown.
var ErrStopped = errors.New("streamrt: job stopped")

// Config tunes a running Job. The JSON form is what a distributed
// deploy ships, so all workers batch, flush, pace and stripe
// identically; Metrics stays behind — each worker exports its own.
type Config struct {
	// ChannelCapacity bounds every instance's input queue, counted in
	// batches (the exchange moves batches of up to BatchSize records).
	// Smaller queues mean tighter backpressure and faster drains on
	// rescale; values < 1 default to 16.
	ChannelCapacity int `json:"channel_capacity"`
	// BatchSize caps how many records one exchange batch carries. A
	// sender flushes a partial batch when it reaches this size, when
	// FlushInterval has passed, when it goes idle or sleeps for pacing,
	// and at exit. Values < 1 default to 256.
	BatchSize int `json:"batch_size"`
	// FlushInterval bounds how long a record may sit in a partial batch
	// (and how long instrumentation batches its clock splits), so
	// low-rate jobs keep per-record latency. Values <= 0 default to
	// 2ms.
	FlushInterval time.Duration `json:"flush_interval_nanos"`
	// LatencySampleEvery makes sinks record every Nth record's
	// source-to-sink latency (weight N). Values < 1 default to 1.
	LatencySampleEvery int `json:"latency_sample_every"`
	// SourceSeqBlock is the block size of the distributed source
	// sequence striping: each worker process of a distributed job owns
	// every SourceSeqBlock-long run of global sequence numbers whose
	// block index is congruent to the worker index, so the workers
	// jointly emit exactly the single-process sequence set with no
	// cross-process coordination. Irrelevant to single-process jobs.
	// Values < 1 default to 8192.
	SourceSeqBlock int64 `json:"source_seq_block"`
	// Metrics optionally exports the job's runtime telemetry — the §3
	// per-operator time splits, true/observed rates, batching and
	// backpressure counters, and a sampled record-latency histogram —
	// into an obs.Registry (typically shared with a /metrics exporter).
	// Nil disables telemetry; the hot path then pays one nil check per
	// batch and nothing per record.
	Metrics *obs.Registry `json:"-"`
}

// backpressureThreshold is the fraction of a window some upstream
// instance must spend blocked pushing into an operator before that
// operator is flagged backpressured (the Dhalion signal, attributed to
// the congested receiver as on the simulator).
const backpressureThreshold = 0.1

func (c Config) withDefaults() Config {
	if c.ChannelCapacity < 1 {
		c.ChannelCapacity = 16
	}
	if c.BatchSize < 1 {
		c.BatchSize = 256
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 2 * time.Millisecond
	}
	if c.LatencySampleEvery < 1 {
		c.LatencySampleEvery = 1
	}
	if c.SourceSeqBlock < 1 {
		c.SourceSeqBlock = 8192
	}
	return c
}

// Job is one deployed, running pipeline and the only coordinator in the
// package: it owns the deployed configuration, the observation window
// and the one reconfiguration cycle, and reaches the running instances
// through a placement — this process (NewJob) or Worker processes over
// the framed transport (NewCluster). It runs until Stop, or until every
// bounded source is exhausted.
type Job struct {
	pipe     *Pipeline
	workload string // the name the workers serve pipe under; "" when local
	cfg      Config
	epoch    time.Time // job time zero; job time = time.Since(epoch)
	obs      *jobObs   // nil when Config.Metrics is unset
	pl       placement

	mu         sync.Mutex
	cur        dataflow.Parallelism
	gen        uint32  // deployment generation, bumped by every deploy
	winStart   float64 // job time of the last window cut
	rescales   int
	savepoints int
	stopped    bool
	// err is the first placement failure in drain, deploy or wait. It is
	// sticky: some instances may be down and drained state may be lost,
	// so nothing is collected, rescaled or savepointed afterwards.
	err   error
	final map[string]map[string]any
}

// Cluster is a Job placed on Worker processes. The coordinator is the
// same; only NewCluster and NewClusterFromSavepoint produce one.
type Cluster = Job

// NewJob validates the initial parallelism, deploys the pipeline in
// this process and starts every instance.
func NewJob(p *Pipeline, initial dataflow.Parallelism, cfg Config) (*Job, error) {
	return start(p, "", initial, nil, cfg, nil, "")
}

// NewCluster deploys pipe over the workers at addrs (each running a
// Worker serving the named workload) and starts it.
func NewCluster(pipe *Pipeline, workload string, initial dataflow.Parallelism, addrs []string, cfg Config) (*Cluster, error) {
	return start(pipe, workload, initial, append([]string{}, addrs...), cfg, nil, "")
}

// start builds a coordinator and pushes its first generation — from
// nothing, or, with a store, from the savepoint held under name: load,
// decode, check it fits this pipeline and worker count, deploy the
// file's runs. A nil addrs selects the local placement.
func start(pipe *Pipeline, workload string, initial dataflow.Parallelism, addrs []string, cfg Config, store CheckpointStore, name string) (*Job, error) {
	if pipe == nil {
		return nil, errors.New("streamrt: nil pipeline")
	}
	if err := initial.Validate(pipe.graph); err != nil {
		return nil, err
	}
	if err := checkKeyGroups(pipe, initial); err != nil {
		return nil, err
	}
	j := &Job{pipe: pipe, workload: workload, cfg: cfg.withDefaults(), epoch: time.Now(), cur: initial.Clone()}
	snap := new(snapshot) // generation 1 starts empty unless restored
	if store != nil {
		data, err := store.Load(name)
		if err != nil {
			return nil, fmt.Errorf("streamrt: loading savepoint %q: %w", name, err)
		}
		sp, err := decodeSavepoint(data)
		if err != nil {
			return nil, err
		}
		if err := checkRestoreShape(pipe, sp, workload, initial, addrs); err != nil {
			return nil, err
		}
		// Job time continues from the cut, so rate schedules pick up
		// where they stopped; the striping block size is the file's.
		j.cfg.SourceSeqBlock = sp.SeqBlock
		j.epoch = j.epoch.Add(-time.Duration(sp.Elapsed * float64(time.Second)))
		j.winStart = sp.Elapsed
		snap.seqs, snap.runs = sp.Seqs, sp.States
	}
	if j.cfg.Metrics != nil {
		j.obs = newJobObs(j.cfg.Metrics, pipe, j.Rescales)
	}
	if addrs == nil {
		j.pl = newHost(pipe, j.cfg, j.epoch, j.obs, nil, nil)
	} else {
		r, err := dialRemote(pipe, workload, j.cfg, j.epoch, addrs, initial)
		if err != nil {
			return nil, err
		}
		j.pl = r
	}
	j.gen = 1
	if err := j.pl.deploy(j.gen, initial, snap, nil); err != nil {
		j.pl.close()
		return nil, err
	}
	return j, nil
}

// Now returns the current job time in seconds (worker epochs are
// aligned to it at every deploy).
func (j *Job) Now() float64 { return time.Since(j.epoch).Seconds() }

// WindowStart returns the job time the open observation window
// started at.
func (j *Job) WindowStart() float64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.winStart
}

// Parallelism returns the deployed configuration.
func (j *Job) Parallelism() dataflow.Parallelism {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cur.Clone()
}

// Rescales returns how many redeployments the job has performed.
func (j *Job) Rescales() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rescales
}

// Stopped reports whether the job was stopped.
func (j *Job) Stopped() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stopped
}

// Err returns the placement failure that took the job down, if any —
// the error every call has returned since. It is still there after
// Stop, whose own drain failure it also reports.
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// downLocked returns why the job can no longer be driven: the sticky
// placement failure, or ErrStopped. Callers hold j.mu.
func (j *Job) downLocked() error {
	if j.err != nil {
		return j.err
	}
	if j.stopped {
		return ErrStopped
	}
	return nil
}

// failLocked records err as the job's sticky failure unless an earlier
// one is already there. Callers hold j.mu.
func (j *Job) failLocked(err error) error {
	if j.err == nil {
		j.err = err
	}
	return err
}

// Rescale redeploys the job at a new parallelism via the paper's
// savepoint-and-restore shape: drain, snapshot keyed state,
// repartition it under the new configuration, restart — across worker
// processes the state moves over the framed transport. In one process
// only operators whose parallelism changes are repartitioned; the
// others' instances start again on the maps and router they held. A
// keyed operator cannot have more instances than there are key groups
// (1 << 15). The pause
// pollutes the open observation window, so the window is discarded and
// restarted at the new deployment (settle semantics — the next
// interval starts clean, as the Flink integration's §4.1 metrics
// reset).
func (j *Job) Rescale(newP dataflow.Parallelism) error {
	if err := newP.Validate(j.pipe.graph); err != nil {
		return err
	}
	if err := checkKeyGroups(j.pipe, newP); err != nil {
		return err
	}
	if err := j.pl.validate(newP); err != nil {
		return err
	}
	return j.reconfigure(newP, nil, "")
}

// Savepoint cuts the job durably: it drains the job, encodes its keyed
// state and source sequence counters into one savepoint file, persists
// the file under name, and starts the job again at the parallelism it
// had — in one process on the very maps and routers the instances held,
// nothing repartitioned; across worker processes the state has
// travelled to the coordinator for the file and is dealt back like a
// rescale's. It is traced like a rescale (the timeline appears on the
// rescale trace ring as "savepoint-N", with a persist phase for the
// store write) and observed into streamrt_savepoint_seconds. The job
// starts again even when the encode or the store write fails: the error
// is returned but the job is never left drained.
func (j *Job) Savepoint(store CheckpointStore, name string) error {
	if store == nil {
		return errors.New("streamrt: nil checkpoint store")
	}
	if err := checkSavepointable(j.pipe); err != nil {
		return err
	}
	return j.reconfigure(nil, store, name)
}

// reconfigure is the one reconfiguration mechanism (§4.1–4.2): drain,
// snapshot (the savepoint file, when a store is given), persist it,
// deploy. newP nil keeps the current parallelism. A placement failure
// in drain or deploy is sticky (see Job.err); a failed encode or persist
// is not — the job restarts and the error is returned.
func (j *Job) reconfigure(newP dataflow.Parallelism, store CheckpointStore, name string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.downLocked(); err != nil {
		return err
	}
	kind, n := "rescale", j.rescales+1
	if store != nil {
		j.savepoints++
		kind, n = "savepoint", j.savepoints
	}
	tr := j.obs.beginTrace(kind, n)
	if newP == nil {
		newP = j.cur
	}
	t0 := time.Now()
	var snap *snapshot
	var err error
	tr.phase(phaseDrain, func(parent uint64) { snap, err = j.pl.drain(tr, parent) })
	if err != nil {
		return j.failLocked(err)
	}
	// A savepoint's snapshot is the file; a plain rescale needs nothing of
	// the drained parts before they are dealt.
	var file []byte
	var perr error
	tr.phase(phaseSnapshot, func(uint64) {
		if store != nil {
			file, perr = snap.file(j.pipe, &savepointData{
				Workload: j.workload,
				Workers:  j.pl.workers(),
				SeqBlock: j.cfg.SourceSeqBlock,
				Elapsed:  j.Now(),
				Seqs:     snap.seqs,
			})
		}
	})
	if store != nil && perr == nil {
		tr.phase(phasePersist, func(uint64) { perr = store.Save(name, file) })
	}
	j.gen++
	if err := j.pl.deploy(j.gen, newP, snap, tr); err != nil {
		return j.failLocked(err)
	}
	j.cur = newP.Clone()
	j.winStart = j.Now()
	if store == nil {
		j.rescales++
	} else if h := j.obs.savepointHist(); h != nil {
		h.Observe(time.Since(t0).Seconds())
	}
	if tr != nil {
		// The first record lands after Rescale has returned; resolve it
		// into the trace off the lock.
		restartEnd, gen := tr.now(), j.gen
		go func() {
			at, ok := j.pl.awaitFirstRecord(gen, firstRecordWait)
			tr.finish(restartEnd, at, ok)
		}()
	}
	return perr
}

// RescaleTraces returns the retained rescale span timelines, oldest
// first — the payload behind the service's GET /jobs/{id}/rescales.
// Nil when telemetry is off (Config.Metrics unset).
func (j *Job) RescaleTraces() []obs.TraceView {
	if j.obs == nil {
		return nil
	}
	return j.obs.rescale.ring.Views()
}

// Stop tears the job down and returns the final keyed state of every
// stateful operator (operator -> key -> state), decoded. It is
// idempotent. When the drain fails, or the job had already failed, the
// state is incomplete and is not returned: the maps are empty and Err
// says why. A remote placement's connections stay up until Close.
func (j *Job) Stop() map[string]map[string]any {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.stopped {
		return j.final
	}
	j.stopped = true
	// Drain even a failed job: part of it may still be running.
	var final map[string]map[string]any
	snap, err := j.pl.drain(nil, 0)
	if err == nil {
		var vals parts[any]
		vals, err = snap.values(j.pipe)
		final = mergeParts(vals)
	}
	if err != nil {
		j.failLocked(err)
	}
	if j.err != nil || final == nil {
		final = make(map[string]map[string]any)
	}
	for name, spec := range j.pipe.ops {
		if spec.Keyed && final[name] == nil {
			final[name] = make(map[string]any)
		}
	}
	j.final = final
	return j.final
}

// Close releases a remote placement's control connections. Call after
// Stop; on a single-process job it does nothing.
func (j *Job) Close() { j.pl.close() }

// LinkTotals returns the last collected per-link counters of a remote
// placement, aggregated across both endpoints of every connection. Nil
// for a single-process job, which has no links.
func (j *Job) LinkTotals() []LinkStats {
	if r, ok := j.pl.(*remote); ok {
		return r.linkTotals()
	}
	return nil
}

// Wait blocks until every instance has exited on its own — i.e. every
// bounded source hit its Limit and the pipeline drained — or the job
// was stopped or failed. It does not stop the job; call Stop afterwards
// to collect final state. Rescales are transparent: a
// drained-for-rescale generation does not satisfy Wait, which moves on
// to its replacement.
func (j *Job) Wait() {
	for {
		j.mu.Lock()
		down := j.downLocked() != nil
		gen := j.gen
		j.mu.Unlock()
		if down {
			return
		}
		natural, err := j.pl.wait()
		j.mu.Lock()
		if err != nil {
			j.failLocked(err)
		}
		// Not natural means a drain. A reconfiguration holds j.mu until
		// the next generation is live, so by now j.gen has moved; an
		// unchanged gen means Stop.
		done := err != nil || natural || j.gen == gen
		j.mu.Unlock()
		if done {
			return
		}
	}
}

// Interval is everything one observation window produced: the shared
// interval record as a named type, so that what Collect and
// NextInterval return carries the Observation method.
type Interval metrics.Observation

// wireAcc is one instance's taken counters beside its identity: a
// worker of a distributed deployment ships these to the coordinator at
// collect time, and the local placement hands over the same struct, so
// both build intervals with byte-identical logic (decision parity
// between local and distributed runs depends on it).
type wireAcc struct {
	Op  string `json:"op"`
	Idx int    `json:"idx"`
	counters
}

// buildInterval turns taken accumulators into an Interval — the build
// phase of Job.Collect, and of a Worker's own gauge refresh. It needs
// no lock: it works on the taken counters and the immutable pipeline,
// plus the user's Rate function. Useful time booked late overshoots the
// window; it is scaled to fit and, beyond tolerance, counted on o (nil
// without telemetry) — never an error, which would end the control loop.
func buildInterval(pipe *Pipeline, accs []wireAcc, start, end float64, par dataflow.Parallelism, o *jobObs) (Interval, error) {
	iv := Interval{
		Start:                start,
		End:                  end,
		TargetRates:          make(map[string]float64),
		SourceObserved:       make(map[string]float64),
		BackpressureFraction: make(map[string]float64),
		Parallelism:          par,
		Workers:              par.Total(),
	}
	span := end - start
	window := time.Duration(span * float64(time.Second))
	if len(accs) == 0 || window <= 0 {
		return iv, nil
	}
	// Backpressure is attributed to the congested *receiver* — the
	// operator whose input queue blocked its senders — matching the
	// simulator's input-queue semantics, so rule-based policies
	// (Dhalion's "most downstream backpressured operator") diagnose
	// the same bottleneck on both runtimes. Sources are never flagged
	// (nothing sends into them). The sender's blocked time still
	// appears as its own WaitingOutput window metric.
	maxBP := make(map[string]float64)
	for _, t := range accs {
		id := metrics.InstanceID{Operator: t.Op, Index: t.Idx}
		opIdx := pipe.graph.IndexOf(t.Op)
		if opIdx < 0 {
			return Interval{}, fmt.Errorf("streamrt: collected counters of %s, not an operator of this pipeline", id)
		}
		w, clamped, err := metrics.WindowFromDurations(id, window, t.Dur, t.Processed, t.Pushed)
		if err != nil {
			return Interval{}, fmt.Errorf("streamrt: collecting %s: %w", id, err)
		}
		if clamped && o != nil {
			o.clamped[t.Op].Inc()
		}
		iv.Windows = append(iv.Windows, w)
		if _, isSrc := pipe.sources[t.Op]; isSrc {
			iv.SourceObserved[t.Op] += float64(t.Pushed) / span
		}
		// DownWait is indexed like the instance's out edges, which deploy
		// builds in the graph's downstream order.
		for e, d := range pipe.graph.Downstream(opIdx) {
			if e >= len(t.DownWait) {
				break // instance recorded nothing this window
			}
			down := pipe.graph.Operator(d).Name
			f := t.DownWait[e].Seconds() / span
			if f > 1 {
				f = 1
			}
			if f > maxBP[down] {
				maxBP[down] = f
			}
		}
		iv.Latencies = append(iv.Latencies, t.Lats...)
	}
	for name, spec := range pipe.sources {
		iv.TargetRates[name] = spec.Rate(end)
	}
	for name, f := range maxBP {
		if f > 0 {
			iv.BackpressureFraction[name] = f
		}
		if f > backpressureThreshold {
			iv.Backpressured = append(iv.Backpressured, name)
		}
	}
	// Map iteration order is random; the wire format and traces expect
	// deterministic ordering.
	sort.Strings(iv.Backpressured)
	sort.Slice(iv.Windows, func(a, b int) bool {
		if iv.Windows[a].ID.Operator != iv.Windows[b].ID.Operator {
			return iv.Windows[a].ID.Operator < iv.Windows[b].ID.Operator
		}
		return iv.Windows[a].ID.Index < iv.Windows[b].ID.Index
	})
	return iv, nil
}

// Collect cuts the open observation window: one WindowMetrics per
// instance from its wall-clock counters, plus the external signals
// (target and achieved source rates, backpressure flags, latency
// samples). The next window starts at the cut.
func (j *Job) Collect() (Interval, error) {
	j.mu.Lock()
	if err := j.downLocked(); err != nil {
		j.mu.Unlock()
		return Interval{}, err
	}
	end := j.Now()
	start := j.winStart
	par := j.cur.Clone()
	var accs []wireAcc
	if end > start {
		// Take every accumulator and advance the window before building
		// a single WindowMetrics: a build error then discards the
		// interval wholesale — all counters reset and winStart advanced
		// together — instead of losing a random prefix of instances
		// while the next interval's span still includes this one.
		var err error
		if accs, err = j.pl.collect(); err != nil {
			j.mu.Unlock()
			return Interval{}, err
		}
		j.winStart = end
	}
	j.mu.Unlock()
	iv, err := buildInterval(j.pipe, accs, start, end, par, j.obs)
	if err != nil {
		return Interval{}, err
	}
	if j.obs != nil && len(accs) > 0 {
		j.obs.observeInterval(iv)
	}
	return iv, nil
}

// NextInterval blocks until the open window covers d seconds of job
// time, then cuts and returns it. It returns ErrStopped once the job
// was stopped, and the placement failure once it has failed.
func (j *Job) NextInterval(d float64) (Interval, error) {
	for {
		j.mu.Lock()
		err := j.downLocked()
		remain := j.winStart + d - j.Now()
		j.mu.Unlock()
		if err != nil {
			return Interval{}, err
		}
		if remain <= 0 {
			return j.Collect()
		}
		time.Sleep(intervalSleep(remain))
	}
}

// intervalSleep is NextInterval's sleep with remain > 0 seconds to go:
// capped at 50 ms, so a Stop during a long interval is noticed promptly,
// and rounded up — truncated to zero it would spin until the clock
// ticked (forever, on a clock that only advances while everyone sleeps).
func intervalSleep(remain float64) time.Duration {
	return time.Duration(math.Ceil(min(remain, 0.05) * float64(time.Second)))
}
