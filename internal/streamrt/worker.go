package streamrt

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ds2/internal/metrics"
	"ds2/internal/obs"
)

// message is one record inside an exchange batch.
type message struct {
	key string
	val any // direct value; nil once encoded into the batch buffer
	// encOff/encLen frame the record's encoded bytes inside the batch
	// buffer — the length prefix of the wire format lives here, in the
	// batch header, rather than inside the byte stream. Meaningful only
	// when the receiving operator declares a Codec.
	encOff, encLen int32
	src            time.Time // source emission instant, for sink latency samples
}

// batch is the unit of exchange between instances: up to
// Config.BatchSize records plus one shared buffer holding their encoded
// forms back to back. Batches are recycled through the job's pool (the
// receiver returns them after processing), so the steady-state exchange
// allocates nothing per record.
type batch struct {
	msgs []message
	buf  []byte
	// from marks a batch decoded off a transport link: recycling it
	// returns one flow-control credit to the sending worker, the
	// cross-process analogue of freeing a channel slot. Zero for
	// locally produced batches.
	from recvOrigin
}

// endOfStream is the end-of-stream marker. An exiting instance sends it
// to every instance of every downstream operator after its last flush —
// down the channel, or as a DATA frame with no records — and an instance
// exits once it has received one per upstream instance. It is shared by
// every channel, so it never enters the pool (putBatch), and it is not a
// windowed tick's empty batch, which does.
var endOfStream = &batch{}

// drainBudget is how much of its own work a local receiver may have
// queued, since a drain processes all of it at the old parallelism
// (after Flink's buffer debloating, FLIP-183).
const drainBudget = 10 * time.Millisecond

// gate bounds a local receiver's queue in records: a sender admits a
// batch while fewer than budget records are queued (so one batch always
// fits), the receiver releases it after its record step. The budget is
// drainBudget over the receiver's per-record useful time, in [1, max];
// max (ChannelCapacity × BatchSize) holds until that is measured.
// Link batches, end-of-stream and tick batches pass the gate by.
type gate struct {
	mu     sync.Mutex
	cond   sync.Cond
	queued int
	budget int
	max    int
}

func newGate(max int) *gate {
	g := &gate{budget: max, max: max}
	g.cond.L = &g.mu
	return g
}

func (g *gate) admit(n int) {
	g.mu.Lock()
	for g.queued >= g.budget {
		g.cond.Wait()
	}
	g.queued += n
	g.mu.Unlock()
}

// release returns b's records, unless b came off a transport link (its
// sender took a credit token, not gate room), and resizes the budget
// from est, the receiver's per-record useful time (0: not yet measured).
func (g *gate) release(b *batch, est time.Duration) {
	budget := g.max
	if est > 0 {
		budget = int(max(1, min(drainBudget/est, time.Duration(g.max))))
	}
	g.mu.Lock()
	if b.from.link == nil {
		g.queued -= len(b.msgs)
	}
	g.budget = budget
	g.mu.Unlock()
	g.cond.Broadcast()
}

// outEdge is one instance's view of a downstream operator: where to
// send and how to partition. Each instance owns its copy (the
// round-robin cursor and the pending batches are worker-goroutine state
// and must not be shared).
type outEdge struct {
	op     string
	keyed  bool
	enc    AppendEncoder // the receiving operator's codec (see appendEncoder); nil without one
	router *router       // key -> instance, shared with state repartitioning
	chans  []chan *batch
	gates  []*gate // chans[k]'s receiver's gate; nil exactly when chans[k] is
	rr     int
	// Distributed deployments only. remote[k] is the credit gate for
	// target instance k when it lives on another worker (nil for local
	// targets); chans[k] is nil exactly when remote[k] isn't.
	// Round-robin edges deal over ALL global instances, remote
	// included — favouring local targets would concentrate load on the
	// sender's worker and break the uniform per-instance rates the
	// policy model assumes (a lone source would starve every remote
	// instance of its downstream operator).
	gen    uint32
	remote []*remoteDest
	// pend holds the partially filled outgoing batch per target
	// instance. A batch is flushed when it reaches Config.BatchSize,
	// when the sender goes idle or sleeps, when FlushInterval has
	// passed, and at exit — so low-rate streams keep per-record latency
	// and drains never strand records.
	pend []*batch
}

// encodeAppender gives a Codec that has only Encode the exchange's one
// encode path, at the cost of the copy AppendEncode exists to avoid.
type encodeAppender struct{ Codec }

func (a encodeAppender) AppendEncode(dst []byte, v any) []byte { return append(dst, a.Encode(v)...) }

// appendEncoder returns what senders into an operator encode through;
// nil for an operator without a Codec.
func appendEncoder(c Codec) AppendEncoder {
	switch c := c.(type) {
	case nil:
		return nil
	case AppendEncoder:
		return c
	}
	return encodeAppender{c}
}

// counters is the one record of an instance's §3 instrumentation: the
// worker goroutine's unsynchronized scratch, the content of the shared
// accumulator, what a window cut takes from it and — embedded in
// wireAcc — what a worker ships to the coordinator.
type counters struct {
	Dur       metrics.Durations `json:"dur"`
	Processed int64             `json:"processed"`
	Pushed    int64             `json:"pushed"`
	// DownWait is the time spent blocked pushing into each downstream
	// operator (indexed like the instance's outs) — the receiver-side
	// backpressure signal, kept apart from the sender's own WaitingOutput.
	DownWait []time.Duration         `json:"down_wait,omitempty"`
	Lats     []metrics.LatencySample `json:"lats,omitempty"` // sinks only
}

func (c *counters) add(o *counters) {
	c.Dur.Deserialization += o.Dur.Deserialization
	c.Dur.Processing += o.Dur.Processing
	c.Dur.Serialization += o.Dur.Serialization
	c.Dur.WaitingInput += o.Dur.WaitingInput
	c.Dur.WaitingOutput += o.Dur.WaitingOutput
	c.Processed += o.Processed
	c.Pushed += o.Pushed
	if c.DownWait == nil && len(o.DownWait) > 0 {
		c.DownWait = make([]time.Duration, len(o.DownWait))
	}
	for i, w := range o.DownWait {
		c.DownWait[i] += w
	}
	c.Lats = append(c.Lats, o.Lats...)
}

// reset zeroes c, keeping its backing storage.
func (c *counters) reset() {
	clear(c.DownWait)
	*c = counters{DownWait: c.DownWait, Lats: c.Lats[:0]}
}

// accFlushInterval bounds how stale the shared accumulator may be while
// a worker is busy: a window cut misses at most this much trailing
// activity (carried into the next window), a fraction of a percent of
// any realistic policy interval.
const accFlushInterval = 5 * time.Millisecond

// acc is the shared accumulator one instance exposes to Collect between
// window cuts. The worker merges its local scratch here (one mutex
// round-trip) only every accFlushInterval, when idle, and at exit —
// never per record. Collect takes and resets it.
type acc struct {
	mu sync.Mutex
	counters
}

func (a *acc) take() counters {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := a.counters
	a.counters = counters{}
	return out
}

// merge folds the worker's local scratch into the shared accumulator
// and resets the scratch.
func (a *acc) merge(l *counters) {
	a.mu.Lock()
	a.add(l)
	a.mu.Unlock()
	l.reset()
}

// instance is one parallel instance of an operator: one goroutine, one
// bounded input channel (non-sources), one instrumentation
// accumulator.
type instance struct {
	host *host
	op   string
	idx  int
	sink bool

	// sources
	src  *SourceSpec
	seq  *int64 // shared per-source sequence counter (this process)
	nsrc int    // source parallelism, for pacing shares
	// Distributed sequence striping: each worker process owns every
	// seqBlock-sized block b of the global sequence space with
	// b % seqNW == seqWorker, so the union of all workers' emissions is
	// exactly [0, Limit) with no coordination on the hot path. The
	// local counter (seq) counts the process's own records; seqAt maps
	// it to the global sequence. Single-process jobs have seqNW == 1
	// and the mapping is the identity.
	seqNW     int
	seqWorker int
	seqBlock  int64
	srcLimit  int64 // this process's share of src.Limit (0 = unbounded)
	// startGate, when non-nil, holds the source until the coordinator
	// releases the deployment (two-phase deploy: every worker installs
	// its receive table before any source emits).
	startGate <-chan struct{}

	// operators
	spec     *OperatorSpec
	in       chan *batch
	gate     *gate // in's local senders' credit gate
	upstream int   // upstream instances: the end-of-stream markers to await
	// Keyed operators: the state of this instance's key groups
	// [lo, lo+len(groups)), one key -> state map per group, allocated on
	// the group's first write and kept when it empties (see parts).
	lo     int
	groups []map[string]any

	outs []outEdge

	// worker-goroutine scratch, touched only by the worker goroutine
	local  counters
	vals   []any     // decoded-values scratch, one batch's worth
	curSrc time.Time // src stamp for emissions of the current record
	nrec   int64
	swept  int64 // windowed: last pane swept; no window ends before pane 0
	// latHist is the exporter's record-latency histogram (sinks only,
	// resolved at deploy so the hot path never touches the registry);
	// nil when telemetry is off.
	latHist      *obs.Histogram
	owed         time.Duration // work-pacing credit, see work()
	est          time.Duration // smoothed useful time per record, see bookUseful
	lastAccFlush time.Time
	lastPend     time.Time
	// first points at the deployment's first-record resolver until this
	// instance has processed a batch; cleared after the first note, so
	// steady state pays one nil check per batch. Ends a rescale trace's
	// downtime window.
	first *firstRecord

	acc acc
}

// noteFirstRecord resolves the deployment's first-record instant (once;
// later calls find the pointer already cleared).
func (in *instance) noteFirstRecord(t time.Time) {
	if in.first != nil {
		in.first.note(t)
		in.first = nil
	}
}

// work applies the spec's per-record Cost. A naive time.Sleep(cost)
// overshoots by the timer granularity (hundreds of µs to ~1 ms for
// sub-ms sleeps), which would silently halve an instance's measured
// capacity. Instead the cost is banked: the instance sleeps only once
// enough is owed to dwarf the granularity, and the actual measured
// sleep time — overshoot included — is debited, so the window
// aggregate of useful time converges to records × cost exactly. Idle
// time never banks credit: owed is untouched while blocked on input.
func (in *instance) work(cost time.Duration) {
	in.owed += cost
	if in.owed < maxDebt {
		return
	}
	t0 := time.Now()
	time.Sleep(in.owed)
	in.owed -= time.Since(t0)
	// One overshoot of credit is self-correction; more would mean
	// free capacity after an anomalous stall.
	if in.owed < -maxDebt {
		in.owed = -maxDebt
	}
}

// drainExit is every worker loop's deferred epilogue: push out partial
// batches (exactly-once across rescales requires the drain to flush
// batches in flight before the snapshot) and the remaining local
// instrumentation, then send every downstream instance its
// end-of-stream marker. Channels and links are FIFO, so a marker cannot
// overtake the flushes just made.
func (in *instance) drainExit() {
	in.flushPending(flushExit)
	in.acc.merge(&in.local)
	for i := range in.outs {
		oe := &in.outs[i]
		for k, c := range oe.chans {
			if c != nil {
				c <- endOfStream
				continue
			}
			// A marker takes no credit: it is one frame per upstream
			// instance, sent once.
			rd := oe.remote[k]
			rd.link.sendData(oe.gen, rd.opID, rd.inst, endOfStream, nil)
		}
	}
}

// emit appends one logical record to the pending batch of every
// downstream operator. The hot path takes no clock readings and no
// locks; serialization and send-blocked time are measured per batch at
// flush time. It is handed to user Process functions as the Emit
// callback.
func (in *instance) emit(key string, value any) {
	for i := range in.outs {
		oe := &in.outs[i]
		var target int
		switch {
		case oe.keyed:
			target = oe.router.owner(key)
		default:
			target = oe.rr % len(oe.chans)
			oe.rr++
		}
		b := oe.pend[target]
		if b == nil {
			b = in.host.getBatch()
			oe.pend[target] = b
		}
		b.msgs = append(b.msgs, message{key: key, val: value, src: in.curSrc})
		if len(b.msgs) >= in.host.cfg.BatchSize {
			in.flushOne(oe, i, target, flushSize)
		}
	}
	in.local.Pushed++
}

// flushOne encodes and sends one pending batch, taking the
// serialization and waiting-for-output clock splits once for the whole
// batch (attributed proportionally — the records of a batch share its
// measured encode and send time uniformly).
func (in *instance) flushOne(oe *outEdge, edge, target int, reason flushReason) {
	b := oe.pend[target]
	if b == nil || len(b.msgs) == 0 {
		return
	}
	oe.pend[target] = nil
	if oe.remote != nil && oe.remote[target] != nil {
		in.flushRemote(oe, edge, target, b, reason)
		return
	}
	n := len(b.msgs) // the batch belongs to the receiver after the send
	t0 := time.Now()
	t1 := t0
	if oe.enc != nil {
		for k := range b.msgs {
			m := &b.msgs[k]
			off := int32(len(b.buf))
			b.buf = oe.enc.AppendEncode(b.buf, m.val)
			m.encOff, m.encLen = off, int32(len(b.buf))-off
			m.val = nil
		}
		t1 = time.Now()
		in.local.Dur.Serialization += t1.Sub(t0)
	}
	oe.gates[target].admit(n)
	oe.chans[target] <- b
	t2 := time.Now()
	blocked := t2.Sub(t1)
	in.local.Dur.WaitingOutput += blocked
	in.local.DownWait[edge] += blocked
	if o := in.host.obs; o != nil {
		o.flushed(reason, n, blocked)
	}
}

// flushRemote sends one pending batch to an instance hosted by another
// worker: acquire one flow-control credit (blocking here is the remote
// analogue of a full channel — it counts as waiting-for-output and
// feeds the receiver's backpressure signal), then encode the batch
// straight into the link's write buffer. The batch itself never leaves
// this process, so it recycles immediately.
func (in *instance) flushRemote(oe *outEdge, edge, target int, b *batch, reason flushReason) {
	rd := oe.remote[target]
	n := len(b.msgs)
	t0 := time.Now()
	ok := rd.acquire()
	t1 := time.Now()
	blocked := t1.Sub(t0)
	in.local.Dur.WaitingOutput += blocked
	in.local.DownWait[edge] += blocked
	if ok {
		rd.link.sendData(oe.gen, rd.opID, rd.inst, b, oe.enc)
		in.local.Dur.Serialization += time.Since(t1)
	}
	// A dead link (acquire false) drops the batch: the deployment is
	// failing and the coordinator will surface the link error.
	in.host.putBatch(b)
	if o := in.host.obs; o != nil {
		o.flushed(reason, n, blocked)
	}
}

// flushPending pushes out every non-empty pending batch.
func (in *instance) flushPending(reason flushReason) {
	for i := range in.outs {
		oe := &in.outs[i]
		for t := range oe.pend {
			if oe.pend[t] != nil {
				in.flushOne(oe, i, t, reason)
			}
		}
	}
}

// maybeFlushPending applies the time bound on partial batches: if
// FlushInterval has passed since the last deadline flush, everything
// pending goes out now. now is a clock reading the caller already took.
func (in *instance) maybeFlushPending(now time.Time) {
	if now.Sub(in.lastPend) >= in.host.cfg.FlushInterval {
		in.flushPending(flushDeadline)
		in.lastPend = now
	}
}

// maybeFlushAcc merges local instrumentation into the shared
// accumulator if it has been local for accFlushInterval.
func (in *instance) maybeFlushAcc(now time.Time) {
	if now.Sub(in.lastAccFlush) >= accFlushInterval {
		in.acc.merge(&in.local)
		in.lastAccFlush = now
	}
}

// idleFlush runs when the worker is about to block on input: partial
// batches and buffered instrumentation all go out, so an idle pipeline
// holds no records hostage and Collect sees fresh counters.
func (in *instance) idleFlush() {
	in.flushPending(flushIdle)
	in.acc.merge(&in.local)
}

// nextBatch returns the next input batch, flushing pending output and
// local instrumentation before blocking. When tick (a windowed
// instance's; nil otherwise) fires first the batch is an empty one: its
// record step adds nothing and fires what has come due. The batch may be
// endOfStream.
func (in *instance) nextBatch(tick <-chan time.Time) *batch {
	select {
	case b := <-in.in:
		return b
	default:
	}
	in.idleFlush()
	select {
	case b := <-in.in:
		return b
	case <-tick:
		return in.host.getBatch()
	}
}

// emitted is what this instance's flushes have booked so far; they run
// inside the record loops, which read it first for bookUseful.
func (in *instance) emitted() time.Duration {
	return in.local.Dur.Serialization + in.local.Dur.WaitingOutput
}

// bookUseful books n records as processed and the span since from as
// processing time, less what flushes booked since the emitted0 reading,
// and folds the span's time per record into est. It returns the clock
// reading that ends the span.
func (in *instance) bookUseful(from time.Time, emitted0 time.Duration, n int64) time.Time {
	now := time.Now()
	proc := now.Sub(from) - (in.emitted() - emitted0)
	if proc < 0 {
		proc = 0
	}
	in.local.Dur.Processing += proc
	in.local.Processed += n
	if n > 0 {
		per := proc / time.Duration(n)
		if in.est == 0 {
			in.est = per
		} else {
			in.est += (per - in.est) / 8
		}
	}
	return now
}

// decodeBatch runs the batch's deserialization phase: every record is
// decoded up front (one clock pair for the whole batch), so the process
// phase that follows touches no codec. Returns the decoded values (the
// instance's reused scratch) or nil when the operator has no codec, and
// the end-of-phase clock reading.
func (in *instance) decodeBatch(b *batch, t1 time.Time) ([]any, time.Time) {
	codec := in.spec.Codec
	if codec == nil {
		return nil, t1
	}
	if cap(in.vals) < len(b.msgs) {
		in.vals = make([]any, 0, cap(b.msgs))
	}
	vals := in.vals[:0]
	for i := range b.msgs {
		m := &b.msgs[i]
		vals = append(vals, codec.Decode(b.buf[m.encOff:m.encOff+m.encLen]))
	}
	t2 := time.Now()
	in.local.Dur.Deserialization += t2.Sub(t1)
	return vals, t2
}

// sampleLatencies records the sink's strided source-to-sink latency
// samples for one processed batch, all against the batch-end clock.
func (in *instance) sampleLatencies(b *batch, t3 time.Time, every int64) {
	for i := range b.msgs {
		m := &b.msgs[i]
		if m.src.IsZero() {
			continue
		}
		if in.nrec++; in.nrec%every == 0 {
			in.local.Lats = append(in.local.Lats,
				metrics.LatencySample{Latency: t3.Sub(m.src).Seconds(), Weight: float64(every)})
		}
		// The exporter's histogram samples on its own fixed stride,
		// independent of the policy's LatencySampleEvery (which jobs
		// tune, or disable, without losing the exported signal). One
		// lock-free Observe per 1024 records keeps the hot path
		// allocation-free and under a nanosecond of amortized cost.
		if in.latHist != nil && in.nrec&(latencySampleStride-1) == 0 {
			in.latHist.Observe(t3.Sub(m.src).Seconds())
		}
	}
}

// runOperator is the worker loop of every non-source instance: block on
// input (waiting), decode the batch (deserialization), run the record
// step over it (processing; emission time inside is re-attributed to
// serialization/waiting-for-output at flush granularity), book the
// batch, recycle it, flush what is due. All clock splits are per batch,
// not per record. A windowed operator differs in its record step
// (paneRecords) and in waking on a tick — an empty batch — so a quiet
// key still fires; the next wait's idle flush sends what it fired.
func (in *instance) runOperator() {
	defer in.drainExit()
	every := int64(in.host.cfg.LatencySampleEvery)
	// Bind the emit callback once: a fresh method value per record
	// would cost one heap allocation on the exchange hot path.
	emit := Emit(in.emit)
	step := in.records
	var tick <-chan time.Time
	if win := in.spec.Window; win != nil {
		ticker := time.NewTicker(windowTick(win.slide()))
		defer ticker.Stop()
		step, tick = in.paneRecords, ticker.C
	}
	owed := in.upstream
	for {
		t0 := time.Now()
		b := in.nextBatch(tick)
		t1 := time.Now()
		in.local.Dur.WaitingInput += t1.Sub(t0)
		if b == endOfStream {
			// Drained once every upstream instance has exited. Open
			// panes stay in the keyed state: the teardown snapshot
			// (rescale or stop) carries them on.
			if owed--; owed == 0 {
				return
			}
			continue
		}
		vals, t1 := in.decodeBatch(b, t1)
		emitted0 := in.emitted()
		step(b, vals, emit)
		t3 := in.bookUseful(t1, emitted0, int64(len(b.msgs)))
		in.gate.release(b, in.est)
		if len(b.msgs) > 0 {
			in.noteFirstRecord(t3)
		}
		if in.sink {
			in.sampleLatencies(b, t3, every)
		}
		in.host.putBatch(b)
		in.maybeFlushAcc(t3)
		in.maybeFlushPending(t3)
	}
}

// records is the plain record step: the user function plus Cost over
// every record of the batch.
func (in *instance) records(b *batch, vals []any, emit Emit) {
	spec := in.spec
	for i := range b.msgs {
		m := &b.msgs[i]
		v := m.val
		if vals != nil {
			v = vals[i]
		}
		in.curSrc = m.src
		if spec.Keyed {
			st := in.group(m.key)
			st[m.key] = spec.Process(st[m.key], m.key, v, emit)
		} else {
			spec.Process(nil, m.key, v, emit)
		}
		if spec.Cost > 0 {
			in.work(spec.Cost)
		}
	}
}

// group returns the state map of key's group, allocating it on the
// group's first write.
func (in *instance) group(key string) map[string]any {
	g := keyGroup(key) - in.lo
	st := in.groups[g]
	if st == nil {
		st = make(map[string]any)
		in.groups[g] = st
	}
	return st
}

// seqAt maps this process's c-th source record to its global sequence
// number under block striping (identity when seqNW <= 1).
func (in *instance) seqAt(c int64) int64 {
	if in.seqNW <= 1 {
		return c
	}
	blk, off := c/in.seqBlock, c%in.seqBlock
	return (blk*int64(in.seqNW)+int64(in.seqWorker))*in.seqBlock + off
}

// hostingWorkers returns the sorted distinct workers appearing in one
// operator's instance→worker assignment: the processes that host at
// least one instance, and so the stripe set for source sequences.
func hostingWorkers(assign []int) []int {
	seen := make(map[int]bool, len(assign))
	hosts := make([]int, 0, len(assign))
	for _, w := range assign {
		if !seen[w] {
			seen[w] = true
			hosts = append(hosts, w)
		}
	}
	sort.Ints(hosts)
	return hosts
}

// localSeqLimit returns how many of the first limit global sequence
// numbers fall in worker w's stripe (block striping, block size block).
func localSeqLimit(limit int64, w, nw int, block int64) int64 {
	if limit <= 0 || nw <= 1 {
		return limit
	}
	fullBlocks := limit / block
	rem := limit % block
	var mine int64
	if fullBlocks > int64(w) {
		mine = (fullBlocks - int64(w) + int64(nw) - 1) / int64(nw) * block
	}
	if fullBlocks%int64(nw) == int64(w) {
		mine += rem
	}
	return mine
}

// runSource is the worker loop of a source instance: pace to the
// target rate (the pause is waiting-for-input — the instance is waiting
// on the external world), generate the records that are due
// (processing), emit them (serialization + waiting-for-output at flush
// time). The schedule is a pacer: the loop sleeps until a burst — a
// FlushInterval of records, at least one, at most a batch — is due in
// full, then emits what is due by then, a batch a step with no sleep
// between steps, so a timer that wakes late costs nothing. What is
// forgiven is lateness up to maxDebt, whatever caused it. What is
// suppressed — due and never emitted, the no-backlog spout of §5.2
// whose achieved rate visibly drops — is lateness beyond that and every
// nanosecond booked as waiting-for-output: a source held by a full
// queue resumes on schedule, not behind it. Sequence numbers are
// unaffected by either: a range is reserved only after the step's last
// stop check and is always emitted in full, so the records a job has
// emitted are a prefix of each stripe across stops and rescales.
func (in *instance) runSource(stop <-chan struct{}) {
	defer in.drainExit()
	if in.startGate != nil {
		select {
		case <-in.startGate:
		case <-stop:
			return
		}
	}
	src := in.src
	if src.Limit > 0 && in.srcLimit == 0 {
		return // bounded source whose stripe holds none of the first Limit seqs
	}
	cfg := &in.host.cfg
	batch := int64(cfg.BatchSize)
	// One timer for every sleep below, reset per sleep (go 1.23 timers:
	// a Reset leaves no earlier firing to be received).
	timer := time.NewTimer(0)
	defer timer.Stop()
	pace := pacer{next: time.Now()}
	for {
		select {
		case <-stop:
			return
		default:
		}
		rate := src.Rate(in.host.now())
		if rate*3600 < float64(in.nsrc) {
			// Idle (or effectively idle — below one record per hour
			// per instance): poll for a usable rate. Routing tiny
			// rates here keeps the period math far from Duration
			// overflow and lets a later rate increase take effect
			// within milliseconds instead of one enormous period.
			in.idleFlush()
			t0 := time.Now()
			if !pause(timer, 5*time.Millisecond, stop) {
				return
			}
			pace.next = time.Now()
			in.local.Dur.WaitingInput += pace.next.Sub(t0)
			continue
		}
		per, burst := cadence(rate, in.nsrc, cfg.FlushInterval, batch)
		now := time.Now()
		n, wait := pace.due(now, per, burst, batch)
		if n == 0 {
			// Nothing may sit in a partial batch across a pacing
			// sleep: flush first, then wait. Both readings of what the
			// flush booked come before maybeFlushAcc, which zeroes
			// in.local.
			emitted0, waitOut0 := in.emitted(), in.local.Dur.WaitingOutput
			in.flushPending(flushPacing)
			flushed := in.emitted() - emitted0
			pace.blocked(in.local.Dur.WaitingOutput - waitOut0)
			in.maybeFlushAcc(now)
			if !pause(timer, wait, stop) {
				return
			}
			in.local.Dur.WaitingInput += time.Since(now) - flushed
			continue
		}
		// The step's sequence range is reserved only once it is
		// definitely being emitted (after the stop checks), so every
		// reserved seq is processed exactly once across rescales —
		// disjoint ranges across instances, and a reserved range is
		// always emitted in full before this instance exits.
		start := atomic.AddInt64(in.seq, n) - n
		if in.srcLimit > 0 {
			if start >= in.srcLimit {
				return
			}
			if start+n > in.srcLimit {
				n = in.srcLimit - start
			}
		}
		in.curSrc = now
		emitted0, waitOut0 := in.emitted(), in.local.Dur.WaitingOutput
		for s := start; s < start+n; s++ {
			key, val := src.Next(in.seqAt(s))
			if src.Cost > 0 {
				in.work(src.Cost)
			}
			in.emit(key, val)
		}
		pace.blocked(in.local.Dur.WaitingOutput - waitOut0)
		t2 := in.bookUseful(now, emitted0, n)
		in.noteFirstRecord(t2)
		in.maybeFlushAcc(t2)
		if in.srcLimit > 0 && start+n >= in.srcLimit {
			return
		}
	}
}

// pause sleeps d on t, a source's one timer; false means stop closed
// first.
func pause(t *time.Timer, d time.Duration, stop <-chan struct{}) bool {
	t.Reset(d)
	select {
	case <-stop:
		return false
	case <-t.C:
		return true
	}
}
