package main

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"ds2/internal/dataflow"
	"ds2/internal/nexmark"
	"ds2/internal/obs"
	"ds2/internal/streamrt"
)

// nexmarkWL is the three record-path workloads: q1-local, q5-local and
// q1-dist share every line except the query, the placement and which
// paced phases they run.
type nexmarkWL struct {
	name  string
	query string
	dist  bool
	par   dataflow.Parallelism
	// Full-size (scale 1) parameters.
	flatN     float64 // records per flat repetition
	flatFloor float64 // fewest records a repetition runs at any scale
	flatReps  int
	paced200k float64 // measured seconds at 200 000 rec/s after a 1 s warm-up; 0 = phase absent
	paced1m   float64 // measured seconds at 1 000 000 rec/s; 0 = phase absent

	// Set-up products.
	n          int64 // flat records at the run's scale
	wantQ1     map[string]nexmark.Q1Agg
	wantCounts map[string]int
}

func newQ1Local() *nexmarkWL {
	return &nexmarkWL{name: wlQ1Local, query: "q1",
		par:   dataflow.Parallelism{nexmark.SrcBids: 1, "q1-map": 1, "q1-sink": 1},
		flatN: 3.6e6, flatFloor: 1e5, flatReps: 12, paced200k: 7, paced1m: 3}
}

func newQ5Local() *nexmarkWL {
	return &nexmarkWL{name: wlQ5Local, query: "q5",
		par: dataflow.Parallelism{nexmark.SrcBids: 1, "q5-window": 1, "q5-sink": 1},
		// The floor keeps a smoke-size repetition longer than a few 50 ms
		// windows, so at least one fires.
		flatN: 6e6, flatFloor: 1e6, flatReps: 15, paced1m: 4}
}

func newQ1Dist() *nexmarkWL {
	return &nexmarkWL{name: wlQ1Dist, query: "q1", dist: true,
		par:   dataflow.Parallelism{nexmark.SrcBids: 1, "q1-map": 2, "q1-sink": 2},
		flatN: 3e6, flatFloor: 1e5, flatReps: 13, paced200k: 7}
}

// opNames maps the query's operators to the short layer names of the
// per-layer metric table.
func (w *nexmarkWL) opNames() map[string]string {
	if w.query == "q5" {
		return map[string]string{nexmark.SrcBids: "src", "q5-window": "window", "q5-sink": "sink"}
	}
	return map[string]string{nexmark.SrcBids: "src", "q1-map": "map", "q1-sink": "sink"}
}

// queryConfig is the LiveQueryConfig of one phase. Costs are zero: the
// pipeline's own per-record work is what is measured, not sleep pacing.
func (w *nexmarkWL) queryConfig(seed int64, rate float64, limit int64) nexmark.LiveQueryConfig {
	return nexmark.LiveQueryConfig{
		Rate1: rate, Seed: seed, Limit: limit, Distributed: w.dist,
		Costs: map[string]time.Duration{"q1-map": 0, "q1-sink": 0, "q5-window": 0, "q5-sink": 0},
		// Small tumbling windows, so q5 fires inside the timed region
		// instead of only buffering panes.
		WindowSize: 50 * time.Millisecond, WindowSlide: 50 * time.Millisecond,
	}
}

// liveEngine is what the harness needs of *streamrt.Job and
// *streamrt.Cluster alike.
type liveEngine interface {
	Wait()
	Stop() map[string]map[string]any
	Collect() (streamrt.Interval, error)
	NextInterval(d float64) (streamrt.Interval, error)
	Now() float64
}

// liveJob is one started job or cluster with what must be torn down
// after it.
type liveJob struct {
	eng     liveEngine
	cluster *streamrt.Cluster
	workers []*streamrt.Worker
	// regs are the obs registries of a traced job (coordinator first,
	// then one per worker); nil when Config.Metrics is off.
	regs []*obs.Registry
}

func (j *liveJob) stop() map[string]map[string]any {
	st := j.eng.Stop()
	if j.cluster != nil {
		j.cluster.Close()
	}
	j.stopWorkers()
	return st
}

// start deploys one phase's pipeline. Building the pipeline and binding
// the workers' listeners is untimed preparation; the returned duration
// covers NewJob/NewCluster alone. Workers are per job because a
// Worker's source counters outlive a Cluster (that is what makes
// rescales exactly-once), so a second bounded job on the same workers
// would find its sources already exhausted.
func (w *nexmarkWL) start(r *run, parent spanID, qc nexmark.LiveQueryConfig, cfg streamrt.Config, exporter bool) (*liveJob, time.Duration, error) {
	lw, err := nexmark.LiveQuery(w.query, qc)
	if err != nil {
		return nil, 0, err
	}
	j := &liveJob{}
	if exporter {
		cfg.Metrics = obs.NewRegistry()
		j.regs = append(j.regs, cfg.Metrics)
	}
	if !w.dist {
		var job *streamrt.Job
		d := r.call(parent, "NewJob", func() { job, err = streamrt.NewJob(lw.Pipeline, w.par, cfg) })
		if err != nil {
			return nil, 0, err
		}
		j.eng = job
		return j, d, nil
	}
	addrs := make([]string, 2)
	for i := range addrs {
		var reg *obs.Registry
		if exporter {
			reg = obs.NewRegistry()
			j.regs = append(j.regs, reg)
		}
		wk := streamrt.NewWorker(i, map[string]*streamrt.Pipeline{w.query: lw.Pipeline}, reg)
		j.workers = append(j.workers, wk)
		if addrs[i], err = wk.Listen("127.0.0.1:0"); err != nil {
			j.stopWorkers()
			return nil, 0, err
		}
	}
	d := r.call(parent, "NewCluster", func() {
		j.cluster, err = streamrt.NewCluster(lw.Pipeline, w.query, w.par, addrs, cfg)
	})
	if err != nil {
		j.stopWorkers()
		return nil, 0, err
	}
	j.eng = j.cluster
	return j, d, nil
}

func (j *liveJob) stopWorkers() {
	for _, wk := range j.workers {
		wk.Close()
	}
}

// flatResult is one bounded flat-out repetition.
type flatResult struct {
	elapsed   time.Duration // NewJob/NewCluster call through Wait return
	states    map[string]map[string]any
	intervals []streamrt.Interval // traced only: a cut every 0.5 s
	links     []streamrt.LinkStats
	regs      []*obs.Registry
}

// flatRep runs n records flat out (closed loop: the source is always
// behind its 1e12 rec/s schedule, so only backpressure throttles it).
// When collect is set, the open window is cut every 0.5 s while the
// job runs, as the traced run asks.
func (w *nexmarkWL) flatRep(r *run, parent spanID, n int64, exporter, collect bool) (flatResult, error) {
	var res flatResult
	cfg := streamrt.Config{ChannelCapacity: 256, LatencySampleEvery: 1 << 30}
	runtime.GC() // every repetition starts from a collected heap, so none inherits another's garbage
	j, d, err := w.start(r, parent, w.queryConfig(r.seed, 1e12, n), cfg, exporter)
	if err != nil {
		return res, err
	}
	res.regs = j.regs
	done := make(chan struct{})
	collected := make(chan struct{})
	if collect {
		go func() {
			defer close(collected)
			tick := time.NewTicker(500 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-done:
					return
				case <-tick.C:
					if iv, err := j.eng.Collect(); err == nil {
						res.intervals = append(res.intervals, iv)
					}
				}
			}
		}()
	}
	d += r.call(parent, "Wait", func() { j.eng.Wait() })
	res.elapsed = d
	close(done)
	if collect {
		<-collected
		r.call(parent, "Collect", func() {
			if iv, err := j.eng.Collect(); err == nil {
				res.intervals = append(res.intervals, iv)
			}
		})
	}
	if j.cluster != nil {
		res.links = j.cluster.LinkTotals()
	}
	r.call(parent, "Stop", func() { res.states = j.stop() })
	return res, nil
}

// pacedResult is one open-loop phase.
type pacedResult struct {
	states    map[string]map[string]any
	intervals []streamrt.Interval // after the warm-up
	regs      []*obs.Registry
}

// pacedRun drives the query open loop at rate for warm+measure seconds,
// cutting a window every 0.5 s (shorter in smoke runs). The spout has no
// backlog (§5.2): a record it cannot emit on schedule is never emitted,
// so lateness shows as SourceObserved below TargetRates.
func (w *nexmarkWL) pacedRun(r *run, parent spanID, rate, warm, measure float64, sampleEvery int, exporter bool) (pacedResult, error) {
	var res pacedResult
	cfg := streamrt.Config{ChannelCapacity: 256, LatencySampleEvery: sampleEvery}
	j, _, err := w.start(r, parent, w.queryConfig(r.seed, rate, 0), cfg, exporter)
	if err != nil {
		return res, err
	}
	res.regs = j.regs
	period := min(0.5, measure/3)
	for j.eng.Now() < warm+measure {
		var iv streamrt.Interval
		r.call(parent, "NextInterval", func() { iv, err = j.eng.NextInterval(period) })
		if err != nil {
			j.stop()
			return res, err
		}
		if iv.Start >= warm-period/2 {
			res.intervals = append(res.intervals, iv)
		}
	}
	r.call(parent, "Stop", func() { res.states = j.stop() })
	return res, nil
}

// achievedFrac is Σ observed source records ÷ Σ scheduled over the
// intervals.
func achievedFrac(ivs []streamrt.Interval) float64 {
	var got, due float64
	for _, iv := range ivs {
		span := iv.End - iv.Start
		for _, v := range iv.SourceObserved {
			got += v * span
		}
		for _, v := range iv.TargetRates {
			due += v * span
		}
	}
	if due == 0 {
		return 0
	}
	return got / due
}

// latencySamples counts the intervals' latency samples.
func latencySamples(ivs []streamrt.Interval) int {
	n := 0
	for _, iv := range ivs {
		n += len(iv.Latencies)
	}
	return n
}

// --- oracles ------------------------------------------------------------------

// q1Count sums the sink's per-auction counts: the number of records
// that reached it.
func q1Count(states map[string]map[string]any) int64 {
	var n int64
	for _, st := range states["q1-sink"] {
		if agg, ok := st.(*nexmark.Q1Agg); ok {
			n += int64(agg.Count)
		}
	}
	return n
}

// checkQ1 compares the sink state key by key with the replay oracle.
func checkQ1(states map[string]map[string]any, want map[string]nexmark.Q1Agg) error {
	got := states["q1-sink"]
	if len(got) != len(want) {
		return fmt.Errorf("q1-sink holds %d auctions, oracle %d", len(got), len(want))
	}
	for key, agg := range want {
		if g, _ := got[key].(*nexmark.Q1Agg); g == nil || *g != agg {
			return fmt.Errorf("auction %s: got %v, want %+v", key, got[key], agg)
		}
	}
	return nil
}

// q5Totals adds fired results at the sink and residual panes at the
// window operator per auction.
func q5Totals(states map[string]map[string]any) (total map[string]int, sum int64, fired, panes int) {
	total = make(map[string]int)
	for key, st := range states["q5-sink"] {
		agg := st.(nexmark.Q5Agg)
		total[key] += agg.Bids
		sum += int64(agg.Bids)
		fired += agg.Windows
	}
	for key, st := range states["q5-window"] {
		for _, agg := range st.(*streamrt.WindowState).Panes {
			total[key] += agg.(int)
			sum += int64(agg.(int))
			panes++
		}
	}
	return total, sum, fired, panes
}

func checkQ5(states map[string]map[string]any, want map[string]int) error {
	total, _, fired, _ := q5Totals(states)
	if fired == 0 {
		return fmt.Errorf("no window fired")
	}
	if len(total) != len(want) {
		return fmt.Errorf("%d auctions accounted, oracle %d", len(total), len(want))
	}
	for key, n := range want {
		if total[key] != n {
			return fmt.Errorf("auction %s: fired+residual = %d, want %d", key, total[key], n)
		}
	}
	return nil
}

// delivered is the number of source records the final state accounts
// for.
func (w *nexmarkWL) delivered(states map[string]map[string]any) int64 {
	if w.query == "q5" {
		_, sum, _, _ := q5Totals(states)
		return sum
	}
	return q1Count(states)
}

// check compares the final state with the replay oracle at n records:
// the one set-up precomputed when n is the flat size, a fresh replay
// otherwise.
func (w *nexmarkWL) check(seed int64, states map[string]map[string]any, n int64) error {
	qc := nexmark.LiveQueryConfig{Seed: seed}
	if w.query == "q5" {
		want := w.wantCounts
		if n != w.n {
			want = nexmark.LiveExpectedBidCounts(qc, n)
		}
		return checkQ5(states, want)
	}
	want := w.wantQ1
	if n != w.n {
		want = nexmark.LiveExpectedQ1(qc, n)
	}
	return checkQ1(states, want)
}

// --- workload -----------------------------------------------------------------

func (w *nexmarkWL) teardown() {}

// setup compiles the pipeline, replays the oracle for the flat size and
// runs one untimed warm-up repetition at an eighth of it.
func (w *nexmarkWL) setup(r *run) error {
	w.n = int64(r.scaled(w.flatN, w.flatFloor))
	qc := nexmark.LiveQueryConfig{Seed: r.seed}
	if w.query == "q5" {
		w.wantCounts = nexmark.LiveExpectedBidCounts(qc, w.n)
	} else {
		w.wantQ1 = nexmark.LiveExpectedQ1(qc, w.n)
	}
	_, err := w.flatRep(r, 0, max(w.n/8, 1000), false, false)
	return err
}

// flatPhase runs the flat repetitions and returns records/s per rep.
func (w *nexmarkWL) flatPhase(r *run, name string, reps int, exporter, collect bool) ([]float64, []flatResult, error) {
	ph := r.phase(r.root, name)
	defer r.tr.end(ph)
	var rates []float64
	var results []flatResult
	for i := 0; i < reps; i++ {
		rep := r.phase(ph, fmt.Sprintf("rep%d", i))
		res, err := w.flatRep(r, rep, w.n, exporter, collect)
		r.tr.end(rep)
		if err != nil {
			return nil, nil, err
		}
		err = w.check(r.seed, res.states, w.n)
		r.op(err == nil, "%s %s rep %d: %v", w.name, name, i, err)
		rates = append(rates, float64(w.n)/res.elapsed.Seconds())
		results = append(results, res)
	}
	return rates, results, nil
}

// pacedPhase runs one open-loop phase and checks its final state
// against the oracle at however many records it delivered.
func (w *nexmarkWL) pacedPhase(r *run, name string, rate, warm, measure float64, sampleEvery int, exporter bool) (pacedResult, error) {
	ph := r.phase(r.root, name)
	defer r.tr.end(ph)
	res, err := w.pacedRun(r, ph, rate, warm, measure, sampleEvery, exporter)
	if err != nil {
		return res, err
	}
	n := w.delivered(res.states)
	err = w.check(r.seed, res.states, n)
	r.op(err == nil && n > 0, "%s %s: %d records: %v", w.name, name, n, err)
	return res, nil
}

// measure interleaves the flat repetitions with the paced phases, so
// that the repetitions sample the whole run rather than its first
// seconds: the host's speed for this kind of code drifts by tens of
// percent over tens of seconds (see README, "Host noise"), and
// records_per_s is the fastest repetition — interference only ever
// slows one down.
func (w *nexmarkWL) measure(r *run) error {
	var rates []float64
	flat := func(reps int) error {
		got, _, err := w.flatPhase(r, "flat", reps, false, false)
		rates = append(rates, got...)
		return err
	}
	reps := w.flatReps
	if r.scale < 0.5 {
		reps = 3 // smoke: one repetition per slot
	}
	third := reps / 3
	if err := flat(reps - 2*third); err != nil {
		return err
	}
	if w.paced200k > 0 {
		res, err := w.pacedPhase(r, "paced-200k", 200_000, r.scaled(1, 0.1), r.scaled(w.paced200k, 0.3), 64, false)
		if err != nil {
			return err
		}
		// One weighted quantile pair per 0.5 s window (≈ 1 560 samples,
		// 15 beyond the 99th percentile), then the median over windows:
		// a stall that wrecks one window's tail moves one value in
		// fourteen, not the metric.
		var p50, p99 []float64
		for _, iv := range res.intervals {
			if len(iv.Latencies) > 0 {
				q := weightedQuantiles(iv.Latencies, 0.50, 0.99)
				p50, p99 = append(p50, q[0]*1e3), append(p99, q[1]*1e3)
			}
		}
		r.e2e("record_latency_ms_p50", median(p50), p50...)
		r.e2e("record_latency_ms_p99", median(p99), p99...)
		fmt.Printf("# %s paced-200k: %d latency samples in %d windows\n", w.name, latencySamples(res.intervals), len(p50))
	}
	if err := flat(third); err != nil {
		return err
	}
	if w.paced1m > 0 {
		res, err := w.pacedPhase(r, "paced-1m", 1_000_000, 0, r.scaled(w.paced1m, 0.3), 1<<30, false)
		if err != nil {
			return err
		}
		r.e2e("paced_achieved_frac", achievedFrac(res.intervals))
	}
	if err := flat(third); err != nil {
		return err
	}
	r.e2e("records_per_s", slices.Max(rates), rates...)
	return nil
}

// --- traced run ---------------------------------------------------------------

// counterSum scrapes the registries and adds every series of the named
// counter family.
func counterSum(regs []*obs.Registry, name string) float64 {
	sum := 0.0
	for _, reg := range regs {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			continue
		}
		sc, err := obs.ParseText(&buf)
		if err != nil {
			continue
		}
		for _, s := range sc.Get(name) {
			sum += s.Value
		}
	}
	return sum
}

// timeSplits reports the §3 splits per operator over the intervals:
// each activity's share of the instances' summed window time.
func (w *nexmarkWL) timeSplits(r *run, ivs []streamrt.Interval) {
	type acc struct{ win, deser, proc, ser, in, out, records float64 }
	accs := make(map[string]*acc)
	bp := 0.0
	for _, iv := range ivs {
		for _, wm := range iv.Windows {
			a := accs[wm.ID.Operator]
			if a == nil {
				a = new(acc)
				accs[wm.ID.Operator] = a
			}
			a.win += wm.Window
			a.deser += wm.Deserialization
			a.proc += wm.Processing
			a.ser += wm.Serialization
			a.in += wm.WaitingInput
			a.out += wm.WaitingOutput
			a.records += max(wm.Processed, wm.Pushed)
		}
		for _, f := range iv.BackpressureFraction {
			bp = max(bp, f)
		}
	}
	for op, short := range w.opNames() {
		a := accs[op]
		if a == nil || a.win == 0 {
			continue
		}
		p := "streamrt." + short
		r.layer(p+".deser_frac", a.deser/a.win)
		r.layer(p+".proc_frac", a.proc/a.win)
		r.layer(p+".ser_frac", a.ser/a.win)
		r.layer(p+".wait_in_frac", a.in/a.win)
		r.layer(p+".wait_out_frac", a.out/a.win)
		r.layer(p+".records", a.records)
		if short == "window" {
			r.layer("window.proc_frac", a.proc/a.win)
		}
	}
	r.layer("streamrt.backpressure_frac", bp)
}

// transportLayer reports the framed-TCP counters of a distributed job
// against the n source records it moved. Links named ctl->wN are the
// coordinator's control connections; the rest carry batches one way and
// credit returns the other.
func transportLayer(r *run, links []streamrt.LinkStats, n int64) {
	var data, frames, stalls, ctl float64
	for _, l := range links {
		if strings.HasPrefix(l.Link, "ctl->") {
			ctl += float64(l.TxBytes + l.RxBytes)
			continue
		}
		data += float64(l.TxBytes)
		frames += float64(l.TxFrames)
		stalls += float64(l.Stalls)
	}
	if n == 0 || frames == 0 {
		return
	}
	r.layer("transport.data_bytes_per_record", data/float64(n))
	r.layer("transport.records_per_frame", float64(n)/frames)
	r.layer("transport.frames", frames)
	r.layer("transport.stalls", stalls)
	r.layer("transport.ctl_bytes", ctl)
}

func (w *nexmarkWL) tracedRun(r *run) error {
	// Untraced repetitions first: the base of trace.overhead_frac.
	base, _, err := w.flatPhase(r, "flat-untraced", 4, false, false)
	if err != nil {
		return err
	}
	if w.name == wlQ1Local {
		exp, _, err := w.flatPhase(r, "flat-exporter", 4, true, false)
		if err != nil {
			return err
		}
		r.layer("obs.exporter_overhead_frac", 1-slices.Max(exp)/slices.Max(base), exp...)
	}
	rates, results, err := w.flatPhase(r, "flat", 5, true, true)
	if err != nil {
		return err
	}
	r.layer("trace.overhead_frac", 1-slices.Max(rates)/slices.Max(base), rates...)

	var ivs []streamrt.Interval
	var regs []*obs.Registry
	for _, res := range results {
		ivs = append(ivs, res.intervals...)
		regs = append(regs, res.regs...)
	}
	w.timeSplits(r, ivs)
	flushes := counterSum(regs, "streamrt_batch_flushes_total")
	flushed := counterSum(regs, "streamrt_flushed_records_total")
	r.layer("streamrt.batch.flushes", flushes)
	if flushes > 0 {
		r.layer("streamrt.batch.records_per_flush", flushed/flushes)
	}
	last := results[len(results)-1]
	if w.dist {
		transportLayer(r, last.links, w.n)
	}
	if w.query == "q5" {
		_, _, fired, panes := q5Totals(last.states)
		r.layer("window.fired_results", float64(fired))
		r.layer("window.residual_panes", float64(panes))
		r.layer("window.latency_samples", float64(latencySamples(ivs)))
	}

	// One paced phase, traced: the same two figures where the pacing
	// path, not the pipeline, is the limit. Printed, not made metrics of —
	// the flat phase owns the names.
	rate, sample := 1_000_000.0, 1<<30
	if w.paced1m == 0 {
		rate, sample = 200_000, 64
	}
	res, err := w.pacedPhase(r, "paced", rate, r.scaled(0.5, 0.1), r.scaled(2.5, 0.3), sample, true)
	if err != nil {
		return err
	}
	var srcWin, srcWait float64
	for _, iv := range res.intervals {
		for _, wm := range iv.Windows {
			if wm.ID.Operator == nexmark.SrcBids {
				srcWin += wm.Window
				srcWait += wm.WaitingInput
			}
		}
	}
	if f := counterSum(res.regs, "streamrt_batch_flushes_total"); f > 0 && srcWin > 0 {
		fmt.Printf("# %s paced at %g rec/s: src wait_in_frac %.3f, records_per_flush %.1f\n", w.name, rate,
			srcWait/srcWin, counterSum(res.regs, "streamrt_flushed_records_total")/f)
	}

	if w.name == wlQ1Local {
		nexmarkLayer(r)
		return ladderLayer(r, slices.Max(base))
	}
	return nil
}
