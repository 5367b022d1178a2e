package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ds2/internal/controlloop"
	"ds2/internal/core"
	"ds2/internal/dataflow"
	"ds2/internal/obs"
	"ds2/internal/service"
	"ds2/internal/streamrt"
)

// The autoscale-steps pipeline: src → work (stateless) → count (keyed).
// Costs are sleeps, so an instance's capacity is 1/cost whatever the
// host is doing, and the analytic optimum at a rate is ⌈rate·cost⌉.
const (
	workCost     = 4 * time.Millisecond
	countCost    = 1200 * time.Microsecond
	autoKeys     = 20_000
	autoInterval = 0.25 // policy interval, seconds
)

// autoRates is the open-loop schedule, one rate per phase (Fig. 7
// shape: every pair of the three levels is stepped between, both ways).
// The top level is 850, not 900: a sleep overshoots, and the policy
// sizes for the cost it measures. 850 × 4 ms = 3.4 leaves `work` 17% of
// overshoot before the measured optimum is 5 instead of 4, where 3.6
// left 11% and a busy host used it up; 850 × 1.2 ms = 1.02 is above its
// boundary, which overshoot only moves further from.
var autoRates = []float64{100, 400, 850, 400, 100, 850, 100, 400, 850, 100, 850, 400}

// autoPhaseSec is the full-size phase length. It is deliberately not a
// multiple of the 0.25 s policy interval, so steps do not land on
// window cuts.
const autoPhaseSec = 1.45

func autoOptimum(rate float64) dataflow.Parallelism {
	need := func(cost time.Duration) int { return max(int(math.Ceil(rate*cost.Seconds())), 1) }
	return dataflow.Parallelism{"src": 1, "work": need(workCost), "count": need(countCost)}
}

// autoMaxSteps is the paper's bound on scaling steps per rate change.
const autoMaxSteps = 3

// scaleDirection classifies a rescale by total instances: +1 up, -1
// down, 0 a reshuffle. Scale-ups and scale-downs cost differently (a
// scale-up drains a saturated pipeline), so they are never pooled.
func scaleDirection(from, to dataflow.Parallelism) int {
	switch a, b := from.Total(), to.Total(); {
	case b > a:
		return 1
	case b < a:
		return -1
	}
	return 0
}

// keyPermutation returns n distinct keys in a seed-determined order;
// source sequence seq carries key perm[seq mod n].
func keyPermutation(seed int64, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = "k" + strconv.Itoa(i)
	}
	rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

// replayCounts is the exactly-once oracle of a counting sink fed
// sequences 0..n-1 over the permutation: every key n/len times, the
// first n mod len keys once more.
func replayCounts(keys []string, n int64) map[string]int {
	out := make(map[string]int, len(keys))
	k := int64(len(keys))
	for i, key := range keys {
		c := n / k
		if int64(i) < n%k {
			c++
		}
		if c > 0 {
			out[key] = int(c)
		}
	}
	return out
}

// checkCounts compares a counting operator's final state with the
// replay of n sequences.
func checkCounts(state map[string]any, keys []string, n int64) error {
	want := replayCounts(keys, n)
	if len(state) != len(want) {
		return fmt.Errorf("%d keys counted, replay has %d", len(state), len(want))
	}
	for key, c := range want {
		if got, _ := state[key].(int); got != c {
			return fmt.Errorf("key %s counted %v times, replay %d", key, state[key], c)
		}
	}
	return nil
}

func sumCounts(state map[string]any) int64 {
	var n int64
	for _, v := range state {
		n += int64(v.(int))
	}
	return n
}

// hostWatch checks the workload's premise. Costs are sleeps so that an
// instance's capacity does not depend on the host; it does when the host
// will not wake a sleeper on time. One goroutine paces itself exactly as
// a `work` instance does (streamrt banks the cost it owes, debits the
// sleep it got, and forgives itself at most workForgiven of overshoot:
// what a sleep runs over beyond that is capacity lost) and adds the
// time it lost to the policy-interval-sized bin of job time the sleep
// ended in. Where a bin lost more than hostStallShare of its length, the
// operators' real cost was above the nominal one by about that share,
// the analytic optimum was not the optimum, and the phase's check says
// nothing about the program.
type hostWatch struct {
	stop, done chan struct{}
	lost       []float64 // seconds of capacity lost per bin; read after halt
}

// workForgiven is the overshoot streamrt's instance.work absorbs per
// sleep (its minSleep).
const workForgiven = 2 * time.Millisecond

// hostStallShare is half the smallest cost inflation that moves an
// optimum of the schedule (`work` at 850 rec/s: 3.4 → above 4 at
// 17.6%), so a stall split between two bins is still seen in one.
const hostStallShare = 0.08

// autoMaxExempt is how many phases of one schedule a host stall may
// excuse; a program change that delays every sleeper must fail, not
// excuse itself.
const autoMaxExempt = 2

func watchHost(now func() float64) *hostWatch {
	w := &hostWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		var owed time.Duration
		for {
			select {
			case <-w.stop:
				return
			default:
			}
			owed += workCost
			t0 := time.Now()
			time.Sleep(owed)
			owed -= time.Since(t0)
			bin := int(now() / autoInterval)
			for len(w.lost) <= bin {
				w.lost = append(w.lost, 0)
			}
			if owed < -workForgiven {
				w.lost[bin] += (-workForgiven - owed).Seconds()
				owed = -workForgiven
			}
		}
	}()
	return w
}

func (w *hostWatch) halt() {
	close(w.stop)
	<-w.done
}

// stalled returns the most a bin lost, in ms, among those that reach
// the controller inside job time [start, end) — from one interval
// before start, whose report is decided on inside it — and whether that
// is a stall.
func (w *hostWatch) stalled(start, end float64) (float64, bool) {
	worst := 0.0
	for bin := max(int(start/autoInterval)-1, 0); bin < len(w.lost) && float64(bin)*autoInterval < end; bin++ {
		worst = max(worst, w.lost[bin])
	}
	return worst * 1e3, worst > hostStallShare*autoInterval
}

// stampedEngine sits between the service's AttachedJob and the job: it
// keeps every interval, stamps NextInterval's return and Rescale's call
// and return, and ends the run cleanly once the schedule is over.
type stampedEngine struct {
	job    *streamrt.Job
	r      *run
	parent func() spanID
	endAt  float64 // job time the schedule ends

	// Appended to by the AttachedJob's one driving goroutine, read after
	// its Run has returned.
	intervals []stampedInterval
	rescales  []stampedRescale
}

type stampedInterval struct {
	iv        streamrt.Interval
	ret       time.Time // NextInterval's return
	collectMs float64   // return minus the cut: what collecting cost
}

type stampedRescale struct {
	from, to dataflow.Parallelism
	callJob  float64 // job time of the call
	callMs   float64 // the Rescale call itself
	effMs    float64 // return of the interval that led to it → Rescale's return
}

func (e *stampedEngine) NextInterval(d float64) (streamrt.Interval, error) {
	if e.job.Now() >= e.endAt {
		return streamrt.Interval{}, streamrt.ErrStopped
	}
	var iv streamrt.Interval
	var err error
	e.r.call(e.parent(), "NextInterval", func() { iv, err = e.job.NextInterval(d) })
	if err != nil {
		return iv, err
	}
	e.intervals = append(e.intervals, stampedInterval{iv: iv, ret: time.Now(), collectMs: (e.job.Now() - iv.End) * 1e3})
	return iv, nil
}

func (e *stampedEngine) Rescale(p dataflow.Parallelism) error {
	sr := stampedRescale{from: e.job.Parallelism(), to: p.Clone(), callJob: e.job.Now()}
	var err error
	sr.callMs = ms(e.r.call(e.parent(), "Rescale", func() { err = e.job.Rescale(p) }))
	if n := len(e.intervals); n > 0 {
		sr.effMs = ms(time.Since(e.intervals[n-1].ret))
	}
	e.rescales = append(e.rescales, sr)
	return err
}

func (e *stampedEngine) Parallelism() dataflow.Parallelism { return e.job.Parallelism() }

// RescaleTraces lets the runtime piggyback span timelines on reports,
// as it does for a bare *Job.
func (e *stampedEngine) RescaleTraces() []obs.TraceView { return e.job.RescaleTraces() }

type autoscaleWL struct {
	keys []string
	srv  *service.Server
	hs   *httptest.Server

	phase atomic.Uint64 // span of the phase now running
}

func (w *autoscaleWL) teardown() {
	if w.hs != nil {
		w.hs.Close()
		w.srv.Close()
		w.hs, w.srv = nil, nil
	}
}

// build compiles the pipeline for a schedule. probes is nil untraced.
func (w *autoscaleWL) build(rates []float64, phaseSec float64, probes *userProbes) (*streamrt.Pipeline, error) {
	keys := w.keys
	rate := func(t float64) float64 {
		return rates[min(max(int(t/phaseSec), 0), len(rates)-1)]
	}
	return streamrt.NewPipeline().
		AddSource("src", streamrt.SourceSpec{
			Rate: rate,
			Next: probes.wrapNext(func(seq int64) (string, any) { return keys[seq%int64(len(keys))], nil }),
		}).
		AddOperator("work", streamrt.OperatorSpec{
			Cost: workCost,
			Process: probes.wrapProcess(func(_ any, key string, v any, emit streamrt.Emit) any {
				emit(key, v)
				return nil
			}),
		}).
		AddOperator("count", streamrt.OperatorSpec{
			Keyed: true, Cost: countCost,
			State: probes.wrapState(streamrt.IntStateCodec{}),
			Process: probes.wrapProcess(func(state any, _ string, _ any, _ streamrt.Emit) any {
				c, _ := state.(int)
				return c + 1
			}),
		}).
		AddEdge("src", "work").AddEdge("work", "count").
		Build()
}

// setup boots the scaling service on HTTP loopback, draws the key
// permutation and runs the pipeline for a few intervals untimed.
func (w *autoscaleWL) setup(r *run) error {
	w.keys = keyPermutation(r.seed, autoKeys)
	w.srv = service.NewServer(service.ServerConfig{})
	w.hs = httptest.NewServer(w.srv)
	res, err := w.drive(r, "warm-up", autoRates[:1], r.scaled(0.6, 0.3), false)
	if err != nil {
		return err
	}
	if res.delivered == 0 {
		return fmt.Errorf("autoscale warm-up delivered nothing")
	}
	return nil
}

// autoResult is one driven schedule.
type autoResult struct {
	pipe      *streamrt.Pipeline
	eng       *stampedEngine
	trace     controlloop.Trace
	state     map[string]any
	delivered int64
	tt        *timedTransport
	probes    *userProbes
	traces    []obs.TraceView
	host      *hostWatch
}

// drive runs one schedule under the ds2 autoscaler through the service:
// open loop, one rate per phase, attached over real HTTP.
func (w *autoscaleWL) drive(r *run, name string, rates []float64, phaseSec float64, traced bool) (autoResult, error) {
	var res autoResult
	ph := r.phase(r.root, name)
	defer r.tr.end(ph)
	w.phase.Store(uint64(ph))
	parent := func() spanID { return spanID(w.phase.Load()) }

	cfg := streamrt.Config{}
	if traced {
		res.probes = new(userProbes)
		cfg.Metrics = obs.NewRegistry()
	}
	pipe, err := w.build(rates, phaseSec, res.probes)
	if err != nil {
		return res, err
	}
	res.pipe = pipe
	hc := &http.Client{Timeout: 2 * time.Minute}
	if traced {
		res.tt = &timedTransport{inner: http.DefaultTransport, r: r, parent: parent}
		hc.Transport = res.tt
	}
	client := service.NewClient(w.hs.URL, hc)

	initial := dataflow.Parallelism{"src": 1, "work": 1, "count": 1}
	total := phaseSec * float64(len(rates))
	var job *streamrt.Job
	r.call(ph, "NewJob", func() { job, err = streamrt.NewJob(pipe, initial, cfg) })
	if err != nil {
		return res, err
	}
	res.eng = &stampedEngine{job: job, r: r, parent: parent, endAt: total}
	res.host = watchHost(job.Now)

	// Phase spans are cut on the schedule's own clock.
	stopPhases := make(chan struct{})
	var phasesDone sync.WaitGroup
	if traced && len(rates) > 1 {
		phasesDone.Add(1)
		go func() {
			defer phasesDone.Done()
			for k := range rates {
				id := r.phase(ph, fmt.Sprintf("phase%02d@%g", k, rates[k]))
				w.phase.Store(uint64(id))
				select {
				case <-stopPhases:
				case <-time.After(time.Duration((float64(k+1)*phaseSec - job.Now()) * float64(time.Second))):
				}
				r.tr.end(id)
			}
		}()
	}

	spec := service.JobSpec{
		Name:         "ds2bench-" + name,
		Operators:    []service.JobOperator{{Name: "src"}, {Name: "work"}, {Name: "count"}},
		Edges:        [][2]string{{"src", "work"}, {"work", "count"}},
		Initial:      initial,
		Autoscaler:   service.AutoscalerDS2,
		IntervalSec:  autoInterval,
		MaxIntervals: int(4*total/autoInterval) + 16,
		Manager:      &service.ManagerConfig{TargetRateRatio: 0.8},
	}
	attached := service.NewAttachedJob(client, streamrt.NewEngineRuntime(res.eng), spec)
	res.trace, err = attached.Run()
	res.host.halt()
	close(stopPhases)
	phasesDone.Wait()
	w.phase.Store(uint64(ph))
	var states map[string]map[string]any
	r.call(ph, "Stop", func() { states = job.Stop() })
	if attached.ID != "" {
		if _, derr := client.Deregister(attached.ID); derr != nil && err == nil {
			err = derr
		}
	}
	if err != nil {
		return res, err
	}
	res.state = states["count"]
	res.delivered = sumCounts(res.state)
	res.traces = job.RescaleTraces()
	return res, nil
}

// phaseOutcome is what one phase of the schedule ended as.
type phaseOutcome struct {
	rescales int
	final    dataflow.Parallelism
	recoverS float64 // the whole phase when no interval recovered
}

// outcomes walks the stamps phase by phase: how many rescales each
// phase took, the configuration it ended at, and how long after its
// opening step the first interval reported ≥ 0.95 of the new target.
func outcomes(eng *stampedEngine, rates []float64, phaseSec float64) []phaseOutcome {
	out := make([]phaseOutcome, len(rates))
	cur := dataflow.Parallelism{"src": 1, "work": 1, "count": 1}
	ri := 0
	for k := range rates {
		start, end := float64(k)*phaseSec, float64(k+1)*phaseSec
		for ; ri < len(eng.rescales) && eng.rescales[ri].callJob < end; ri++ {
			out[k].rescales++
			cur = eng.rescales[ri].to
		}
		out[k].final = cur.Clone()
		out[k].recoverS = phaseSec
		for _, si := range eng.intervals {
			iv := si.iv
			if iv.End <= start || iv.End > end {
				continue
			}
			achieved := 0.0
			for _, v := range iv.SourceObserved {
				achieved += v
			}
			if achieved >= 0.95*rates[k] {
				out[k].recoverS = iv.End - start
				break
			}
		}
	}
	return out
}

// explainPhase prints what the controller saw in a phase that failed its
// check: per interval the deployment, the source's target and achieved
// rate and each operator's measured cost per record (the sleep plus
// whatever the host added), and every rescale.
func explainPhase(eng *stampedEngine, start, end float64) {
	for _, si := range eng.intervals {
		iv := si.iv
		if iv.End <= start || iv.Start >= end {
			continue
		}
		fmt.Printf("#   interval %.3f-%.3f %v target %.0f achieved %.0f;", iv.Start, iv.End, iv.Parallelism,
			iv.TargetRates["src"], iv.SourceObserved["src"])
		for _, op := range []string{"work", "count"} {
			var n, useful float64
			for _, wm := range iv.Windows {
				if wm.ID.Operator == op {
					n += wm.Processed
					useful += wm.Useful()
				}
			}
			fmt.Printf(" %s %.0f records at %.2f ms", op, n, 1e3*useful/max(n, 1))
		}
		fmt.Println()
	}
	for _, sr := range eng.rescales {
		if sr.callJob >= start && sr.callJob < end {
			fmt.Printf("#   rescale at %.3f: %v -> %v in %.0f ms\n", sr.callJob, sr.from, sr.to, sr.callMs)
		}
	}
}

// autoScore is what score extracts from a driven schedule, for the
// caller to report in its own mode.
type autoScore struct {
	deliveredFrac float64
	recoverS      []float64 // per rate step (phases 1..)
	upEffMs       []float64
	upCallMs      []float64
	downCallMs    []float64
	stepsMax      int
	exempt        int // phases a host stall excused
}

// score turns a driven schedule into checked operations and metric
// values.
func (w *autoscaleWL) score(r *run, res autoResult, rates []float64, phaseSec float64) autoScore {
	var sc autoScore
	outs := outcomes(res.eng, rates, phaseSec)
	for k, o := range outs {
		want := autoOptimum(rates[k])
		ok := o.final.Equal(want) && o.rescales <= autoMaxSteps
		fmt.Printf("# autoscale phase %2d at %4g rec/s: %d rescales -> %v (optimum %v)\n", k, rates[k], o.rescales, o.final, want)
		if !ok {
			explainPhase(res.eng, float64(k)*phaseSec, float64(k+1)*phaseSec)
			overMs, stall := res.host.stalled(float64(k)*phaseSec, float64(k+1)*phaseSec)
			fmt.Printf("#   the host cost an instance %.1f ms in the worst %g s interval; a stall is %.0f ms\n",
				overMs, autoInterval, hostStallShare*autoInterval*1e3)
			if stall && sc.exempt < autoMaxExempt {
				sc.exempt++
				ok = true
				fmt.Println("#   excused: the analytic optimum assumes sleeps end on time")
			}
		}
		r.op(ok, "autoscale phase %d at %g rec/s: %d rescales, ended at %v; want at most %d and %v",
			k, rates[k], o.rescales, o.final, autoMaxSteps, want)
		if k > 0 {
			sc.recoverS = append(sc.recoverS, o.recoverS)
		}
		sc.stepsMax = max(sc.stepsMax, o.rescales)
	}
	err := checkCounts(res.state, w.keys, res.delivered)
	r.op(err == nil, "autoscale exactly-once: %v", err)
	sc.deliveredFrac = float64(res.delivered) / scheduleIntegral(rates, phaseSec)
	for _, sr := range res.eng.rescales {
		switch scaleDirection(sr.from, sr.to) {
		case 1:
			sc.upEffMs = append(sc.upEffMs, sr.effMs)
			sc.upCallMs = append(sc.upCallMs, sr.callMs)
		case -1:
			sc.downCallMs = append(sc.downCallMs, sr.callMs)
		}
	}
	return sc
}

func (w *autoscaleWL) measure(r *run) error {
	phaseSec := r.scaled(autoPhaseSec, 1.2)
	rates := autoRates
	if r.scale < 0.5 {
		rates = autoRates[:2] // smoke: one step up exercises every path
	}
	res, err := w.drive(r, "steps", rates, phaseSec, false)
	if err != nil {
		return err
	}
	sc := w.score(r, res, rates, phaseSec)
	worstMs, _ := res.host.stalled(0, phaseSec*float64(len(rates)))
	fmt.Printf("# autoscale-steps: at most %d rescales in a phase, %d phases excused; the host cost an instance at most %.1f ms per %g s interval\n",
		sc.stepsMax, sc.exempt, worstMs, autoInterval)
	r.e2e("delivered_frac", sc.deliveredFrac)
	r.e2e("recover_s_mean", mean(sc.recoverS), sc.recoverS...)
	r.e2e("scaleup_effect_ms_p50", median(sc.upEffMs), sc.upEffMs...)
	return nil
}

// tracedRun drives the first half of the schedule twice — untraced,
// then traced — so trace.overhead_frac compares like with like inside
// one run's time budget.
func (w *autoscaleWL) tracedRun(r *run) error {
	phaseSec := r.scaled(autoPhaseSec, 1.2)
	rates := autoRates[:6]
	if r.scale < 0.5 {
		rates = autoRates[:2]
	}
	base, err := w.drive(r, "steps-untraced", rates, phaseSec, false)
	if err != nil {
		return err
	}
	baseScore := w.score(r, base, rates, phaseSec)
	res, err := w.drive(r, "steps", rates, phaseSec, true)
	if err != nil {
		return err
	}
	sc := w.score(r, res, rates, phaseSec)
	if b := median(baseScore.upEffMs); b > 0 {
		r.layer("trace.overhead_frac", median(sc.upEffMs)/b-1, sc.upEffMs...)
	}

	tt := res.tt
	r.layer("service.report_rtt_ms_p50", median(tt.rtt["Report"]), tt.rtt["Report"]...)
	r.layer("service.poll_rtt_ms_p50", median(tt.rtt["PollAction"]), tt.rtt["PollAction"]...)
	r.layer("service.ack_rtt_ms_p50", median(tt.rtt["Ack"]), tt.rtt["Ack"]...)
	r.layer("service.report_bytes_p50", median(tt.reportBytes), tt.reportBytes...)
	r.layer("service.reports", float64(len(tt.rtt["Report"])))
	r.layer("service.reports_refused", float64(tt.refused))

	// The decision itself, offline: snapshot building plus Eq. 7–8 on
	// every interval the run collected.
	pol, err := core.NewPolicy(res.pipe.Graph(), core.PolicyConfig{})
	if err != nil {
		return err
	}
	var decideUs, collectMs []float64
	over := 0
	for _, si := range res.eng.intervals {
		t0 := time.Now()
		snap, err := si.iv.Observation().Snapshot()
		if err == nil {
			_, err = pol.Decide(snap, si.iv.Parallelism, 1)
		}
		if err == nil {
			decideUs = append(decideUs, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		collectMs = append(collectMs, si.collectMs)
		target := 0.0
		for _, v := range si.iv.TargetRates {
			target += v
		}
		if si.iv.Parallelism.Total() > autoOptimum(target).Total() {
			over++
		}
	}
	r.layer("core.decide_us_p50", median(decideUs), decideUs...)
	r.layer("streamrt.collect_ms_p50", median(collectMs), collectMs...)
	r.layer("core.decisions", float64(res.trace.Decisions))
	r.layer("core.rescales_per_step", float64(len(res.eng.rescales))/float64(len(rates)-1))
	r.layer("core.steps_max", float64(sc.stepsMax))
	r.layer("core.overprovisioned_intervals", float64(over))
	r.layer("rescale.up_call_ms_p50", median(sc.upCallMs), sc.upCallMs...)
	r.layer("rescale.down_call_ms_p50", median(sc.downCallMs), sc.downCallMs...)
	rescalePhases(r, res.traces)
	res.probes.print("autoscale-steps")
	return nil
}

// rescalePhases reports the median of each phase of the job's retained
// rescale and savepoint timelines.
func rescalePhases(r *run, traces []obs.TraceView) {
	by := make(map[string][]float64)
	var downtime []float64
	for _, tv := range traces {
		for _, s := range tv.Spans {
			if s.Parent == 0 {
				by[s.Name] = append(by[s.Name], ms(s.Duration()))
			}
		}
		if fr, ok := tv.Span("first_record"); ok {
			downtime = append(downtime, float64(fr.EndNs)/1e6)
		}
	}
	for _, p := range []string{"drain", "snapshot", "restart", "first_record"} {
		if len(by[p]) > 0 {
			r.layer("rescale."+p+"_ms_p50", median(by[p]), by[p]...)
		}
	}
	if len(downtime) > 0 {
		r.layer("rescale.downtime_ms_p50", median(downtime), downtime...)
	}
}
