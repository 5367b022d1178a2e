package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"sort"
	"sync"
	"time"
)

// spec defines one metric. The end-to-end table below is the single
// source BENCHMARK.json is checked against (see TestBenchmarkJSON).
type spec struct {
	Name   string
	Unit   string
	Higher bool
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen; 0 for per-layer metrics, which have none.
	Bound float64
	// Workloads lists where an end-to-end metric is measured; on every
	// other workload it does not exist (see contractLine).
	Workloads []string
}

const (
	wlQ1Local   = "q1-local"
	wlQ5Local   = "q5-local"
	wlQ1Dist    = "q1-dist"
	wlAutoscale = "autoscale-steps"
	wlReconfig  = "reconfig-200k"
	wlTable4    = "sim-table4"
)

var workloadNames = []string{wlQ1Local, wlQ5Local, wlQ1Dist, wlAutoscale, wlReconfig, wlTable4}

var endToEnd = []spec{
	{Name: "setup_s", Unit: "s", Bound: 0.25, Workloads: workloadNames},
	{Name: "records_per_s", Unit: "rec/s", Higher: true, Bound: 0.25, Workloads: []string{wlQ1Local, wlQ5Local, wlQ1Dist}},
	{Name: "record_latency_ms_p50", Unit: "ms", Bound: 0.25, Workloads: []string{wlQ1Local, wlQ1Dist}},
	{Name: "record_latency_ms_p99", Unit: "ms", Bound: 0.25, Workloads: []string{wlQ1Local, wlQ1Dist}},
	{Name: "paced_achieved_frac", Unit: "ratio", Higher: true, Bound: 0.15, Workloads: []string{wlQ1Local, wlQ5Local}},
	{Name: "delivered_frac", Unit: "ratio", Higher: true, Bound: 0.06, Workloads: []string{wlAutoscale}},
	{Name: "recover_s_mean", Unit: "s", Bound: 0.2, Workloads: []string{wlAutoscale}},
	{Name: "scaleup_effect_ms_p50", Unit: "ms", Bound: 0.25, Workloads: []string{wlAutoscale}},
	{Name: "rescale_ms_min", Unit: "ms", Bound: 0.25, Workloads: []string{wlReconfig}},
	{Name: "savepoint_ms_min", Unit: "ms", Bound: 0.25, Workloads: []string{wlReconfig}},
	{Name: "restore_ms_min", Unit: "ms", Bound: 0.25, Workloads: []string{wlReconfig}},
	{Name: "table4_s", Unit: "s", Bound: 0.25, Workloads: []string{wlTable4}},
}

func (s spec) native(workload string) bool { return slices.Contains(s.Workloads, workload) }

func findSpec(table []spec, name string) (spec, bool) {
	for _, s := range table {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

// measured is one metric's result in a run: the reported value plus the
// raw per-repetition values it was reduced from.
type measured struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	N      int       `json:"n"`
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
	Raw    []float64 `json:"raw,omitempty"`
}

func newMeasured(unit string, value float64, raw []float64) *measured {
	m := &measured{Value: value, Unit: unit, N: len(raw), Median: median(raw), Raw: raw}
	m.Q1, m.Q3, _ = quartiles(raw)
	return m
}

// run is one workload's execution: its parameters, the metrics it has
// reported so far, the operation counts and (when traced) the spans.
type run struct {
	workload string
	seed     int64
	// scale stretches every phase length and record count: 1 is the
	// full-size run that -seconds 18 asks for, 1/50 the smoke run.
	scale  float64
	traced bool
	outDir string

	tr   *tracer
	root spanID

	attempted int
	failed    int
	failures  []string
	metrics   map[string]*measured
	wallS     float64
	calib     calibration
}

func newRun(workload string, seed int64, scale float64, traced bool, outDir string) *run {
	r := &run{workload: workload, seed: seed, scale: scale, traced: traced, outDir: outDir,
		metrics: make(map[string]*measured)}
	if traced {
		r.tr = newTracer()
	}
	return r
}

// scaled returns n·scale, at least floor.
func (r *run) scaled(n float64, floor float64) float64 {
	return max(n*r.scale, floor)
}

// op counts one checked operation; a false ok is a failure, recorded
// with its reason.
func (r *run) op(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
}

// report records a metric's value with the raw values behind it. The
// name must be in the table for the run's mode — an unknown name is a
// bug in the benchmark, not a condition of the run.
func (r *run) report(name string, value float64, raw ...float64) {
	table := endToEnd
	if r.traced {
		table = perLayer
	}
	s, ok := findSpec(table, name)
	if !ok {
		panic("ds2bench: metric " + name + " is not declared for this mode")
	}
	if len(raw) == 0 {
		raw = []float64{value}
	}
	r.metrics[name] = newMeasured(s.Unit, value, raw)
}

// e2e reports an end-to-end metric; a no-op in traced runs, whose
// output is the per-layer table (end-to-end metrics come from untraced
// runs only).
func (r *run) e2e(name string, value float64, raw ...float64) {
	if !r.traced {
		r.report(name, value, raw...)
	}
}

// layer reports a per-layer metric; a no-op in untraced runs.
func (r *run) layer(name string, value float64, raw ...float64) {
	if r.traced {
		r.report(name, value, raw...)
	}
}

// --- spans ------------------------------------------------------------------

type spanID uint64

type span struct {
	name       string
	start, end int64 // ns since the tracer started
	id, parent spanID
}

// tracer keeps the traced run's spans in memory until the run ends.
// Only calls into the program's public API get a span; per-record work
// is counted, never spanned.
type tracer struct {
	t0 time.Time
	mu sync.Mutex
	sp []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id; a nil tracer returns 0.
func (t *tracer) begin(name string, parent spanID) spanID {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sp = append(t.sp, span{name: name, start: now, id: spanID(len(t.sp) + 1), parent: parent})
	return spanID(len(t.sp))
}

func (t *tracer) end(id spanID) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.sp[id-1].end = now
	t.mu.Unlock()
}

// call times fn, as a span under parent when tracing.
func (r *run) call(parent spanID, name string, fn func()) time.Duration {
	id := r.tr.begin(name, parent)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	r.tr.end(id)
	return d
}

// phase opens a span for a phase or repetition; close it with r.tr.end.
func (r *run) phase(parent spanID, name string) spanID { return r.tr.begin(name, parent) }

// selfTimes returns each span's duration minus the part of it its
// direct children cover (children of one parent never overlap here:
// every span is opened and closed on the goroutine that owns its
// parent, except RoundTripper spans, which nest under one call each).
func selfTimes(sp []span) []int64 {
	self := make([]int64, len(sp))
	for i, s := range sp {
		self[i] = s.end - s.start
	}
	for _, s := range sp {
		if s.parent != 0 {
			self[s.parent-1] -= s.end - s.start
		}
	}
	return self
}

// writeSpans writes name,start_ns,end_ns,id,parent,self_ns lines.
func (t *tracer) writeSpans(path string) (int, error) {
	t.mu.Lock()
	sp := append([]span(nil), t.sp...)
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,start_ns,end_ns,id,parent,self_ns")
	self := selfTimes(sp)
	for i, s := range sp {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d\n", s.name, s.start, s.end, s.id, s.parent, self[i])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	return len(sp), f.Close()
}

// sortedMetricNames lists the run's reported metrics in table order
// (end-to-end, then per-layer).
func (r *run) sortedMetricNames() []string {
	rank := make(map[string]int)
	for i, s := range endToEnd {
		rank[s.Name] = i
	}
	for i, s := range perLayer {
		rank[s.Name] = len(endToEnd) + i
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return rank[names[a]] < rank[names[b]] })
	return names
}
