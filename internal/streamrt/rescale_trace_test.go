// Rescale trace acceptance: one rescale must yield one causally
// ordered span timeline — every phase present, worker child spans
// inside their coordinator parents, monotone non-overlapping top-level
// phase bounds — and feed the reconfiguration-cost histograms.
package streamrt_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"ds2/internal/dataflow"
	"ds2/internal/obs"
	"ds2/internal/streamrt"
)

// waitCompleteTrace polls until the latest retained rescale trace is
// complete (the trailing first_record span lands from a finisher
// goroutine after Rescale returns).
func waitCompleteTrace(t *testing.T, traces func() []obs.TraceView) obs.TraceView {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		vs := traces()
		if n := len(vs); n > 0 && vs[n-1].Complete {
			return vs[n-1]
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("rescale trace never completed")
	return obs.TraceView{}
}

// requirePhases asserts the named top-level phases are all present,
// coordinator-owned, and laid out back-to-back: each phase starts no
// earlier than the previous one ended.
func requirePhases(t *testing.T, v obs.TraceView, names ...string) map[string]obs.Span {
	t.Helper()
	got := make(map[string]obs.Span, len(names))
	prevEnd := int64(-1)
	for _, name := range names {
		s, ok := v.Span(name)
		if !ok {
			t.Fatalf("trace %s: phase %q missing (spans: %v)", v.ID, name, spanNames(v))
		}
		if s.Worker != -1 {
			t.Errorf("phase %q: worker = %d, want -1 (coordinator)", name, s.Worker)
		}
		if s.Parent != 0 {
			t.Errorf("phase %q: parent = %d, want 0 (top level)", name, s.Parent)
		}
		if s.EndNs < s.StartNs {
			t.Errorf("phase %q: end %d before start %d", name, s.EndNs, s.StartNs)
		}
		if s.StartNs < prevEnd {
			t.Errorf("phase %q starts at %d, overlapping previous phase ending at %d", name, s.StartNs, prevEnd)
		}
		prevEnd = s.EndNs
		got[name] = s
	}
	return got
}

func spanNames(v obs.TraceView) []string {
	names := make([]string, len(v.Spans))
	for i, s := range v.Spans {
		names[i] = s.Name
	}
	return names
}

// requireChild asserts one span exists with the given name parented
// under parent, contained in its bounds, and owned by worker.
func requireChild(t *testing.T, v obs.TraceView, name string, parent obs.Span, worker int) obs.Span {
	t.Helper()
	var s obs.Span
	ok := false
	for _, c := range v.Spans {
		if c.Name == name && c.Parent == parent.ID {
			s, ok = c, true
			break
		}
	}
	if !ok {
		t.Fatalf("trace %s: no span %q under %s#%d (spans: %v)", v.ID, name, parent.Name, parent.ID, spanNames(v))
	}
	if s.Worker != worker {
		t.Errorf("span %q: worker = %d, want %d", name, s.Worker, worker)
	}
	if s.StartNs < parent.StartNs || s.EndNs > parent.EndNs {
		t.Errorf("span %q [%d,%d] outside parent %q [%d,%d]",
			name, s.StartNs, s.EndNs, parent.Name, parent.StartNs, parent.EndNs)
	}
	return s
}

func TestJobRescaleTraceTimeline(t *testing.T) {
	reg := obs.NewRegistry()
	pipe := distWordcountish(t, func(float64) float64 { return 8000 }, 0, 0, 0)
	job, err := streamrt.NewJob(pipe,
		dataflow.Parallelism{"src": 1, "split": 1, "count": 1},
		streamrt.Config{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer job.Stop()

	time.Sleep(100 * time.Millisecond)
	if err := job.Rescale(dataflow.Parallelism{"src": 1, "split": 2, "count": 2}); err != nil {
		t.Fatal(err)
	}
	v := waitCompleteTrace(t, job.RescaleTraces)
	if v.ID != "rescale-1" {
		t.Errorf("trace id = %q, want rescale-1", v.ID)
	}
	// A single-process rescale times drain → snapshot → router_rebuild →
	// restart, then the asynchronous first_record tail.
	ph := requirePhases(t, v, "drain", "snapshot", "router_rebuild", "restart", "first_record")
	if fr := ph["first_record"]; fr.StartNs < ph["restart"].EndNs {
		t.Errorf("first_record starts at %d, before restart ended at %d", fr.StartNs, ph["restart"].EndNs)
	}
	if v.DurationNs < ph["first_record"].EndNs {
		t.Errorf("duration %d < last span end %d", v.DurationNs, ph["first_record"].EndNs)
	}

	var page strings.Builder
	reg.WritePrometheus(&page)
	for _, fam := range []string{"streamrt_rescale_phase_seconds", "streamrt_rescale_downtime_seconds"} {
		if !strings.Contains(page.String(), fam+"_count") {
			t.Errorf("metrics page missing %s samples", fam)
		}
	}
	if !strings.Contains(page.String(), `streamrt_rescale_phase_seconds_count{phase="drain"}`) {
		t.Error("phase histogram missing drain label")
	}
}

func TestClusterRescaleTraceTimeline(t *testing.T) {
	const workers = 2
	reg := obs.NewRegistry()
	pipe := distWordcountish(t, func(float64) float64 { return 8000 }, 0, 0, 0)
	addrs := startWorkers(t, workers, map[string]*streamrt.Pipeline{"wc": pipe})
	cluster, err := streamrt.NewCluster(pipe, "wc",
		dataflow.Parallelism{"src": 1, "split": 2, "count": 2}, addrs,
		streamrt.Config{Metrics: reg, SourceSeqBlock: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	defer cluster.Stop()

	time.Sleep(150 * time.Millisecond)
	if err := cluster.Rescale(dataflow.Parallelism{"src": 1, "split": 3, "count": 4}); err != nil {
		t.Fatal(err)
	}
	v := waitCompleteTrace(t, cluster.RescaleTraces)

	// All six phases, in order, none overlapping.
	ph := requirePhases(t, v,
		"drain", "snapshot", "router_rebuild", "transfer", "restart", "first_record")

	// Each worker contributes RPC child spans under drain/transfer/
	// restart, and its handler-side spans nest under the RPC span.
	for w := 0; w < workers; w++ {
		d := requireChild(t, v, fmt.Sprintf("drain/w%d", w), ph["drain"], w)
		requireChild(t, v, "drain/teardown", d, d.Worker)
		tr := requireChild(t, v, fmt.Sprintf("transfer/w%d", w), ph["transfer"], w)
		requireChild(t, v, "deploy/build", tr, tr.Worker)
		requireChild(t, v, fmt.Sprintf("restart/w%d", w), ph["restart"], w)
	}
	// Every handler-side span appears once per worker.
	for _, handler := range []string{"drain/teardown", "drain/encode_state", "deploy/decode_state", "deploy/build"} {
		n := 0
		for _, s := range v.Spans {
			if s.Name == handler {
				n++
				if s.Worker < 0 || s.Worker >= workers {
					t.Errorf("handler span %q: worker = %d out of range", handler, s.Worker)
				}
			}
		}
		if n != workers {
			t.Errorf("handler span %q: %d copies, want one per worker (%d)", handler, n, workers)
		}
	}
}

// TestClusterRescaleTraceRingAndTotal pins that repeated rescales
// accumulate distinct retained timelines.
func TestClusterRescaleTraceRingAndTotal(t *testing.T) {
	reg := obs.NewRegistry()
	pipe := distWordcountish(t, func(float64) float64 { return 8000 }, 0, 0, 0)
	addrs := startWorkers(t, 2, map[string]*streamrt.Pipeline{"wc": pipe})
	cluster, err := streamrt.NewCluster(pipe, "wc",
		dataflow.Parallelism{"src": 1, "split": 2, "count": 2}, addrs,
		streamrt.Config{Metrics: reg, SourceSeqBlock: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	defer cluster.Stop()

	pars := []dataflow.Parallelism{
		{"src": 1, "split": 3, "count": 3},
		{"src": 1, "split": 1, "count": 2},
	}
	for _, p := range pars {
		time.Sleep(100 * time.Millisecond)
		if err := cluster.Rescale(p); err != nil {
			t.Fatal(err)
		}
	}
	vs := cluster.RescaleTraces()
	if len(vs) != len(pars) {
		t.Fatalf("retained %d traces, want %d", len(vs), len(pars))
	}
	for i, v := range vs {
		if want := fmt.Sprintf("rescale-%d", i+1); v.ID != want {
			t.Errorf("trace %d: id = %q, want %q", i, v.ID, want)
		}
	}
}
