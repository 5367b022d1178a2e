package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs every workload at 1/50 scale, untraced and traced,
// with every oracle on: the benchmark must compile, run clean, fill
// the whole metric table and leave a readable result file.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for about 20 s")
	}
	out := t.TempDir()
	file := resultFile{Commit: "test", Seed: 2}
	for _, traced := range []bool{false, true} {
		for _, name := range workloadNames {
			r, err := execute(name, 2, 1.0/50, traced, out, 1)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if r.attempted == 0 || r.failed != 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", name, traced, r.failed, r.attempted, r.failures)
			}
			table := endToEnd
			if traced {
				table = perLayer
			}
			for m := range r.metrics {
				if _, ok := findSpec(table, m); !ok {
					t.Errorf("%s traced=%v: metric %s is not in the table", name, traced, m)
				}
			}
			for _, s := range endToEnd {
				m := r.metrics[s.Name]
				switch {
				case traced || !s.native(name):
					if m != nil {
						t.Errorf("%s traced=%v: reported %s, which it does not measure", name, traced, s.Name)
					}
				case m == nil:
					t.Errorf("%s: end-to-end metric %s missing", name, s.Name)
				case m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", name, s.Name, m.Value)
				}
			}
			if traced {
				for _, n := range tracedOwn[name] {
					if r.metrics[n] == nil {
						t.Errorf("%s: per-layer metric %s missing", name, n)
					}
				}
			}
			var line struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(contractLine(r)), &line); err != nil {
				t.Fatalf("%s: contract line does not parse: %v", name, err)
			}
			if !line.Correct || line.Attempted != r.attempted || len(line.Metrics) != len(table) {
				t.Errorf("%s traced=%v: contract line %+v", name, traced, line)
			}
			for _, s := range table {
				if m, ok := line.Metrics[s.Name]; !ok || m.Unit != s.Unit || (!traced && m.Value <= 0) {
					t.Errorf("%s traced=%v: contract line has %s = %+v", name, traced, s.Name, m)
				}
			}
			if traced {
				spans, err := os.ReadFile(filepath.Join(out, "spans-"+name+"-seed2.csv"))
				if err != nil || !strings.HasPrefix(string(spans), "name,start_ns,end_ns,id,parent,self_ns\n") {
					t.Errorf("%s: span file: %v", name, err)
				}
			}
			file.Workloads = append(file.Workloads, workloadResult{
				Name: name, Traced: traced, WallS: r.wallS,
				Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics,
			})
		}
	}

	// A result file compared with itself agrees on every pair.
	path, err := file.write(out)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if code := compareFiles(&buf, []string{path}, []string{path}); code != 0 {
		t.Errorf("self-comparison exited %d:\n%s", code, buf.String())
	}
	if strings.Contains(buf.String(), "REGRESSION") || !strings.Contains(buf.String(), "records_per_s") {
		t.Errorf("self-comparison output:\n%s", buf.String())
	}
	left, _ := filepath.Glob(filepath.Join(out, "savepoints-*"))
	if len(left) != 0 {
		t.Errorf("savepoint directories left behind: %v", left)
	}
}

// tracedOwn names, per workload, a few per-layer metrics only that
// workload's traced run can report: enough to catch a layer that went
// silent.
var tracedOwn = map[string][]string{
	wlQ1Local:   {"nexmark.bidgen_ns", "streamrt.map.proc_frac", "streamrt.batch.records_per_flush", "ladder.residual_ns", "obs.exporter_overhead_frac"},
	wlQ5Local:   {"window.proc_frac", "window.fired_results", "window.latency_samples"},
	wlQ1Dist:    {"transport.data_bytes_per_record", "transport.frames"},
	wlAutoscale: {"service.poll_rtt_ms_p50", "core.decide_us_p50", "core.steps_max", "rescale.up_call_ms_p50", "rescale.downtime_ms_p50"},
	wlReconfig:  {"checkpoint.save_ms_p50", "checkpoint.bytes", "rescale.drain_ms_p50"},
	wlTable4:    {"engine.sim_second_us", "core.table4_max_steps", "trace.overhead_frac"},
}

// TestCompareFlagsRegression feeds -compare two hand-made sides.
func TestCompareFlagsRegression(t *testing.T) {
	mk := func(rps []float64, failed int) *side {
		s := &side{
			values:    map[string]map[string][]float64{wlQ1Local: {"records_per_s": rps}},
			within:    map[string]map[string][]float64{wlQ1Local: {}},
			attempted: map[string]int{wlQ1Local: 7 * len(rps)}, failed: map[string]int{wlQ1Local: failed},
		}
		return s
	}
	base := mk([]float64{100, 101, 99, 100, 102}, 0)
	var buf bytes.Buffer
	if code := compareSides(&buf, base, mk([]float64{97, 98, 99, 98, 97}, 0)); code != 0 {
		t.Errorf("a 2%% drop inside a 25%% bound exited %d:\n%s", code, buf.String())
	}
	buf.Reset()
	if code := compareSides(&buf, base, mk([]float64{70, 71, 69, 70, 70}, 0)); code != 1 || !strings.Contains(buf.String(), "REGRESSION") {
		t.Errorf("a 30%% drop exited %d:\n%s", code, buf.String())
	}
	buf.Reset()
	if code := compareSides(&buf, base, mk([]float64{60, 100, 140, 80, 120}, 0)); code != 0 || !strings.Contains(buf.String(), "unresolved") {
		t.Errorf("a side noisier than the bound exited %d:\n%s", code, buf.String())
	}
	buf.Reset()
	if code := compareSides(&buf, base, mk([]float64{100, 101, 99, 100, 102}, 1)); code != 1 {
		t.Errorf("a higher failed share exited %d:\n%s", code, buf.String())
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to the tables in the code and
// to the limits of the driver's contract.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bj struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
	if bj.RunSeconds != fullSeconds {
		t.Errorf("run_seconds = %d, the code is laid out for %d", bj.RunSeconds, fullSeconds)
	}
	if len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, code has %d", len(bj.Workloads), len(workloadNames))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, code has %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (has %d)", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []metric, want []spec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, code has %d", kind, len(got), len(want))
		}
		for i, m := range got {
			s := want[i]
			better := "lower"
			if s.Higher {
				better = "higher"
			}
			if m.Name != s.Name || m.Unit != s.Unit || m.Better != better {
				t.Errorf("%s %d: %+v, code has %+v", kind, i, m, s)
			}
			if len(m.Name) > 64 || len(m.Unit) > 16 {
				t.Errorf("%s %s: name or unit too long", kind, m.Name)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound != s.Bound || *m.Bound <= 0 || *m.Bound > 0.25):
				t.Errorf("%s %s: bound %v, code has %v (limit 0.25)", kind, m.Name, m.Bound, s.Bound)
			case !bounded && m.Bound != nil:
				t.Errorf("%s %s: per-layer metrics have no bound", kind, m.Name)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
	if len(bj.PerLayer) > 128 || len(bj.EndToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed 16 and 128", len(bj.EndToEnd), len(bj.PerLayer))
	}
	if bj.EndToEnd[0].Name != "setup_s" {
		t.Error("setup_s must be declared")
	}
	for _, m := range bj.EndToEnd {
		if *m.Bound > *bj.EndToEnd[0].Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
}
