// Command ds2bench is the repository's benchmark: six workloads over the
// live runtime, the scaling service and the simulator, each checked
// against an oracle, reporting the end-to-end metrics BENCHMARK.json
// bounds (untraced) or the per-layer decomposition and a span file
// (-trace 1). It measures every layer from outside, through the
// packages' public functions; see ../README.md.
//
//	ds2bench -workload q1-local -seed 1 -seconds 18 -trace 0
//	ds2bench -smoke
//	ds2bench -compare a.json[,a2.json...] b.json[,b2.json...]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// fullSeconds is the measuring time the full-size parameters (scale 1)
// are laid out for; -seconds stretches or shrinks every phase
// proportionally.
const fullSeconds = 18

// workload is one of the six benchmark workloads.
type workload interface {
	// setup does everything that precedes the first timed phase. It is
	// called several times per run (setup_s is the median) and must be
	// callable again after teardown.
	setup(r *run) error
	teardown()
	// measure runs the untraced phases and reports end-to-end metrics.
	measure(r *run) error
	// tracedRun runs the traced phases and reports per-layer metrics.
	tracedRun(r *run) error
}

func newWorkload(name string) (workload, error) {
	switch name {
	case wlQ1Local:
		return newQ1Local(), nil
	case wlQ5Local:
		return newQ5Local(), nil
	case wlQ1Dist:
		return newQ1Dist(), nil
	case wlAutoscale:
		return new(autoscaleWL), nil
	case wlReconfig:
		return new(reconfigWL), nil
	case wlTable4:
		return new(table4WL), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// execute runs one workload start to finish: repeated set-up, the
// measured phases, tear-down, and the bookkeeping that completes the
// metric table.
func execute(name string, seed int64, scale float64, traced bool, outDir string, setupReps int) (*run, error) {
	w, err := newWorkload(name)
	if err != nil {
		return nil, err
	}
	r := newRun(name, seed, scale, traced, outDir)
	defer w.teardown()

	var setupS []float64
	for i := 0; i < setupReps; i++ {
		w.teardown()
		t0 := time.Now()
		if err := w.setup(r); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	// Warm-up operations are checked like any other, but only the
	// measured phases count towards attempted and failed.
	if r.failed > 0 {
		return nil, fmt.Errorf("%s: set-up: %s", name, strings.Join(r.failures, "; "))
	}
	r.attempted = 0

	r.root = r.phase(0, name)
	t0 := time.Now()
	if traced {
		err = w.tracedRun(r)
	} else {
		err = w.measure(r)
	}
	r.wallS = time.Since(t0).Seconds()
	r.tr.end(r.root)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	w.teardown()

	r.calib = calibrate(int(r.scaled(9, 1)))
	if traced {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.csv", name, seed))
		n, err := r.tr.writeSpans(path)
		if err != nil {
			return nil, err
		}
		fmt.Printf("# %d spans written to %s\n", n, path)
		r.layer("trace.spans", float64(n))
		r.layer("harness.calib_ms", r.calib.spinMs)
		return r, nil
	}
	r.e2e("setup_s", median(setupS), setupS...)
	for _, s := range endToEnd {
		if _, ok := r.metrics[s.Name]; !ok && s.native(name) {
			return nil, fmt.Errorf("%s: metric %s was not measured", name, s.Name)
		}
	}
	return r, nil
}

// --- output -------------------------------------------------------------------

// workloadResult is one workload's part of a result file.
type workloadResult struct {
	Name      string               `json:"name"`
	Traced    bool                 `json:"traced"`
	WallS     float64              `json:"wall_s"`
	Attempted int                  `json:"ops_attempted"`
	Failed    int                  `json:"ops_failed"`
	Failures  []string             `json:"failures,omitempty"`
	CalibMs   float64              `json:"calib_ms"` // the host probe, for telling a drifting host from a regression
	Metrics   map[string]*measured `json:"metrics"`
}

// resultFile is what one invocation leaves in benchmarks/results/.
type resultFile struct {
	Commit     string           `json:"commit"`
	Seed       int64            `json:"seed"`
	Seconds    float64          `json:"seconds"`
	NProc      int              `json:"nproc"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	GoVersion  string           `json:"go_version"`
	Started    string           `json:"started"`
	Workloads  []workloadResult `json:"workloads"`
}

// commit is the VCS revision stamped into the binary; the driver's
// checkouts are not git repositories, so there it is "nogit".
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				return s.Value[:12]
			}
		}
	}
	return "nogit"
}

func (f *resultFile) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return "", err
	}
	for n := 1; ; n++ {
		path := filepath.Join(dir, fmt.Sprintf("%s-%d.json", f.Commit, n))
		fh, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if os.IsExist(err) {
			continue
		}
		if err != nil {
			return "", err
		}
		if _, err := fh.Write(append(data, '\n')); err != nil {
			fh.Close()
			return "", err
		}
		return path, fh.Close()
	}
}

// printTable prints every metric by name with its unit, sample count
// and inter-quartile spread.
func printTable(r *run) {
	fmt.Printf("## %s  seed=%d  traced=%v  wall=%.1fs  ops_attempted=%d ops_failed=%d\n",
		r.workload, r.seed, r.traced, r.wallS, r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Printf("  FAILED %s\n", f)
	}

	for _, name := range r.sortedMetricNames() {
		m := r.metrics[name]
		if m.N == 1 {
			fmt.Printf("  %-34s %14.6g %-6s n=1\n", name, m.Value, m.Unit)
		} else {
			fmt.Printf("  %-34s %14.6g %-6s n=%d median=%.6g iqr=%.1f%%\n", name, m.Value, m.Unit, m.N, m.Median, 100*spread(m.Raw))
		}
	}
	fmt.Printf("  host probe %.4g ms (ratio %.4f)\n", r.calib.spinMs, r.calib.ratio)
}

// contractLine is the driver's result: the last line of standard output.
// The driver wants every metric of the mode's table from every workload,
// and most exist on one or two only (there is no restore in q1-local).
// Only here, never in the printed table or the result file, a slot the
// workload does not measure is filled: an end-to-end slot with the
// host probe's ratio (see calibration), a per-layer slot with 0.
func contractLine(r *run) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]mv)}
	table := endToEnd
	if r.traced {
		table = perLayer
	}
	for _, s := range table {
		switch m := r.metrics[s.Name]; {
		case m != nil:
			out.Metrics[s.Name] = mv{Value: m.Value, Unit: m.Unit}
		case r.traced:
			out.Metrics[s.Name] = mv{Unit: s.Unit}
		default:
			out.Metrics[s.Name] = mv{Value: r.calib.ratio, Unit: s.Unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // finite floats and strings only
	}
	return string(b)
}

func main() {
	var (
		wl      = flag.String("workload", "all", "workload to run, or all: "+strings.Join(workloadNames, ", "))
		seed    = flag.Int64("seed", 1, "seed of the generated inputs and key permutations")
		seconds = flag.Float64("seconds", fullSeconds, "measuring time per workload; phases stretch proportionally")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer metrics and a span file instead of end-to-end metrics")
		smoke   = flag.Bool("smoke", false, "every workload at 1/50 scale with every oracle on")
		outDir  = flag.String("out", filepath.Join("benchmarks", "results"), "directory for result, span and savepoint files")
		compare = flag.String("compare", "", "compare result files: -compare a.json[,a2.json] b.json[,b2.json]")
	)
	flag.Parse()
	if *compare != "" {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: ds2bench -compare a.json[,a2.json...] b.json[,b2.json...]")
			os.Exit(2)
		}
		os.Exit(compareFiles(os.Stdout, strings.Split(*compare, ","), strings.Split(flag.Arg(0), ",")))
	}
	scale, setupReps := *seconds/fullSeconds, 3
	if *smoke {
		scale, setupReps = 1.0/50, 1
	}
	if scale <= 0 {
		fmt.Fprintln(os.Stderr, "ds2bench: -seconds must be positive")
		os.Exit(2)
	}
	names := []string{*wl}
	if *wl == "all" {
		names = workloadNames
	}
	file := resultFile{
		Commit: commit(), Seed: *seed, Seconds: scale * fullSeconds,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Started: time.Now().UTC().Format(time.RFC3339),
	}
	fmt.Printf("# ds2bench commit=%s seed=%d seconds=%g nproc=%d GOMAXPROCS=%d %s\n",
		file.Commit, file.Seed, file.Seconds, file.NProc, file.GOMAXPROCS, file.GoVersion)
	var lines []string
	for _, name := range names {
		r, err := execute(name, *seed, scale, *trace == 1, *outDir, setupReps)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ds2bench:", err)
			os.Exit(1)
		}
		printTable(r)
		file.Workloads = append(file.Workloads, workloadResult{
			Name: name, Traced: r.traced, WallS: r.wallS,
			Attempted: r.attempted, Failed: r.failed, Failures: r.failures, CalibMs: r.calib.spinMs, Metrics: r.metrics,
		})
		lines = append(lines, contractLine(r))
	}
	path, err := file.write(*outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ds2bench:", err)
		os.Exit(1)
	}
	fmt.Printf("# result file %s\n", path)
	for _, l := range lines {
		fmt.Println(l)
	}
}
