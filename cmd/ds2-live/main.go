// Command ds2-live runs a really-executing streaming job on the live
// dataflow runtime (internal/streamrt) and has DS2 scale it from
// wall-clock instrumentation. The -workload flag selects what runs:
// the three-stage word count, or one of the live Nexmark queries
// (q1/q2 map-filter, q3 incremental join, q5 sliding hot-items window,
// q8 tumbling-window join — the windowed queries exercise per-key
// window state that survives live rescales). Three control modes:
//
//	ds2-live                      in-process: the standard Controller
//	                              drives the job directly
//	ds2-live -serve-inproc        boots a ds2d scaling server on HTTP
//	                              loopback and attaches the job through
//	                              the ingestion/poll/ack API — the full
//	                              Fig. 5 cycle in one process
//	ds2-live -addr http://host:7361
//	                              attaches the job to an external ds2d
//
// The source steps from -rate1 to -rate2 at -step seconds, so a
// correctly converging run shows one provisioning decision shortly
// after the step and quiet intervals after it. -require-decision makes
// the exit status assert that (the `make live-smoke` CI gate).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"ds2"
	"ds2/internal/obs"
)

func main() {
	workload := flag.String("workload", "wordcount", "what to run: wordcount, or a Nexmark query (q1|q2|q3|q5|q8)")
	addr := flag.String("addr", "", "external ds2d base URL (e.g. http://127.0.0.1:7361); empty = in-process")
	serveInproc := flag.Bool("serve-inproc", false, "boot a ds2d server on HTTP loopback and attach to it")
	interval := flag.Float64("interval", 0.25, "policy interval in seconds (wall clock)")
	intervals := flag.Int("intervals", 12, "maximum policy intervals")
	stable := flag.Int("stable", 4, "stop after this many consecutive quiet intervals (0 = run all)")
	rate1 := flag.Float64("rate1", 100, "primary-source rate in records/s before the step")
	rate2 := flag.Float64("rate2", 400, "primary-source rate after the step")
	// The default step lands after two quiet intervals — early enough
	// that the -stable stopping rule can never fire before the step is
	// even visible.
	step := flag.Float64("step", 0.6, "job time of the rate step in seconds (0 = no step)")
	seed := flag.Int64("seed", 1, "stream seed")
	zipf := flag.Float64("zipf", 0, "wordcount: zipf skew exponent for word choice (> 1 enables skew)")
	splitCost := flag.Duration("split-cost", 4*time.Millisecond, "wordcount: per-sentence splitter cost")
	countCost := flag.Duration("count-cost", 1200*time.Microsecond, "wordcount: per-word counter cost")
	workers := flag.Int("workers", 0,
		"deploy the workload over this many worker processes (re-execs this binary; Nexmark q1/q5 only; 0 = single-process)")
	distWorker := flag.Int("dist-worker", -1,
		"internal: run as a streamrt worker with this cluster index (spawned by -workers)")
	calibrateScale := flag.Float64("calibrate-scale", 0,
		"nexmark: pace the query's main stage at its measured calibration cost times this scale (0 = built-in defaults)")
	requireDecision := flag.Bool("require-decision", false, "exit nonzero unless at least one scale decision was applied and acked")
	metricsAddr := flag.String("metrics-addr", "",
		"serve the run's telemetry as Prometheus text on this address (e.g. 127.0.0.1:9361); with -serve-inproc the ds2d families share the page")
	requireMetrics := flag.String("require-metrics", "",
		"comma-separated metric families that must appear in a /metrics self-scrape at exit; exit nonzero otherwise (enables the exporter)")
	requireWorkerMetrics := flag.String("require-worker-metrics", "",
		"comma-separated families every spawned worker must serve on its own /metrics at exit, and that must reappear worker-labeled on the ds2d exposition when attached; exit nonzero otherwise (needs -workers)")
	requireRescaleTrace := flag.Bool("require-rescale-trace", false,
		"exit nonzero unless GET /jobs/{id}/rescales serves at least one complete rescale timeline with every phase (needs -serve-inproc or -addr)")
	savepointDir := flag.String("savepoint-dir", "",
		"cut one durable savepoint into this directory (attached modes request it through the service mid-run; in-process cuts it directly after the run)")
	restoreFrom := flag.String("restore-from", "",
		"deploy the job from this savepoint file instead of starting fresh (a path written by -savepoint-dir, e.g. dir/savepoint-1)")
	requireSavepoint := flag.Bool("require-savepoint", false,
		"exit nonzero unless at least one savepoint settled without error and its file is on disk (needs -savepoint-dir)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	mutexprofile := flag.String("mutexprofile", "", "write a mutex-contention profile to this file at exit")
	flag.Parse()
	if *addr != "" && *serveInproc {
		log.Fatal("ds2-live: -addr and -serve-inproc are mutually exclusive")
	}
	distributed := *workers > 0 || *distWorker >= 0
	if distributed {
		if *workload != "q1" && *workload != "q5" {
			log.Fatalf("ds2-live: -workers needs a distributed-capable workload (q1 or q5), not %s", *workload)
		}
		if *calibrateScale > 0 {
			log.Fatal("ds2-live: -calibrate-scale is incompatible with -workers (per-process calibration would diverge)")
		}
	}
	if *requireSavepoint && *savepointDir == "" {
		log.Fatal("ds2-live: -require-savepoint needs -savepoint-dir")
	}
	finishProfiles := startProfiles(*cpuprofile, *memprofile, *mutexprofile)
	defer finishProfiles()

	// The checkpoint store savepoints persist into (nil = savepoints off).
	var spStore *ds2.LiveDirStore
	if *savepointDir != "" {
		st, err := ds2.NewLiveDirStore(*savepointDir)
		if err != nil {
			log.Fatal(err)
		}
		spStore = st
	}

	// The exporter: one shared registry for runtime and (inproc)
	// service telemetry, served over real HTTP so the self-scrape below
	// exercises the same path an external Prometheus would. Rescale
	// tracing rides the same registry (the runtime records spans only
	// when observed), so asserting a timeline turns the exporter on.
	var reg *ds2.ObsRegistry
	var metricsBase string
	if *metricsAddr != "" || *requireMetrics != "" || *requireRescaleTrace {
		reg = ds2.NewObsRegistry()
		listen := *metricsAddr
		if listen == "" {
			listen = "127.0.0.1:0"
		}
		ln, err := net.Listen("tcp", listen)
		if err != nil {
			log.Fatal(err)
		}
		mux := http.NewServeMux()
		mux.Handle("GET /metrics", reg.Handler())
		go func() { _ = (&http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}).Serve(ln) }()
		defer ln.Close()
		metricsBase = "http://" + ln.Addr().String()
		fmt.Printf("metrics on %s/metrics\n", metricsBase)
	}

	var (
		pipeline *ds2.LivePipeline
		initial  ds2.Parallelism
		optimal  ds2.Parallelism
	)
	finalRate := *rate1
	if *step > 0 {
		finalRate = *rate2
	}
	switch *workload {
	case "wordcount":
		cfg := ds2.LiveWordCountConfig{
			Rate1:     *rate1,
			Rate2:     *rate2,
			StepAt:    *step,
			ZipfS:     *zipf,
			Seed:      *seed,
			SplitCost: *splitCost,
			CountCost: *countCost,
		}
		p, err := ds2.LiveWordCount(cfg)
		if err != nil {
			log.Fatal(err)
		}
		pipeline = p
		initial = ds2.Parallelism{
			ds2.LiveWordCountSource: 1,
			ds2.LiveWordCountSplit:  1,
			ds2.LiveWordCountCount:  1,
		}
		optimal = ds2.LiveWordCountOptimal(cfg, finalRate)
	default:
		cfg := ds2.LiveNexmarkConfig{
			Rate1:       *rate1,
			Rate2:       *rate2,
			StepAt:      *step,
			Seed:        *seed,
			Distributed: distributed,
		}
		w, err := ds2.LiveNexmarkQuery(*workload, cfg)
		if err != nil {
			log.Fatal(err)
		}
		if *calibrateScale > 0 {
			cost, err := ds2.LiveNexmarkCalibratedCost(*workload, 100_000, *calibrateScale)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("calibrated %s cost: %v/record\n", w.Main, cost)
			cfg.Costs = map[string]time.Duration{w.Main: cost}
			if w, err = ds2.LiveNexmarkQuery(*workload, cfg); err != nil {
				log.Fatal(err)
			}
		}
		pipeline = w.Pipeline
		initial = w.Initial
		optimal = w.Optimal(finalRate)
	}

	// Worker mode: host operator instances for a coordinating parent.
	// Announce the bound control address (and metrics endpoint, when
	// serving one) on stdout and exit when the parent closes our stdin
	// (so orphaned workers die with it).
	if *distWorker >= 0 {
		w := ds2.NewLiveWorker(*distWorker, map[string]*ds2.LivePipeline{*workload: pipeline}, reg)
		bound, err := w.Listen("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("dist-worker %d %s\n", *distWorker, bound)
		if metricsBase != "" {
			fmt.Printf("dist-worker-metrics %d %s\n", *distWorker, strings.TrimPrefix(metricsBase, "http://"))
		}
		_, _ = io.Copy(io.Discard, os.Stdin)
		w.Close()
		return
	}

	// One job type runs both deployments; -workers only decides where
	// its instances are placed.
	var (
		job               *ds2.LiveJob
		err               error
		workerAddrs       []string
		workerMetricsURLs []string
		store             ds2.LiveCheckpointStore
		spName            string
	)
	if *restoreFrom != "" {
		if store, spName, err = savepointAt(*restoreFrom); err != nil {
			log.Fatal(err)
		}
	}
	cfg := ds2.LiveJobConfig{Metrics: reg}
	if *workers > 0 {
		// Workers serve their own /metrics when anything downstream
		// consumes them: the parent's exporter (federation) or the
		// worker-metrics exit assertion.
		withMetrics := reg != nil || *requireWorkerMetrics != ""
		addrs, maddrs, release := spawnDistWorkers(*workers, *workload, *rate1, *rate2, *step, *seed, withMetrics)
		defer release()
		if store != nil {
			job, err = ds2.NewLiveClusterFromSavepoint(pipeline, *workload, initial, addrs, cfg, store, spName)
		} else {
			job, err = ds2.NewLiveCluster(pipeline, *workload, initial, addrs, cfg)
		}
		workerAddrs, workerMetricsURLs = addrs, maddrs
	} else if store != nil {
		job, err = ds2.NewLiveJobFromSavepoint(pipeline, initial, cfg, store, spName)
	} else {
		job, err = ds2.NewLiveJob(pipeline, initial, cfg)
	}
	if err != nil {
		log.Fatal(err)
	}
	defer job.Close()
	defer job.Stop()
	if store != nil {
		fmt.Printf("restored from savepoint %s\n", *restoreFrom)
	}
	if *workers > 0 {
		fmt.Printf("distributed over %d worker processes: %s\n", *workers, strings.Join(workerAddrs, " "))
	}

	fmt.Printf("== ds2-live %s: %g → %g records/s at t=%gs, interval %gs, optimum %s ==\n",
		*workload, *rate1, *rate2, *step, *interval, optimal)

	// The engine adapter both control modes drive; with -savepoint-dir
	// it also executes savepoint requests into the store.
	rt := ds2.NewLiveRuntime(job)
	if spStore != nil {
		rt.SavepointTo(spStore, "savepoint")
	}
	var savepoints []ds2.SavepointRecord

	var trace ds2.Trace
	serviceBase := ""
	switch {
	case *addr != "" || *serveInproc:
		base := *addr
		if *serveInproc {
			server := ds2.NewScalingServer(ds2.ScalingServerConfig{Metrics: reg})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				log.Fatal(err)
			}
			// The loopback server gets the same hardening as cmd/ds2d:
			// slowloris header timeout and the request-body cap.
			srv := &http.Server{Handler: server, ReadHeaderTimeout: 10 * time.Second}
			go func() { _ = srv.Serve(ln) }()
			defer ln.Close()
			defer server.Close()
			base = "http://" + ln.Addr().String()
			fmt.Printf("ds2d on %s\n", base)
		}
		serviceBase = base
		client := ds2.NewScalingClient(base, nil)
		// Announce the worker fleet (with metrics endpoints) so the
		// service's /metrics federates their expositions.
		for i, a := range workerAddrs {
			info := ds2.WorkerInfo{ID: i, Addr: a}
			if i < len(workerMetricsURLs) {
				info.MetricsAddr = workerMetricsURLs[i]
			}
			if err := client.RegisterWorker(info); err != nil {
				log.Fatal(err)
			}
		}
		operators, edges := graphSpec(pipeline.Graph())
		spec := ds2.JobSpec{
			Name:            "ds2-live-" + *workload,
			Operators:       operators,
			Edges:           edges,
			Initial:         initial,
			Autoscaler:      "ds2",
			IntervalSec:     *interval,
			MaxIntervals:    *intervals,
			StableIntervals: *stable,
			Manager:         &ds2.JobManagerConfig{TargetRateRatio: 0.8},
		}
		attached := ds2.NewAttachedJob(client, rt, spec)
		if spStore != nil {
			// Pre-register so the savepoint can be requested through the
			// service API mid-run — the full request/poll/execute/settle
			// cycle, not an engine-side shortcut. The request lands after
			// a couple of intervals, well inside the run.
			id, err := client.Register(spec)
			if err != nil {
				log.Fatal(err)
			}
			attached.ID = id
			go func() {
				time.Sleep(time.Duration(1.5 * *interval * float64(time.Second)))
				if _, err := client.RequestSavepoint(id); err != nil {
					log.Print("ds2-live: savepoint request: ", err)
				}
			}()
		}
		trace, err = attached.Run()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("job %s driven over HTTP\n", attached.ID)
		if spStore != nil {
			st, err := client.Savepoints(attached.ID)
			if err != nil {
				log.Fatal(err)
			}
			savepoints = st.Savepoints
			for _, r := range savepoints {
				if r.Error != "" {
					fmt.Printf("savepoint %d failed: %s\n", r.Seq, r.Error)
				} else {
					fmt.Printf("savepoint %d written: %s\n", r.Seq, r.Path)
				}
			}
		}
	default:
		policy, err := ds2.NewPolicy(pipeline.Graph(), ds2.PolicyConfig{})
		if err != nil {
			log.Fatal(err)
		}
		manager, err := ds2.NewScalingManager(policy, initial, ds2.ScalingManagerConfig{TargetRateRatio: 0.8})
		if err != nil {
			log.Fatal(err)
		}
		ctrl, err := ds2.NewController(rt, ds2.DS2Autoscaler(manager), ds2.ControllerConfig{
			Interval:        *interval,
			MaxIntervals:    *intervals,
			StableIntervals: *stable,
		})
		if err != nil {
			log.Fatal(err)
		}
		trace, err = ctrl.Run()
		if err != nil {
			log.Fatal(err)
		}
		if spStore != nil {
			// The engine is still deployed (Stop is deferred); cut the
			// savepoint directly — the in-process analogue of the
			// service-requested cycle above.
			path, err := rt.Savepoint()
			if err != nil {
				fmt.Printf("savepoint 1 failed: %v\n", err)
				savepoints = append(savepoints, ds2.SavepointRecord{Seq: 1, Error: err.Error()})
			} else {
				fmt.Printf("savepoint 1 written: %s\n", path)
				savepoints = append(savepoints, ds2.SavepointRecord{Seq: 1, Path: path})
			}
		}
	}

	fmt.Print(trace.String())
	if *requireDecision {
		if trace.Decisions < 1 {
			fmt.Fprintln(os.Stderr, "ds2-live: FAIL: no scale decision was applied")
			finishProfiles()
			os.Exit(2)
		}
		if job.Rescales() < 1 {
			fmt.Fprintln(os.Stderr, "ds2-live: FAIL: the live job performed no redeployment")
			finishProfiles()
			os.Exit(2)
		}
		fmt.Printf("OK: %d decision(s) applied and acked, %d live redeployment(s)\n",
			trace.Decisions, job.Rescales())
	}
	if *requireMetrics != "" {
		want := strings.Split(*requireMetrics, ",")
		if err := assertMetrics(metricsBase, want); err != nil {
			fmt.Fprintln(os.Stderr, "ds2-live: FAIL:", err)
			finishProfiles()
			os.Exit(2)
		}
		fmt.Printf("OK: /metrics is valid exposition and serves all %d required families\n", len(want))
	}
	if *requireWorkerMetrics != "" {
		want := strings.Split(*requireWorkerMetrics, ",")
		if err := assertWorkerMetrics(workerMetricsURLs, serviceBase, want); err != nil {
			fmt.Fprintln(os.Stderr, "ds2-live: FAIL:", err)
			finishProfiles()
			os.Exit(2)
		}
		fmt.Printf("OK: all %d workers serve the %d required families; federation labels them\n",
			len(workerMetricsURLs), len(want))
	}
	if *requireRescaleTrace {
		phases := []string{"drain", "snapshot", "router_rebuild", "restart", "first_record"}
		if *workers > 0 {
			phases = []string{"drain", "snapshot", "router_rebuild", "transfer", "restart", "first_record"}
		}
		if err := assertRescaleTrace(serviceBase, phases); err != nil {
			fmt.Fprintln(os.Stderr, "ds2-live: FAIL:", err)
			finishProfiles()
			os.Exit(2)
		}
		fmt.Printf("OK: a complete rescale timeline with all %d phases is served\n", len(phases))
	}
	if *requireSavepoint {
		if err := assertSavepoints(savepoints); err != nil {
			fmt.Fprintln(os.Stderr, "ds2-live: FAIL:", err)
			finishProfiles()
			os.Exit(2)
		}
		fmt.Printf("OK: %d savepoint(s) settled durably on disk\n", len(savepoints))
	}
}

// savepointAt splits a savepoint file path into its directory store
// and savepoint name for the restore constructors.
func savepointAt(path string) (*ds2.LiveDirStore, string, error) {
	store, err := ds2.NewLiveDirStore(filepath.Dir(path))
	if err != nil {
		return nil, "", err
	}
	return store, filepath.Base(path), nil
}

// assertSavepoints checks every settled savepoint succeeded and its
// file is a non-empty presence on disk — the savepoint-smoke gate.
func assertSavepoints(savepoints []ds2.SavepointRecord) error {
	if len(savepoints) == 0 {
		return fmt.Errorf("no savepoint settled during the run")
	}
	for _, r := range savepoints {
		if r.Error != "" {
			return fmt.Errorf("savepoint %d failed: %s", r.Seq, r.Error)
		}
		fi, err := os.Stat(r.Path)
		if err != nil {
			return fmt.Errorf("savepoint %d: %w", r.Seq, err)
		}
		if fi.Size() == 0 {
			return fmt.Errorf("savepoint %d: %s is empty", r.Seq, r.Path)
		}
	}
	return nil
}

// assertWorkerMetrics self-scrapes every spawned worker's own /metrics
// for the required families, then — when the run was attached to a
// scaling service — checks the service's federated exposition carries
// the same families under worker labels.
func assertWorkerMetrics(workerURLs []string, serviceBase string, want []string) error {
	if len(workerURLs) == 0 {
		return fmt.Errorf("-require-worker-metrics needs -workers with worker metrics enabled")
	}
	for i, hostport := range workerURLs {
		if err := assertMetrics("http://"+hostport, want); err != nil {
			return fmt.Errorf("worker %d (%s): %w", i, hostport, err)
		}
	}
	if serviceBase == "" {
		return nil
	}
	resp, err := http.Get(serviceBase + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	scrape, err := obs.ParseText(resp.Body)
	if err != nil {
		return fmt.Errorf("invalid federated exposition: %w", err)
	}
	labeled := make(map[string]bool)
	for _, s := range scrape.Samples {
		if s.Label("worker") != "" {
			labeled[s.Name] = true
		}
	}
	for _, fam := range want {
		fam = strings.TrimSpace(fam)
		if fam == "" {
			continue
		}
		// Histogram families federate as their _bucket/_sum/_count
		// series; accept any worker-labeled series with the family
		// prefix.
		ok := labeled[fam] || labeled[fam+"_count"]
		if !ok {
			return fmt.Errorf("family %s has no worker-labeled series on the service exposition", fam)
		}
	}
	return nil
}

// assertRescaleTrace fetches the first job's rescale timelines from
// the scaling service and checks at least one is complete with every
// required phase, in order, non-overlapping.
func assertRescaleTrace(serviceBase string, phases []string) error {
	if serviceBase == "" {
		return fmt.Errorf("-require-rescale-trace needs -serve-inproc or -addr")
	}
	resp, err := http.Get(serviceBase + "/jobs")
	if err != nil {
		return err
	}
	var jobs []struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&jobs)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("listing jobs: %w", err)
	}
	if len(jobs) == 0 {
		return fmt.Errorf("no jobs registered with the service")
	}
	resp, err = http.Get(serviceBase + "/jobs/" + jobs[0].ID + "/rescales")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var body struct {
		Total    int             `json:"total"`
		Rescales []obs.TraceView `json:"rescales"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return fmt.Errorf("decoding rescale timelines: %w", err)
	}
	if body.Total == 0 {
		return fmt.Errorf("no rescale timelines reported")
	}
	var lastErr error
	for _, v := range body.Rescales {
		if !v.Complete {
			continue
		}
		if err := checkPhases(v, phases); err != nil {
			lastErr = fmt.Errorf("timeline %s: %w", v.ID, err)
			continue
		}
		return nil
	}
	if lastErr != nil {
		return lastErr
	}
	return fmt.Errorf("%d timelines reported, none complete", body.Total)
}

func checkPhases(v obs.TraceView, phases []string) error {
	prevEnd := int64(-1)
	for _, name := range phases {
		s, ok := v.Span(name)
		if !ok {
			return fmt.Errorf("phase %s missing", name)
		}
		if s.StartNs < prevEnd {
			return fmt.Errorf("phase %s overlaps its predecessor", name)
		}
		prevEnd = s.EndNs
	}
	return nil
}

// assertMetrics scrapes the exporter over HTTP, strictly parses the
// exposition, and checks every required family is present — the
// live-smoke gate for the telemetry path.
func assertMetrics(base string, want []string) error {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /metrics returned %s", resp.Status)
	}
	scrape, err := obs.ParseText(resp.Body)
	if err != nil {
		return fmt.Errorf("invalid exposition: %w", err)
	}
	have := make(map[string]bool)
	for _, fam := range scrape.Families() {
		have[fam] = true
	}
	var missing []string
	for _, fam := range want {
		if fam = strings.TrimSpace(fam); fam != "" && !have[fam] {
			missing = append(missing, fam)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("missing metric families: %s", strings.Join(missing, ", "))
	}
	return nil
}

// startProfiles arms the requested pprof outputs and returns the
// finalizer that writes them. The finalizer is idempotent so the
// os.Exit paths can call it explicitly (deferred calls don't run
// through os.Exit).
func startProfiles(cpu, mem, mutex string) func() {
	var cpuFile *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		cpuFile = f
	}
	if mutex != "" {
		runtime.SetMutexProfileFraction(1)
	}
	done := false
	return func() {
		if done {
			return
		}
		done = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if mem != "" {
			writeProfile("heap", mem, true)
		}
		if mutex != "" {
			writeProfile("mutex", mutex, false)
		}
	}
}

// writeProfile dumps one named runtime/pprof profile to path.
func writeProfile(name, path string, gcFirst bool) {
	f, err := os.Create(path)
	if err != nil {
		log.Print(err)
		return
	}
	defer f.Close()
	if gcFirst {
		runtime.GC() // heap profile reports live objects post-GC
	}
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		log.Print(err)
	}
}

// spawnDistWorkers re-execs this binary once per worker index in the
// internal -dist-worker mode, passing exactly the flags that shape the
// dataflow (workload, rates, step, seed) so every process builds the
// identical pipeline. Each child announces its bound control address
// (and, with withMetrics, its /metrics host:port) on stdout; its
// lifetime is tied to ours through a held-open stdin pipe, which the
// returned release function closes.
func spawnDistWorkers(n int, workload string, rate1, rate2, step float64, seed int64, withMetrics bool) ([]string, []string, func()) {
	addrs := make([]string, n)
	maddrs := make([]string, n)
	pipes := make([]io.Closer, 0, n)
	procs := make([]*exec.Cmd, 0, n)
	release := func() {
		for _, p := range pipes {
			p.Close()
		}
		for _, c := range procs {
			_ = c.Wait()
		}
	}
	for i := range addrs {
		args := []string{
			"-dist-worker", strconv.Itoa(i),
			"-workload", workload,
			"-rate1", fmt.Sprint(rate1),
			"-rate2", fmt.Sprint(rate2),
			"-step", fmt.Sprint(step),
			"-seed", strconv.FormatInt(seed, 10),
		}
		if withMetrics {
			args = append(args, "-metrics-addr", "127.0.0.1:0")
		}
		cmd := exec.Command(os.Args[0], args...)
		stdin, err := cmd.StdinPipe()
		if err != nil {
			log.Fatal(err)
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			log.Fatal(err)
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			log.Fatal(err)
		}
		pipes = append(pipes, stdin)
		procs = append(procs, cmd)
		sc := bufio.NewScanner(stdout)
		for (addrs[i] == "" || (withMetrics && maddrs[i] == "")) && sc.Scan() {
			var idx int
			var a string
			if _, err := fmt.Sscanf(sc.Text(), "dist-worker %d %s", &idx, &a); err == nil && idx == i {
				addrs[i] = a
			} else if _, err := fmt.Sscanf(sc.Text(), "dist-worker-metrics %d %s", &idx, &a); err == nil && idx == i {
				maddrs[i] = a
			}
		}
		if addrs[i] == "" || (withMetrics && maddrs[i] == "") {
			release()
			log.Fatalf("ds2-live: worker %d exited before announcing its address", i)
		}
		// Drain the rest of the child's stdout so it never blocks on a
		// full pipe.
		go func() { _, _ = io.Copy(io.Discard, stdout) }()
	}
	if !withMetrics {
		maddrs = nil
	}
	return addrs, maddrs, release
}

// graphSpec derives the JobSpec topology from the pipeline's own
// graph, so the registered spec can never diverge from the job
// actually attached.
func graphSpec(g *ds2.Graph) ([]ds2.JobOperator, [][2]string) {
	var ops []ds2.JobOperator
	var edges [][2]string
	for i := 0; i < g.NumOperators(); i++ {
		op := g.Operator(i)
		ops = append(ops, ds2.JobOperator{Name: op.Name, NonScalable: !op.Scalable})
		for _, d := range g.Downstream(i) {
			edges = append(edges, [2]string{op.Name, g.Operator(d).Name})
		}
	}
	return ops, edges
}
