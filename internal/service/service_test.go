package service_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ds2/internal/controlloop"
	"ds2/internal/core"
	"ds2/internal/dataflow"
	"ds2/internal/dhalion"
	"ds2/internal/engine"
	"ds2/internal/service"
	"ds2/internal/wordcount"
)

// heronEngine builds the §5.2 Heron wordcount engine used by the
// parity tests — identical construction to the in-process experiment.
func heronEngine(t *testing.T) *engine.Engine {
	t.Helper()
	w, err := wordcount.Heron(0)
	if err != nil {
		t.Fatal(err)
	}
	initial := dataflow.Parallelism{wordcount.Source: 1, wordcount.FlatMap: 1, wordcount.Count: 1}
	e, err := engine.New(w.Graph, w.Specs, w.Sources, initial, engine.Config{
		Mode:          engine.ModeHeron,
		Tick:          0.05,
		QueueCapacity: 200_000,
		RedeployDelay: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func wordcountSpec(autoscaler string, maxIntervals int) service.JobSpec {
	return service.JobSpec{
		Name: "heron-wordcount",
		Operators: []service.JobOperator{
			{Name: wordcount.Source}, {Name: wordcount.FlatMap}, {Name: wordcount.Count},
		},
		Edges: [][2]string{
			{wordcount.Source, wordcount.FlatMap},
			{wordcount.FlatMap, wordcount.Count},
		},
		Initial:      dataflow.Parallelism{wordcount.Source: 1, wordcount.FlatMap: 1, wordcount.Count: 1},
		Autoscaler:   autoscaler,
		IntervalSec:  60,
		MaxIntervals: maxIntervals,
	}
}

func newLoopback(t *testing.T) (*service.Server, *service.Client) {
	t.Helper()
	srv := service.NewServer(service.ServerConfig{})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		srv.Close()
		ts.Close()
	})
	return srv, service.NewClient(ts.URL, ts.Client())
}

// TestServiceParityDS2 is the acceptance pin: the Heron wordcount job
// driven through ds2d over HTTP loopback must converge to the same
// final parallelism, in the same number of decisions, as the
// in-process EngineRuntime run — the trace printouts must match
// byte for byte.
func TestServiceParityDS2(t *testing.T) {
	// In-process reference: the exact §5.2 DS2 configuration, through
	// controlloop.EngineRuntime with synchronous settling.
	e := heronEngine(t)
	pol, err := core.NewPolicy(e.Graph(), core.PolicyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := core.NewManager(pol, e.Parallelism(), core.ManagerConfig{
		WarmupIntervals:     0,
		ActivationIntervals: 1,
		TargetRateRatio:     1.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	loop, err := controlloop.New(
		controlloop.NewEngineRuntime(e, true),
		controlloop.DS2Autoscaler(mgr),
		controlloop.Config{Interval: 60, MaxIntervals: 10})
	if err != nil {
		t.Fatal(err)
	}
	want, err := loop.Run()
	if err != nil {
		t.Fatal(err)
	}

	// Remote run: same engine construction, but the decision loop
	// lives behind the HTTP API and the engine is driven by
	// SimulatedJob with settling redeployments.
	_, client := newLoopback(t)
	got, err := service.NewSimulatedJob(client, heronEngine(t), wordcountSpec(service.AutoscalerDS2, 10), true).Run()
	if err != nil {
		t.Fatal(err)
	}

	if got.Decisions != want.Decisions {
		t.Errorf("decisions = %d, want %d", got.Decisions, want.Decisions)
	}
	if !got.Final.Equal(want.Final) {
		t.Errorf("final = %s, want %s", got.Final, want.Final)
	}
	if gs, ws := got.String(), want.String(); gs != ws {
		t.Errorf("trace mismatch:\n-- service --\n%s\n-- in-process --\n%s", gs, ws)
	}
	// The paper's headline: DS2 reaches the optimum (10 FlatMap,
	// 20 Count) — guard against both traces being identically wrong.
	if want.Final[wordcount.FlatMap] != 10 || want.Final[wordcount.Count] != 20 {
		t.Errorf("reference final = %s, want flatmap=10 count=20", want.Final)
	}
}

// refuseReports is an http.RoundTripper that answers the metrics POSTs
// numbered from to to (1-based, inclusive; to 0: every one from on) as a
// backlogged server does, 429 with Retry-After, and passes every other
// request through, recording the end of each report it let through.
type refuseReports struct {
	next     http.RoundTripper
	from, to int
	mu       sync.Mutex
	posts    int
	ends     []float64
}

func (r *refuseReports) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method != http.MethodPost || !strings.HasSuffix(req.URL.Path, "/metrics") {
		return r.next.RoundTrip(req)
	}
	body, err := io.ReadAll(req.Body)
	req.Body.Close()
	if err != nil {
		return nil, err
	}
	var rep service.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.posts++
	refuse := r.posts >= r.from && (r.to == 0 || r.posts <= r.to)
	if !refuse {
		r.ends = append(r.ends, rep.End)
	}
	r.mu.Unlock()
	if refuse {
		return &http.Response{
			StatusCode: http.StatusTooManyRequests,
			Header:     http.Header{"Retry-After": {"1"}, "Content-Type": {"application/json"}},
			Body:       io.NopCloser(strings.NewReader(`{"error":"report backlog full"}`)),
			Request:    req,
		}, nil
	}
	out := req.Clone(req.Context())
	out.Body = io.NopCloser(bytes.NewReader(body))
	return r.next.RoundTrip(out)
}

// TestAttachedJobSurvivesRefusedReport: a report the service refuses as
// backlogged is dropped and the attached job goes on to the next
// interval; Run ends cleanly and the service-side trace holds every
// other report, in order.
func TestAttachedJobSurvivesRefusedReport(t *testing.T) {
	const maxIntervals = 6
	srv := service.NewServer(service.ServerConfig{})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		srv.Close()
		ts.Close()
	})
	rt := &refuseReports{next: ts.Client().Transport, from: 3, to: 3}
	client := service.NewClient(ts.URL, &http.Client{Transport: rt, Timeout: time.Minute})

	spec := wordcountSpec(service.AutoscalerDS2, maxIntervals)
	got, err := service.NewAttachedJob(client, controlloop.NewEngineRuntime(heronEngine(t), true), spec).Run()
	if err != nil {
		t.Fatalf("Run after one refused report: %v", err)
	}
	if rt.posts != maxIntervals+1 {
		t.Fatalf("%d reports posted, want %d: every interval but the refused one accepted", rt.posts, maxIntervals+1)
	}
	if len(got.Intervals) != len(rt.ends) {
		t.Fatalf("trace holds %d intervals, want the %d accepted reports\n%s", len(got.Intervals), len(rt.ends), got)
	}
	for i, iv := range got.Intervals {
		if iv.Time != rt.ends[i] {
			t.Fatalf("trace interval %d ends at %v, want the accepted report's %v\n%s", i, iv.Time, rt.ends[i], got)
		}
	}
}

// TestAttachedJobRefusedToTheEnd: when the service refuses every report
// from some point on, Run gives up at its cycle bound with ErrBacklogged
// rather than returning the cut-short trace as if the run were whole.
func TestAttachedJobRefusedToTheEnd(t *testing.T) {
	const maxIntervals = 6
	srv := service.NewServer(service.ServerConfig{})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		srv.Close()
		ts.Close()
	})
	rt := &refuseReports{next: ts.Client().Transport, from: 3}
	client := service.NewClient(ts.URL, &http.Client{Transport: rt, Timeout: time.Minute})

	spec := wordcountSpec(service.AutoscalerDS2, maxIntervals)
	got, err := service.NewAttachedJob(client, controlloop.NewEngineRuntime(heronEngine(t), true), spec).Run()
	if !errors.Is(err, service.ErrBacklogged) {
		t.Fatalf("Run with every report from the 3rd refused: %v, want ErrBacklogged\n%s", err, got)
	}
	if len(rt.ends) != 2 {
		t.Fatalf("%d reports accepted, want 2", len(rt.ends))
	}
}

// TestServiceParityDhalion pins the Busy/ack path: Dhalion's
// non-settling redeployments ride through reported intervals, and the
// remote trace must still match the in-process one byte for byte.
func TestServiceParityDhalion(t *testing.T) {
	const maxIntervals = 50 // 3000 s horizon / 60 s interval, as in §5.2

	e := heronEngine(t)
	ctrl, err := dhalion.New(e.Graph(), dhalion.Config{})
	if err != nil {
		t.Fatal(err)
	}
	loop, err := controlloop.New(
		controlloop.NewEngineRuntime(e, false),
		dhalion.Autoscaler(ctrl),
		controlloop.Config{Interval: 60, MaxIntervals: maxIntervals, Done: ctrl.Converged})
	if err != nil {
		t.Fatal(err)
	}
	want, err := loop.Run()
	if err != nil {
		t.Fatal(err)
	}

	_, client := newLoopback(t)
	got, err := service.NewSimulatedJob(client, heronEngine(t), wordcountSpec(service.AutoscalerDhalion, maxIntervals), false).Run()
	if err != nil {
		t.Fatal(err)
	}

	if got.Decisions != want.Decisions {
		t.Errorf("decisions = %d, want %d", got.Decisions, want.Decisions)
	}
	if !got.Final.Equal(want.Final) {
		t.Errorf("final = %s, want %s", got.Final, want.Final)
	}
	if gs, ws := got.String(), want.String(); gs != ws {
		t.Errorf("trace mismatch:\n-- service --\n%s\n-- in-process --\n%s", gs, ws)
	}
}

// TestServiceJobLifecycle walks the registry API: register, list,
// status, report, deregister.
func TestServiceJobLifecycle(t *testing.T) {
	_, client := newLoopback(t)

	spec := wordcountSpec(service.AutoscalerHold, 1000)
	id, err := client.Register(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Health(); err != nil {
		t.Fatal(err)
	}
	jobs, err := client.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != id || jobs[0].State != service.StateRunning {
		t.Fatalf("jobs = %+v", jobs)
	}

	// One interval's worth of reports flows through to the status.
	e := heronEngine(t)
	st := e.RunInterval(60)
	if _, err := client.Report(id, st); err != nil {
		t.Fatal(err)
	}
	dec, err := client.PollAction(id, 0, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Intervals != 1 || dec.Action != nil {
		t.Fatalf("decision = %+v (hold must not act)", dec)
	}
	status, err := client.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if status.Intervals != 1 || status.Decisions != 0 {
		t.Errorf("status = %+v", status)
	}

	tr, err := client.Deregister(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Intervals) != 1 {
		t.Errorf("final trace has %d intervals, want 1", len(tr.Intervals))
	}
	if _, err := client.Status(id); err == nil {
		t.Error("status of deregistered job succeeded")
	}
}

// TestServiceWorkerRegistry pins the worker rendezvous: streamrt
// worker processes announce their control addresses, a deployer lists
// them sorted by index, a restarted worker's re-registration replaces
// the stale address, and deregistration removes it.
func TestServiceWorkerRegistry(t *testing.T) {
	srv := service.NewServer(service.ServerConfig{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := service.NewClient(ts.URL, nil)

	if err := client.RegisterWorker(service.WorkerInfo{ID: 1, Addr: "127.0.0.1:7101"}); err != nil {
		t.Fatal(err)
	}
	if err := client.RegisterWorker(service.WorkerInfo{ID: 0, Addr: "127.0.0.1:7100"}); err != nil {
		t.Fatal(err)
	}
	if err := client.RegisterWorker(service.WorkerInfo{ID: -1, Addr: "x"}); err == nil {
		t.Fatal("negative worker index registered")
	}
	if err := client.RegisterWorker(service.WorkerInfo{ID: 2}); err == nil {
		t.Fatal("addressless worker registered")
	}

	ws, err := client.Workers()
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 2 || ws[0].ID != 0 || ws[1].ID != 1 || ws[0].Addr != "127.0.0.1:7100" {
		t.Fatalf("workers = %+v", ws)
	}

	// A restarted worker re-announces under the same index.
	if err := client.RegisterWorker(service.WorkerInfo{ID: 1, Addr: "127.0.0.1:7201"}); err != nil {
		t.Fatal(err)
	}
	ws, err = client.Workers()
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 2 || ws[1].Addr != "127.0.0.1:7201" {
		t.Fatalf("workers after re-registration = %+v", ws)
	}

	if err := client.DeregisterWorker(0); err != nil {
		t.Fatal(err)
	}
	if err := client.DeregisterWorker(0); err == nil {
		t.Fatal("double deregistration succeeded")
	}
	ws, err = client.Workers()
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 1 || ws[0].ID != 1 {
		t.Fatalf("workers after deregistration = %+v", ws)
	}
}

// TestServiceBackloggedRetryAfter pins the backpressure contract of
// the ingestion endpoint: when a job's decision loop is saturated (its
// report buffer full), POST /jobs/{id}/metrics answers 429 with a
// Retry-After header telling the reporter to back off for one policy
// interval — the rate at which the loop actually drains.
func TestServiceBackloggedRetryAfter(t *testing.T) {
	srv := service.NewServer(service.ServerConfig{MaxPendingReports: 1})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		srv.Close()
		ts.Close()
	})
	client := service.NewClient(ts.URL, ts.Client())

	spec := wordcountSpec(service.AutoscalerHold, 10) // IntervalSec 60
	id, err := client.Register(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Tiny spans never cover the 60 s policy interval, so the decision
	// loop cannot drain the buffer between posts: the single slot
	// stays occupied and the second report must be turned away.
	post := func(start, end float64) *http.Response {
		t.Helper()
		body := fmt.Sprintf(`{"start":%g,"end":%g}`, start, end)
		resp, err := http.Post(ts.URL+"/jobs/"+id+"/metrics", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp
	}
	if resp := post(0, 0.5); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first report: status %d, want 202", resp.StatusCode)
	}
	resp := post(0.5, 1)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated report: status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "60" {
		t.Fatalf("Retry-After = %q, want %q (one policy interval)", got, "60")
	}

	// The typed client surfaces the same condition as ErrBacklogged so
	// reporters can back off programmatically.
	if _, err := client.Report(id, service.Report{Start: 1, End: 1.5}); !errors.Is(err, service.ErrBacklogged) {
		t.Fatalf("client report on saturated job: %v, want ErrBacklogged", err)
	}
}

// TestServiceRejectsBadInput covers the ingestion-side validation.
func TestServiceRejectsBadInput(t *testing.T) {
	_, client := newLoopback(t)

	if _, err := client.Register(service.JobSpec{}); err == nil {
		t.Error("empty spec registered")
	}
	spec := wordcountSpec("", 10)
	spec.Autoscaler = "magic"
	if _, err := client.Register(spec); err == nil {
		t.Error("unknown autoscaler registered")
	}

	id, err := client.Register(wordcountSpec(service.AutoscalerHold, 10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Report(id, service.Report{Start: 5, End: 5}); err == nil {
		t.Error("empty-span report accepted")
	}
	if _, err := client.Report("job-999", service.Report{Start: 0, End: 60}); err == nil {
		t.Error("report for unknown job accepted")
	}
	if err := client.Ack(id, 3, nil); err == nil {
		t.Error("ack with no pending action accepted")
	}
}

// TestServiceConcurrentJobs runs several simulated jobs against one
// server at once while other goroutines poll read endpoints — the
// race-detector workout for the whole service layer.
func TestServiceConcurrentJobs(t *testing.T) {
	srv, client := newLoopback(t)

	const jobs = 3
	var wg sync.WaitGroup
	finals := make([]dataflow.Parallelism, jobs)
	errs := make([]error, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sj := service.NewSimulatedJob(client, heronEngine(t), wordcountSpec(service.AutoscalerDS2, 6), true)
			tr, err := sj.Run()
			finals[i], errs[i] = tr.Final, err
		}(i)
	}
	// A reader goroutine hammers the read endpoints while the jobs
	// run, stopping once every job reaches a terminal state.
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, j := range srv.Jobs() {
				_, _ = client.Status(j.ID)
				_, _ = client.Trace(j.ID)
			}
			time.Sleep(time.Millisecond)
		}
	}()
	for {
		js := srv.Jobs()
		terminal := 0
		for _, j := range js {
			if j.State != service.StateRunning {
				terminal++
			}
		}
		if len(js) == jobs && terminal == jobs {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	want := finals[0]
	for i := 0; i < jobs; i++ {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		if !finals[i].Equal(want) {
			t.Errorf("job %d final = %s, want %s", i, finals[i], want)
		}
	}
}

// TestServiceSubIntervalReports checks that reports finer than the
// policy interval aggregate into whole-interval decisions: four 15 s
// reports per 60 s interval still converge to the optimum.
func TestServiceSubIntervalReports(t *testing.T) {
	_, client := newLoopback(t)
	spec := wordcountSpec(service.AutoscalerDS2, 6)
	id, err := client.Register(spec)
	if err != nil {
		t.Fatal(err)
	}
	e := heronEngine(t)
	var lastSeq, reported int
	for cycle := 0; cycle < 6; cycle++ {
		for q := 0; q < 4; q++ {
			st := e.RunInterval(15)
			if _, err := client.Report(id, st); err != nil {
				t.Fatal(err)
			}
		}
		reported++
		dec, err := client.PollAction(id, reported-1, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if act := dec.Action; act != nil && act.Seq != lastSeq {
			lastSeq = act.Seq
			if err := e.Rescale(act.New); err != nil {
				t.Fatal(err)
			}
			for e.Paused() {
				e.Run(1)
			}
			e.Collect()
			if err := client.Ack(id, act.Seq, e.Parallelism()); err != nil {
				t.Fatal(err)
			}
		}
		if dec.State != service.StateRunning {
			break
		}
	}
	status, err := client.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if status.Parallelism[wordcount.FlatMap] != 10 || status.Parallelism[wordcount.Count] != 20 {
		t.Errorf("parallelism = %s, want flatmap=10 count=20", status.Parallelism)
	}
}

// TestServiceRejectsOversizedBody pins the ingestion hardening: a POST
// body beyond ServerConfig.MaxRequestBytes is refused with 413 on
// every decoding endpoint, and neither the job registry nor a running
// job's decision state is touched by the rejected request.
func TestServiceRejectsOversizedBody(t *testing.T) {
	srv := service.NewServer(service.ServerConfig{MaxRequestBytes: 2048})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		srv.Close()
		ts.Close()
	})

	post := func(path string, body []byte) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	// A syntactically plausible JSON prefix followed by bulk, so the
	// rejection is provably the size cap and not a parse error.
	oversized := append([]byte(`{"name":"`), bytes.Repeat([]byte("x"), 64<<10)...)
	oversized = append(oversized, []byte(`"}`)...)

	if code := post("/jobs", oversized); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized register: status %d, want 413", code)
	}
	if jobs := srv.Jobs(); len(jobs) != 0 {
		t.Fatalf("oversized register left %d jobs in the registry", len(jobs))
	}

	client := service.NewClient(ts.URL, ts.Client())
	id, err := client.Register(wordcountSpec(service.AutoscalerHold, 10))
	if err != nil {
		t.Fatal(err)
	}
	before, err := client.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if code := post("/jobs/"+id+"/metrics", oversized); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized report: status %d, want 413", code)
	}
	if code := post("/jobs/"+id+"/acked", oversized); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized ack: status %d, want 413", code)
	}
	after, err := client.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if after.State != service.StateRunning || after.Intervals != before.Intervals || after.Decisions != before.Decisions {
		t.Fatalf("oversized posts disturbed the job: before %+v, after %+v", before, after)
	}

	// A body right at the cap still decodes (the cap is a ceiling, not
	// an off-by-one trap): a small valid report goes through.
	st, err := client.Report(id, service.Report{
		Start: 0, End: 60,
		TargetRates:    map[string]float64{wordcount.Source: 1},
		SourceObserved: map[string]float64{wordcount.Source: 1},
		Parallelism:    dataflow.Parallelism{wordcount.Source: 1, wordcount.FlatMap: 1, wordcount.Count: 1},
	})
	if err != nil {
		t.Fatalf("small report after oversized rejections: %v", err)
	}
	if st != service.StateRunning {
		t.Fatalf("job state %s after valid report, want running", st)
	}
}
