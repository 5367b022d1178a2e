package streamrt_test

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ds2/internal/controlloop"
	"ds2/internal/core"
	"ds2/internal/dataflow"
	"ds2/internal/service"
	"ds2/internal/streamrt"
)

// parityManagerConfig is the manager tuning both parity runs share.
// ActivationIntervals 2 is the flake fix: under -race on a loaded
// box, one ~100ms scheduler stall dents a single interval's achieved
// rate, and with activation 1 whichever run caught the stall issued an
// extra decision — the sequences diverged. Requiring two consecutive
// intervals to propose a change filters single-interval transients in
// BOTH runs (§4.2.2), while a genuine rate step still converges — one
// interval later.
var parityManagerConfig = core.ManagerConfig{
	TargetRateRatio:     0.8,
	ActivationIntervals: 2,
}

// parityManager builds the in-process twin of the service-side manager
// the parity test configures through service.ManagerConfig.
func parityManager(t *testing.T, g *dataflow.Graph, initial dataflow.Parallelism) controlloop.Autoscaler {
	t.Helper()
	pol, err := core.NewPolicy(g, core.PolicyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := core.NewManager(pol, initial, parityManagerConfig)
	if err != nil {
		t.Fatal(err)
	}
	return controlloop.DS2Autoscaler(mgr)
}

// actionSeq reduces a trace to its decision sequence — the semantics
// the parity pin compares, deliberately ignoring wall-clock timings.
func actionSeq(tr controlloop.Trace) []string {
	var out []string
	for _, iv := range tr.Intervals {
		if iv.Action != "" {
			out = append(out, fmt.Sprintf("%s -> %s", iv.Action, iv.Applied))
		}
	}
	return out
}

// TestLiveJobDS2DParity runs the identical live wordcount-ish job
// twice — once driven by the in-process Controller, once attached to a
// ds2d scaling server over real HTTP loopback through the standard
// ingestion/poll/ack API — and pins that both loops produce the same
// decision sequence and final provisioning. To the server, the live
// job is indistinguishable from a simulated one.
func TestLiveJobDS2DParity(t *testing.T) {
	const (
		interval  = 0.2
		stepAt    = 0.8
		rateLow   = 100.0
		rateHigh  = 400.0
		intervals = 12
	)
	rate := func(tm float64) float64 {
		if tm >= stepAt {
			return rateHigh
		}
		return rateLow
	}
	initial := dataflow.Parallelism{"src": 1, "split": 1, "count": 1}

	// Run 1: in-process Controller.
	p1 := liveWordcountish(t, rate)
	job1, err := streamrt.NewJob(p1, initial, streamrt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer job1.Stop()
	ctrl, err := controlloop.New(streamrt.NewEngineRuntime(job1), parityManager(t, p1.Graph(), initial),
		controlloop.Config{Interval: interval, MaxIntervals: intervals})
	if err != nil {
		t.Fatal(err)
	}
	trLocal, err := ctrl.Run()
	if err != nil {
		t.Fatalf("in-process run: %v\n%s", err, trLocal)
	}

	// Run 2: the same job attached to ds2d over HTTP.
	srv := service.NewServer(service.ServerConfig{})
	defer srv.Close()
	hs := httptest.NewServer(srv)
	defer hs.Close()
	client := service.NewClient(hs.URL, nil)

	p2 := liveWordcountish(t, rate)
	job2, err := streamrt.NewJob(p2, initial, streamrt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer job2.Stop()
	spec := service.JobSpec{
		Name: "live-wordcountish",
		Operators: []service.JobOperator{
			{Name: "src"}, {Name: "split"}, {Name: "count"},
		},
		Edges:        [][2]string{{"src", "split"}, {"split", "count"}},
		Initial:      initial,
		Autoscaler:   service.AutoscalerDS2,
		IntervalSec:  interval,
		MaxIntervals: intervals,
		Manager: &service.ManagerConfig{
			TargetRateRatio:     parityManagerConfig.TargetRateRatio,
			ActivationIntervals: parityManagerConfig.ActivationIntervals,
		},
	}
	attached := streamrt.AttachEngine(client, job2, spec)
	trRemote, err := attached.Run()
	if err != nil {
		t.Fatalf("attached run: %v\n%s", err, trRemote)
	}
	if attached.ID == "" {
		t.Fatal("attached job has no id")
	}

	// Decision-sequence parity: same actions, same applied configs,
	// same final deployment — timings excluded by construction.
	localSeq, remoteSeq := actionSeq(trLocal), actionSeq(trRemote)
	if len(localSeq) != len(remoteSeq) {
		t.Fatalf("decision sequences differ:\nlocal:  %v\nremote: %v\n%s\n%s",
			localSeq, remoteSeq, trLocal, trRemote)
	}
	for i := range localSeq {
		if localSeq[i] != remoteSeq[i] {
			t.Fatalf("decision %d differs: local %q, remote %q", i, localSeq[i], remoteSeq[i])
		}
	}
	if !trLocal.Final.Equal(trRemote.Final) {
		t.Fatalf("final configs differ: local %s, remote %s", trLocal.Final, trRemote.Final)
	}
	if trLocal.Decisions < 1 {
		t.Fatalf("no decisions in either loop\n%s", trLocal)
	}
	// The engine-side redeployments really happened on the live job.
	if job2.Rescales() != trRemote.Decisions {
		t.Fatalf("live job performed %d rescales, service decided %d",
			job2.Rescales(), trRemote.Decisions)
	}
}

// TestLiveJobShortIntervalStress pins the activation-window fix from
// the parity test at amplified noise: a steady-rate job at its optimal
// provisioning, observed over many 100ms windows — five times shorter
// than the parity test's, so every scheduler hiccup is five times
// larger relative to the window. Any single-interval transient (the
// exact mechanism behind the old parity flake) that leaks through the
// ActivationIntervals filter turns into a spurious decision and fails
// the test. Rate 100 keeps both operators at comfortable utilization
// (split at 0.4 instances' worth of load, count at 0.6), so even with
// the race detector's constant overhead no multi-interval shortfall
// can legitimately propose a change — a stalled window still can, and
// the activation filter must absorb it.
func TestLiveJobShortIntervalStress(t *testing.T) {
	const (
		interval  = 0.1
		rateConst = 100.0
		intervals = 25
	)
	p := liveWordcountish(t, func(float64) float64 { return rateConst })
	optimal := dataflow.Parallelism{"src": 1, "split": 1, "count": 1}
	job, err := streamrt.NewJob(p, optimal, streamrt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer job.Stop()

	ctrl, err := controlloop.New(streamrt.NewEngineRuntime(job), parityManager(t, p.Graph(), optimal),
		controlloop.Config{Interval: interval, MaxIntervals: intervals})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ctrl.Run()
	if err != nil {
		t.Fatalf("controller: %v\n%s", err, tr)
	}
	if tr.Decisions != 0 {
		t.Fatalf("steady state at the optimum produced %d decisions\n%s", tr.Decisions, tr)
	}
	if !tr.Final.Equal(optimal) {
		t.Fatalf("final = %s, want %s\n%s", tr.Final, optimal, tr)
	}
}

// TestAttachedJobStopsCleanly pins the deregistration path: stopping a
// registered live job's loop via the service leaves the engine side
// with a clean ErrStopped, not a failure.
func TestAttachedJobStopsCleanly(t *testing.T) {
	srv := service.NewServer(service.ServerConfig{})
	defer srv.Close()
	hs := httptest.NewServer(srv)
	defer hs.Close()
	client := service.NewClient(hs.URL, nil)

	p := liveWordcountish(t, func(float64) float64 { return 50 })
	initial := dataflow.Parallelism{"src": 1, "split": 1, "count": 1}
	job, err := streamrt.NewJob(p, initial, streamrt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer job.Stop()

	spec := service.JobSpec{
		Operators:    []service.JobOperator{{Name: "src"}, {Name: "split"}, {Name: "count"}},
		Edges:        [][2]string{{"src", "split"}, {"split", "count"}},
		Initial:      initial,
		Autoscaler:   service.AutoscalerHold,
		IntervalSec:  0.1,
		MaxIntervals: 1000,
	}
	attached := streamrt.AttachEngine(client, job, spec)
	done := make(chan error, 1)
	go func() {
		_, err := attached.Run()
		done <- err
	}()
	// Wait for registration and at least one reported interval, then
	// deregister out from under the engine.
	deadline := time.After(10 * time.Second)
	for {
		jobs, err := client.Jobs()
		if err != nil {
			t.Fatal(err)
		}
		if len(jobs) == 1 && jobs[0].Intervals >= 1 {
			if _, err := client.Deregister(jobs[0].ID); err != nil {
				t.Fatal(err)
			}
			break
		}
		select {
		case <-deadline:
			t.Fatal("job never reported an interval")
		case <-time.After(20 * time.Millisecond):
		}
	}
	select {
	case err := <-done:
		// The engine observes the stopped job on its next report or
		// poll and breaks cleanly; an HTTP 404 from the final trace
		// fetch of the now-deregistered job is an acceptable end, but
		// a rescale/apply failure is not.
		if err != nil && strings.Contains(err.Error(), "applying action") {
			t.Fatalf("deregistration surfaced as a rescale failure: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("attached job did not stop after deregistration")
	}
}
