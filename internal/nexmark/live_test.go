package nexmark_test

import (
	"fmt"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"ds2/internal/controlloop"
	"ds2/internal/core"
	"ds2/internal/dataflow"
	"ds2/internal/nexmark"
	"ds2/internal/service"
	"ds2/internal/streamrt"
)

// fastCosts paces every stage in the tens of microseconds so the
// exactness tests finish in fractions of a second; correctness pins
// care about record accounting, not capacity.
func fastCosts() map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, stage := range []string{
		"q1-map", "q1-sink", "q2-filter", "q2-sink",
		"q3-filter-persons", "q3-filter-auctions", "q3-join", "q3-sink",
		"q5-window", "q5-sink", "q8-join", "q8-sink",
	} {
		out[stage] = 30 * time.Microsecond
	}
	return out
}

// runBoundedWithRescales deploys the workload at all-ones, rescales it
// up then down mid-flight, drains and returns the final keyed states.
func runBoundedWithRescales(t *testing.T, w *nexmark.LiveWorkload, up dataflow.Parallelism) map[string]map[string]any {
	t.Helper()
	j, err := streamrt.NewJob(w.Pipeline, w.Initial, streamrt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond)
	if err := j.Rescale(up); err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond)
	if err := j.Rescale(w.Initial); err != nil {
		t.Fatal(err)
	}
	j.Wait()
	return j.Stop()
}

// TestLiveQ1ExactAcrossRescales: the bounded bid stream through the
// live Q1 pipeline — rescaled up and back down mid-flight — must leave
// per-auction counts and euro checksums byte-identical to the offline
// replay.
func TestLiveQ1ExactAcrossRescales(t *testing.T) {
	cfg := nexmark.LiveQueryConfig{Rate1: 3000, Seed: 7, Limit: 900, Costs: fastCosts()}
	w, err := nexmark.LiveQuery("q1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	states := runBoundedWithRescales(t, w,
		dataflow.Parallelism{nexmark.SrcBids: 1, "q1-map": 3, "q1-sink": 2})

	want := nexmark.LiveExpectedQ1(cfg, cfg.Limit)
	got := states["q1-sink"]
	if len(got) != len(want) {
		t.Fatalf("%d auctions at the sink, want %d", len(got), len(want))
	}
	for key, agg := range want {
		if g, _ := got[key].(*nexmark.Q1Agg); g == nil || *g != agg {
			t.Errorf("auction %s: %+v, want %+v", key, got[key], agg)
		}
	}
}

// TestLiveQ2ExactAcrossRescales: the ~20% auction filter must keep
// exactly the oracle's bids, across rescales.
func TestLiveQ2ExactAcrossRescales(t *testing.T) {
	cfg := nexmark.LiveQueryConfig{Rate1: 3000, Seed: 11, Limit: 900, Costs: fastCosts()}
	w, err := nexmark.LiveQuery("q2", cfg)
	if err != nil {
		t.Fatal(err)
	}
	states := runBoundedWithRescales(t, w,
		dataflow.Parallelism{nexmark.SrcBids: 1, "q2-filter": 2, "q2-sink": 3})

	want := nexmark.LiveExpectedQ2(cfg, cfg.Limit)
	got := states["q2-sink"]
	if len(got) != len(want) {
		t.Fatalf("%d auctions at the sink, want %d", len(got), len(want))
	}
	for key, n := range want {
		if g, _ := got[key].(int); g != n {
			t.Errorf("auction %s: %v kept bids, want %d", key, got[key], n)
		}
	}
}

// TestLiveQ3ExactAcrossRescales is the incremental-join pin: every
// (person, auction) pair is emitted exactly once regardless of arrival
// interleaving and rescale timing, so the sink's per-seller match
// counts and auction checksums are byte-identical to the replay.
func TestLiveQ3ExactAcrossRescales(t *testing.T) {
	cfg := nexmark.LiveQueryConfig{Rate1: 2500, Seed: 3, Limit: 800, Costs: fastCosts()}
	w, err := nexmark.LiveQuery("q3", cfg)
	if err != nil {
		t.Fatal(err)
	}
	up := dataflow.Parallelism{
		nexmark.SrcPersons: 1, nexmark.SrcAuctions: 1,
		"q3-filter-persons": 2, "q3-filter-auctions": 2, "q3-join": 3, "q3-sink": 2,
	}
	states := runBoundedWithRescales(t, w, up)

	want := nexmark.LiveExpectedQ3(cfg, cfg.Limit)
	got := states["q3-sink"]
	if len(got) != len(want) {
		t.Fatalf("%d sellers at the sink, want %d", len(got), len(want))
	}
	for key, agg := range want {
		if g, _ := got[key].(nexmark.Q3Agg); g != agg {
			t.Errorf("seller %s: %+v, want %+v", key, got[key], agg)
		}
	}
}

// TestLiveQ5WindowStateSurvivesRescale: with a window far longer than
// the bounded run nothing ever fires, so after two rescales the open
// panes themselves must hold the oracle's per-auction bid counts —
// window contents survive repartitioning byte-exactly.
func TestLiveQ5WindowStateSurvivesRescale(t *testing.T) {
	cfg := nexmark.LiveQueryConfig{
		Rate1: 3000, Seed: 5, Limit: 900, Costs: fastCosts(),
		WindowSize: time.Hour, WindowSlide: time.Hour,
	}
	w, err := nexmark.LiveQuery("q5", cfg)
	if err != nil {
		t.Fatal(err)
	}
	states := runBoundedWithRescales(t, w,
		dataflow.Parallelism{nexmark.SrcBids: 1, "q5-window": 4, "q5-sink": 2})

	if fired := len(states["q5-sink"]); fired != 0 {
		t.Fatalf("an hour-long window fired %d results mid-run", fired)
	}
	want := nexmark.LiveExpectedBidCounts(cfg, cfg.Limit)
	got := states["q5-window"]
	if len(got) != len(want) {
		t.Fatalf("%d auctions hold window state, want %d", len(got), len(want))
	}
	for key, n := range want {
		ws, ok := got[key].(*streamrt.WindowState)
		if !ok {
			t.Fatalf("auction %s: window state is %T", key, got[key])
		}
		total := 0
		for _, agg := range ws.Panes {
			total += agg.(int)
		}
		if total != n {
			t.Errorf("auction %s: %d buffered bids, want %d", key, total, n)
		}
	}
}

// TestLiveQ5FiredPlusResidualExact: with small tumbling windows and a
// mid-flight rescale, every bid is reported by exactly one fired
// window or still buffered — fired counts at the sink plus residual
// pane counts equal the oracle totals exactly (the watermark rides the
// snapshot, so no window fires twice).
func TestLiveQ5FiredPlusResidualExact(t *testing.T) {
	cfg := nexmark.LiveQueryConfig{
		Rate1: 3000, Seed: 9, Limit: 900, Costs: fastCosts(),
		WindowSize: 80 * time.Millisecond, WindowSlide: 80 * time.Millisecond,
	}
	w, err := nexmark.LiveQuery("q5", cfg)
	if err != nil {
		t.Fatal(err)
	}
	states := runBoundedWithRescales(t, w,
		dataflow.Parallelism{nexmark.SrcBids: 1, "q5-window": 3, "q5-sink": 2})

	fired := 0
	total := make(map[string]int)
	for key, st := range states["q5-sink"] {
		agg := st.(nexmark.Q5Agg)
		total[key] += agg.Bids
		fired += agg.Bids
	}
	if fired == 0 {
		t.Fatal("no window ever fired")
	}
	for key, st := range states["q5-window"] {
		ws := st.(*streamrt.WindowState)
		for _, agg := range ws.Panes {
			total[key] += agg.(int)
		}
	}
	want := nexmark.LiveExpectedBidCounts(cfg, cfg.Limit)
	if len(total) != len(want) {
		t.Fatalf("%d auctions accounted, want %d", len(total), len(want))
	}
	for key, n := range want {
		if total[key] != n {
			t.Errorf("auction %s: fired+residual = %d, want %d", key, total[key], n)
		}
	}
}

// TestLiveQ8WindowJoin pins the windowed join both ways: with a
// window outlasting the bounded run, the single residual pane per
// seller holds exactly the oracle's persons and auctions after two
// rescales; with small windows, windows really fire and the fired pair
// count never exceeds the single-window upper bound.
func TestLiveQ8WindowJoin(t *testing.T) {
	base := nexmark.LiveQueryConfig{Rate1: 2500, Seed: 13, Limit: 800, Costs: fastCosts()}
	up := dataflow.Parallelism{
		nexmark.SrcPersons: 1, nexmark.SrcAuctions: 1, "q8-join": 3, "q8-sink": 2,
	}

	t.Run("state-survives-rescale", func(t *testing.T) {
		cfg := base
		cfg.WindowSize = time.Hour
		w, err := nexmark.LiveQuery("q8", cfg)
		if err != nil {
			t.Fatal(err)
		}
		states := runBoundedWithRescales(t, w, up)
		want := nexmark.LiveExpectedQ8Universe(cfg, cfg.Limit)
		got := states["q8-join"]
		if len(got) != len(want) {
			t.Fatalf("%d sellers hold pane state, want %d", len(got), len(want))
		}
		for key, pane := range want {
			ws, ok := got[key].(*streamrt.WindowState)
			if !ok {
				t.Fatalf("seller %s: state is %T", key, got[key])
			}
			var merged nexmark.Q8Pane
			for _, agg := range ws.Panes {
				p := agg.(*nexmark.Q8Pane)
				merged.Persons = append(merged.Persons, p.Persons...)
				merged.Auctions = append(merged.Auctions, p.Auctions...)
			}
			sortPane(&merged)
			sortPane(&pane)
			if fmt.Sprint(merged) != fmt.Sprint(pane) {
				t.Errorf("seller %s:\n got %v\nwant %v", key, merged, pane)
			}
		}
	})

	t.Run("small-windows-fire", func(t *testing.T) {
		cfg := base
		cfg.WindowSize = 100 * time.Millisecond
		w, err := nexmark.LiveQuery("q8", cfg)
		if err != nil {
			t.Fatal(err)
		}
		states := runBoundedWithRescales(t, w, up)
		fired := 0
		for _, st := range states["q8-sink"] {
			fired += st.(int)
		}
		if fired == 0 {
			t.Fatal("no q8 window ever fired")
		}
		// Splitting a stream into windows can only lose pairs relative
		// to one all-covering window.
		max := 0
		for _, pane := range nexmark.LiveExpectedQ8Universe(cfg, cfg.Limit) {
			max += len(pane.Persons) * len(pane.Auctions)
		}
		if fired > max {
			t.Fatalf("fired %d pairs, above the single-window bound %d", fired, max)
		}
	})
}

func sortPane(p *nexmark.Q8Pane) {
	sort.Slice(p.Persons, func(i, j int) bool { return p.Persons[i].ID < p.Persons[j].ID })
	sort.Slice(p.Auctions, func(i, j int) bool { return p.Auctions[i] < p.Auctions[j] })
}

// actionSeq reduces a trace to its decision sequence, the semantics
// the parity pin compares.
func actionSeq(tr controlloop.Trace) []string {
	var out []string
	for _, iv := range tr.Intervals {
		if iv.Action != "" {
			out = append(out, fmt.Sprintf("%s -> %s", iv.Action, iv.Applied))
		}
	}
	return out
}

// ds2For builds the DS2 autoscaler for a live workload (same knobs as
// the live wordcount convergence pin).
func ds2For(t *testing.T, w *nexmark.LiveWorkload) controlloop.Autoscaler {
	t.Helper()
	pol, err := core.NewPolicy(w.Pipeline.Graph(), core.PolicyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := core.NewManager(pol, w.Initial, core.ManagerConfig{TargetRateRatio: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	return controlloop.DS2Autoscaler(mgr)
}

// TestLiveNexmarkConvergence is the live-Nexmark acceptance pin
// (Table 4 on the wall clock): DS2, reading nothing but wall-clock
// instrumentation from the really-executing Q1 pipeline, must reach
// the workload's Table-4-consistent optimum within three policy
// intervals of the rate step and hold it — and the ds2d-attached run
// of the identical job must take the identical decision sequence.
//
// The pair of runs gets up to three attempts and fails only when all
// three miss: on a small host with other packages' tests running
// beside this one, a sleeping instance is now and then not woken for a
// whole 200 ms interval, which the policy correctly answers with a
// spurious or late decision. Every missed attempt's traces are logged.
func TestLiveNexmarkConvergence(t *testing.T) {
	const (
		interval  = 0.2
		intervals = 14
		stepAt    = 0.8
		rateLow   = 100.0
		rateHigh  = 400.0
		attempts  = 3
	)
	cfg := nexmark.LiveQueryConfig{Rate1: rateLow, Rate2: rateHigh, StepAt: stepAt, Seed: 1}
	// attempt runs the scenario once and says how it missed, if it did.
	attempt := func() error {
		// Run 1: in-process Controller.
		w1, err := nexmark.LiveQuery("q1", cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := w1.Optimal(rateHigh)
		job1, err := streamrt.NewJob(w1.Pipeline, w1.Initial, streamrt.Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer job1.Stop()
		ctrl, err := controlloop.New(streamrt.NewEngineRuntime(job1), ds2For(t, w1),
			controlloop.Config{Interval: interval, MaxIntervals: intervals})
		if err != nil {
			t.Fatal(err)
		}
		trLocal, err := ctrl.Run()
		if err != nil {
			return fmt.Errorf("in-process run: %v\n%s", err, trLocal)
		}

		if !trLocal.Final.Equal(want) {
			return fmt.Errorf("final = %s, want the Table-4-consistent optimum %s\n%s", trLocal.Final, want, trLocal)
		}
		if trLocal.Decisions < 1 {
			return fmt.Errorf("no decisions taken\n%s", trLocal)
		}
		firstStep, lastAction := -1, -1
		for i, iv := range trLocal.Intervals {
			if firstStep < 0 && iv.Target > rateLow*1.5 {
				firstStep = i
			}
			if iv.Action != "" {
				if firstStep < 0 {
					return fmt.Errorf("decision before the step change at interval %d\n%s", i, trLocal)
				}
				lastAction = i
			}
		}
		if firstStep < 0 {
			return fmt.Errorf("step change never observed\n%s", trLocal)
		}
		if lastAction < 0 || lastAction > firstStep+2 {
			return fmt.Errorf("last action at interval %d, want within 3 intervals of the step at %d\n%s",
				lastAction, firstStep, trLocal)
		}
		if quiet := len(trLocal.Intervals) - 1 - lastAction; quiet < 3 {
			return fmt.Errorf("only %d quiet intervals after convergence\n%s", quiet, trLocal)
		}

		// Run 2: the identical job attached to ds2d over HTTP loopback.
		srv := service.NewServer(service.ServerConfig{})
		defer srv.Close()
		hs := httptest.NewServer(srv)
		defer hs.Close()
		client := service.NewClient(hs.URL, nil)

		w2, err := nexmark.LiveQuery("q1", cfg)
		if err != nil {
			t.Fatal(err)
		}
		job2, err := streamrt.NewJob(w2.Pipeline, w2.Initial, streamrt.Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer job2.Stop()
		g := w2.Pipeline.Graph()
		var ops []service.JobOperator
		var edges [][2]string
		for i := 0; i < g.NumOperators(); i++ {
			op := g.Operator(i)
			ops = append(ops, service.JobOperator{Name: op.Name})
			for _, d := range g.Downstream(i) {
				edges = append(edges, [2]string{op.Name, g.Operator(d).Name})
			}
		}
		attached := streamrt.AttachEngine(client, job2, service.JobSpec{
			Name:         "live-nexmark-q1",
			Operators:    ops,
			Edges:        edges,
			Initial:      w2.Initial,
			Autoscaler:   service.AutoscalerDS2,
			IntervalSec:  interval,
			MaxIntervals: intervals,
			Manager:      &service.ManagerConfig{TargetRateRatio: 0.8},
		})
		trRemote, err := attached.Run()
		if err != nil {
			return fmt.Errorf("attached run: %v\n%s", err, trRemote)
		}

		localSeq, remoteSeq := actionSeq(trLocal), actionSeq(trRemote)
		if fmt.Sprint(localSeq) != fmt.Sprint(remoteSeq) {
			return fmt.Errorf("decision sequences differ:\nlocal:  %v\nremote: %v\n%s\n%s",
				localSeq, remoteSeq, trLocal, trRemote)
		}
		if !trRemote.Final.Equal(want) {
			return fmt.Errorf("attached final = %s, want %s\n%s", trRemote.Final, want, trRemote)
		}
		if job2.Rescales() != trRemote.Decisions {
			t.Fatalf("live job performed %d rescales, service decided %d", job2.Rescales(), trRemote.Decisions)
		}
		return nil
	}
	for i := 1; i <= attempts; i++ {
		err := attempt()
		if err == nil {
			return
		}
		t.Logf("attempt %d of %d missed: %v", i, attempts, err)
	}
	t.Fatalf("no attempt out of %d converged within three intervals of the step on both drivers", attempts)
}
