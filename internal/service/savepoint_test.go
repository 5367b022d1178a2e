// Savepoint protocol acceptance: the request parks on the job, rides
// the poll response to the engine, and the settled outcome (path or
// error) is recorded and listed — with stale acks refused.
package service_test

import (
	"strings"
	"sync"
	"testing"

	"ds2/internal/controlloop"
	"ds2/internal/core"
	"ds2/internal/dataflow"
	"ds2/internal/metrics"
	"ds2/internal/service"
)

func savepointSpec() service.JobSpec {
	return service.JobSpec{
		Name:         "sp-test",
		Operators:    []service.JobOperator{{Name: "src"}, {Name: "op"}},
		Edges:        [][2]string{{"src", "op"}},
		Initial:      dataflow.Parallelism{"src": 1, "op": 1},
		Autoscaler:   service.AutoscalerDS2,
		IntervalSec:  1,
		MaxIntervals: 6,
	}
}

// spReporter is a minimal controlloop.Runtime: synthetic steady
// observations, rescales that deploy nothing (or fail with applyErr),
// and a SavepointEngine implementation that counts the cuts.
type spReporter struct {
	mu         sync.Mutex
	reports    int
	savepoints int
	// target is the source's target rate; the zero value means 100,
	// which "op" (true rate 200) keeps up with, so DS2 stays quiet.
	target   float64
	applyErr error
	applied  int
}

func (e *spReporter) Advance(intervalSec float64) (controlloop.Observation, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.reports >= 6 {
		return controlloop.Observation{}, controlloop.ErrStopped
	}
	target := e.target
	if target == 0 {
		target = 100
	}
	start := float64(e.reports) * intervalSec
	e.reports++
	return controlloop.Observation{
		Start: start,
		End:   start + intervalSec,
		Windows: []metrics.WindowMetrics{{
			ID:         metrics.InstanceID{Operator: "op", Index: 0},
			Window:     intervalSec,
			Processing: intervalSec / 2,
			Processed:  100,
			Pushed:     100,
		}},
		TargetRates:    map[string]float64{"src": target},
		SourceObserved: map[string]float64{"src": 100},
		Parallelism:    dataflow.Parallelism{"src": 1, "op": 1},
	}, nil
}

func (e *spReporter) Apply(*core.Action) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.applied++
	return e.applyErr
}

func (e *spReporter) Parallelism() dataflow.Parallelism {
	return dataflow.Parallelism{"src": 1, "op": 1}
}

func (e *spReporter) Savepoint() (string, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.savepoints++
	return "/checkpoints/sp-1", nil
}

func TestSavepointEndpointLifecycle(t *testing.T) {
	_, client := newLoopback(t)
	id, err := client.Register(savepointSpec())
	if err != nil {
		t.Fatal(err)
	}

	seq, err := client.RequestSavepoint(id)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 1 {
		t.Fatalf("first savepoint seq = %d, want 1", seq)
	}
	// Re-requesting while one is in flight returns the pending seq
	// instead of stacking a second request.
	if again, err := client.RequestSavepoint(id); err != nil || again != 1 {
		t.Fatalf("re-request = (%d, %v), want the pending seq 1", again, err)
	}

	// The pending request rides the poll response.
	dec, err := client.PollAction(id, -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dec.SavepointSeq != 1 {
		t.Fatalf("poll SavepointSeq = %d, want 1", dec.SavepointSeq)
	}

	// A stale ack is refused.
	if err := client.SavepointDone(id, 7, "/x", nil); err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("stale ack error = %v, want HTTP 409", err)
	}

	if err := client.SavepointDone(id, 1, "/checkpoints/sp-1", nil); err != nil {
		t.Fatal(err)
	}
	st, err := client.Savepoints(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != 1 || st.Pending != 0 || len(st.Savepoints) != 1 {
		t.Fatalf("savepoints = %+v, want one settled record", st)
	}
	if r := st.Savepoints[0]; r.Seq != 1 || r.Path != "/checkpoints/sp-1" || r.Error != "" {
		t.Fatalf("record = %+v", r)
	}

	// A second request gets the next seq, and a failed cut is recorded
	// with its error.
	if seq, err = client.RequestSavepoint(id); err != nil || seq != 2 {
		t.Fatalf("second request = (%d, %v), want seq 2", seq, err)
	}
	if st, err = client.Savepoints(id); err != nil || st.Pending != 2 {
		t.Fatalf("pending = %d (%v), want 2", st.Pending, err)
	}
	if err := client.SavepointDone(id, 2, "", controlloop.ErrStopped); err != nil {
		t.Fatal(err)
	}
	if st, err = client.Savepoints(id); err != nil || st.Total != 2 || st.Savepoints[1].Error == "" {
		t.Fatalf("failed cut not recorded: %+v (%v)", st, err)
	}
}

// TestAttachedJobExecutesSavepointRequest drives the full Fig. 5 cycle:
// the request parked before the run is delivered through the driver's
// poll, executed by the engine, and settled back onto the service.
func TestAttachedJobExecutesSavepointRequest(t *testing.T) {
	_, client := newLoopback(t)
	spec := savepointSpec()
	id, err := client.Register(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.RequestSavepoint(id); err != nil {
		t.Fatal(err)
	}

	eng := &spReporter{}
	attached := service.NewAttachedJob(client, eng, spec)
	attached.ID = id
	if _, err := attached.Run(); err != nil {
		t.Fatal(err)
	}

	if eng.savepoints != 1 {
		t.Fatalf("engine cut %d savepoints, want 1", eng.savepoints)
	}
	st, err := client.Savepoints(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != 1 || st.Pending != 0 || st.Savepoints[0].Path != "/checkpoints/sp-1" || st.Savepoints[0].Error != "" {
		t.Fatalf("savepoints = %+v, want one clean record", st)
	}
}

// plainReporter has the controlloop.Runtime surface but deliberately
// NOT the Savepoint method (no embedding — promotion would smuggle it
// in): the attached driver must settle requests against it with an
// error rather than stalling them forever.
type plainReporter struct{ inner spReporter }

func (e *plainReporter) Advance(intervalSec float64) (controlloop.Observation, error) {
	return e.inner.Advance(intervalSec)
}

func (e *plainReporter) Apply(act *core.Action) error { return e.inner.Apply(act) }

func (e *plainReporter) Parallelism() dataflow.Parallelism { return e.inner.Parallelism() }

func TestAttachedJobWithoutSavepointSupportSettlesWithError(t *testing.T) {
	_, client := newLoopback(t)
	spec := savepointSpec()
	id, err := client.Register(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.RequestSavepoint(id); err != nil {
		t.Fatal(err)
	}

	attached := service.NewAttachedJob(client, &plainReporter{}, spec)
	attached.ID = id
	if _, err := attached.Run(); err != nil {
		t.Fatal(err)
	}

	st, err := client.Savepoints(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != 1 || st.Savepoints[0].Error == "" {
		t.Fatalf("savepoints = %+v, want one record settled with an error", st)
	}
}

// TestAttachedJobStoppedDuringApply: a job stopped between the poll
// and the rescale surfaces as ErrStopped from Apply. That is a clean
// end — no ack goes out, and the service-side trace (which already
// records the decision) is the run's result.
func TestAttachedJobStoppedDuringApply(t *testing.T) {
	_, client := newLoopback(t)
	// A 300 rec/s target against op's true rate of 200: DS2 asks for a
	// second instance on the first interval.
	eng := &spReporter{target: 300, applyErr: controlloop.ErrStopped}
	tr, err := service.NewAttachedJob(client, eng, savepointSpec()).Run()
	if err != nil {
		t.Fatalf("Run = %v, want a clean end", err)
	}
	if eng.applied != 1 || eng.reports != 1 {
		t.Fatalf("engine saw %d applies over %d reports, want the run to end at the first apply", eng.applied, eng.reports)
	}
	if tr.Decisions != 1 || len(tr.Intervals) != 1 || tr.Intervals[0].Action == "" {
		t.Fatalf("trace = %+v, want the one deciding interval", tr)
	}
	if tr.Final["op"] != 1 {
		t.Fatalf("final = %v: an unapplied action was acked", tr.Final)
	}
}
