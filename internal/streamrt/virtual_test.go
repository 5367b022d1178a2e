//go:build goexperiment.synctest

// Tests in virtual time. Each runs its job inside a testing/synctest
// bubble, where the clock moves only once every goroutine of the job is
// blocked: a sleep-paced cost takes exactly its cost and a scenario reads
// the same timings on every run, in milliseconds of wall time. Run them
// with `make test-virtual` (GOEXPERIMENT=synctest). A bubble must not
// Collect while a Rescale drains: the drain holds j.mu, and a goroutine
// waiting on a mutex stops the clock.
package streamrt

import (
	"fmt"
	"testing"
	"testing/synctest"
	"time"

	"ds2/internal/dataflow"
)

// TestScaleUpDrainBoundedVirtual: src (400 rec/s) -> work (4 ms) ->
// count (keyed, 1.2 ms) runs a virtual second at work: 1, which is
// saturated and queues all it can, then scales work to 2. The Rescale
// call waits for the drain, and the drain for work's queue, which its
// gate holds to drainBudget of work plus the record in hand. Afterwards
// the counts are exactly the records the source emitted.
func TestScaleUpDrainBoundedVirtual(t *testing.T) {
	const workCost = 4 * time.Millisecond
	var (
		took             time.Duration
		err              error
		counted, emitted int64
	)
	synctest.Run(func() {
		p, perr := NewPipeline().
			AddSource("src", SourceSpec{
				Rate: func(float64) float64 { return 400 },
				Next: func(seq int64) (string, any) { return fmt.Sprintf("k%02d", seq%64), "" },
			}).
			AddOperator("work", OperatorSpec{
				Process: func(_ any, key string, v any, emit Emit) any { emit(key, v); return nil },
				Cost:    workCost,
			}).
			AddOperator("count", OperatorSpec{
				Keyed: true,
				Process: func(state any, _ string, _ any, _ Emit) any {
					c, _ := state.(int)
					return c + 1
				},
				Cost: 1200 * time.Microsecond,
			}).
			AddEdge("src", "work").
			AddEdge("work", "count").
			Build()
		if perr != nil {
			err = perr
			return
		}
		job, jerr := NewJob(p, dataflow.Parallelism{"src": 1, "work": 1, "count": 1}, Config{})
		if jerr != nil {
			err = jerr
			return
		}
		time.Sleep(time.Second)
		t0 := time.Now()
		err = job.Rescale(dataflow.Parallelism{"src": 1, "work": 2, "count": 1})
		took = time.Since(t0)
		time.Sleep(100 * time.Millisecond)
		for _, c := range job.Stop()["count"] {
			counted += int64(c.(int))
		}
		emitted = *job.pl.(*host).seqs["src"]
	})
	if err != nil {
		t.Fatal(err)
	}
	if limit := drainBudget + workCost + 2*time.Millisecond; took > limit {
		t.Errorf("the scale-up took %v, want at most %v", took, limit)
	}
	if counted != emitted || emitted == 0 {
		t.Errorf("counted %d records, the source emitted %d", counted, emitted)
	}
	t.Logf("scale-up call %v (virtual), %d records", took, emitted)
}
