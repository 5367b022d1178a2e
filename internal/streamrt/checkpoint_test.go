// Durable-savepoint acceptance: a job savepointed mid-stream, killed,
// and restored — at a different parallelism — produces exactly the
// replay oracle's final state, single-process and across a 2-worker
// cluster. Plus the failure-path contracts: savepoints fail cleanly
// before draining when state cannot encode, and a failed persist never
// leaves the job down.
package streamrt_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"ds2/internal/dataflow"
	"ds2/internal/streamrt"
)

// waitForProgress polls until the savepointed stream is demonstrably
// mid-flight — some records processed, nowhere near the bound.
func waitForProgress(t *testing.T, iv func(float64) (streamrt.Interval, error)) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		obs, err := iv(0.05)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range obs.SourceObserved {
			if r > 0 {
				return
			}
		}
	}
	t.Fatal("source produced nothing within 10s")
}

func TestJobSavepointRestoreAtDifferentParallelism(t *testing.T) {
	const limit = 8000
	// ~2600 records/s against an 8000-record bound: the savepoint below
	// lands mid-stream with wide margin.
	rate := func(float64) float64 { return 2600 }

	pipe := distWordcountish(t, rate, limit, 0, 0)
	job, err := streamrt.NewJob(pipe, dataflow.Parallelism{"src": 1, "split": 2, "count": 2}, streamrt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	waitForProgress(t, job.NextInterval)

	store := streamrt.NewMemoryStore()
	if err := job.Savepoint(store, "cut"); err != nil {
		t.Fatal(err)
	}
	// Kill: whatever the first incarnation did after the cut is lost.
	job.Stop()

	restored, err := streamrt.NewJobFromSavepoint(distWordcountish(t, rate, limit, 0, 0),
		dataflow.Parallelism{"src": 1, "split": 1, "count": 3}, // different shape than the cut
		streamrt.Config{}, store, "cut")
	if err != nil {
		t.Fatal(err)
	}
	restored.Wait()
	got := restored.Stop()
	if !reflect.DeepEqual(got["count"], expectedCounts(limit)) {
		t.Fatalf("restored run diverged from the replay oracle:\n got: %v\nwant: %v", got["count"], expectedCounts(limit))
	}
}

func TestClusterSavepointRestoreExactness(t *testing.T) {
	const limit = 8000
	rate := func(float64) float64 { return 2600 }

	pipe := distWordcountish(t, rate, limit, 0, 0)
	addrs := startWorkers(t, 2, map[string]*streamrt.Pipeline{"wc": pipe})
	cluster, err := streamrt.NewCluster(pipe, "wc",
		dataflow.Parallelism{"src": 1, "split": 2, "count": 2}, addrs, streamrt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	waitForProgress(t, cluster.NextInterval)

	store, err := streamrt.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Savepoint(store, "cut"); err != nil {
		t.Fatal(err)
	}
	cluster.Stop()
	cluster.Close()

	// Restore over a FRESH worker fleet at a different operator
	// parallelism (source hosting stays at one worker, so sequence
	// stripes line up).
	pipe2 := distWordcountish(t, rate, limit, 0, 0)
	addrs2 := startWorkers(t, 2, map[string]*streamrt.Pipeline{"wc": pipe2})
	restored, err := streamrt.NewClusterFromSavepoint(pipe2, "wc",
		dataflow.Parallelism{"src": 1, "split": 1, "count": 3}, addrs2, streamrt.Config{}, store, "cut")
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	restored.Wait()
	if _, err := restored.Collect(); err != nil {
		t.Fatal(err)
	}
	got := restored.Stop()
	if !reflect.DeepEqual(got["count"], expectedCounts(limit)) {
		t.Fatalf("restored cluster diverged from the replay oracle:\n got: %v\nwant: %v", got["count"], expectedCounts(limit))
	}
}

func TestClusterRestoreRejectsWorkerCountMismatch(t *testing.T) {
	const limit = 500
	rate := func(float64) float64 { return 1e12 }
	pipe := distWordcountish(t, rate, limit, 0, 0)
	addrs := startWorkers(t, 2, map[string]*streamrt.Pipeline{"wc": pipe})
	cluster, err := streamrt.NewCluster(pipe, "wc",
		dataflow.Parallelism{"src": 1, "split": 1, "count": 1}, addrs, streamrt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	store := streamrt.NewMemoryStore()
	if err := cluster.Savepoint(store, "cut"); err != nil {
		t.Fatal(err)
	}
	cluster.Stop()

	pipe1 := distWordcountish(t, rate, limit, 0, 0)
	addrs1 := startWorkers(t, 1, map[string]*streamrt.Pipeline{"wc": pipe1})
	_, err = streamrt.NewClusterFromSavepoint(pipe1, "wc",
		dataflow.Parallelism{"src": 1, "split": 1, "count": 1}, addrs1, streamrt.Config{}, store, "cut")
	if err == nil || !strings.Contains(err.Error(), "savepoint was cut over 2 workers") {
		t.Fatalf("worker-count mismatch error = %v", err)
	}

	// A single-process restore of a cluster savepoint is refused too.
	_, err = streamrt.NewJobFromSavepoint(pipe1, dataflow.Parallelism{"src": 1, "split": 1, "count": 1},
		streamrt.Config{}, store, "cut")
	if err == nil || !strings.Contains(err.Error(), "NewClusterFromSavepoint") {
		t.Fatalf("cross-shape restore error = %v", err)
	}
}

func TestSavepointRequiresStateCodec(t *testing.T) {
	// liveWordcountish's counter has no StateCodec: the savepoint must
	// refuse before draining anything, naming the operator.
	pipe := liveWordcountish(t, func(float64) float64 { return 100 })
	job, err := streamrt.NewJob(pipe, dataflow.Parallelism{"src": 1, "split": 1, "count": 1}, streamrt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer job.Stop()
	err = job.Savepoint(streamrt.NewMemoryStore(), "cut")
	if err == nil || !strings.Contains(err.Error(), `keyed operator "count" has no StateCodec`) {
		t.Fatalf("Savepoint error = %v", err)
	}
}

// brokenStore fails every Save — the disk-full scenario.
type brokenStore struct{}

func (brokenStore) Save(string, []byte) error   { return errors.New("disk full") }
func (brokenStore) Load(string) ([]byte, error) { return nil, errors.New("disk full") }

func TestSavepointPersistFailureKeepsJobRunning(t *testing.T) {
	const limit = 3000
	pipe := distWordcountish(t, func(float64) float64 { return 2600 }, limit, 0, 0)
	job, err := streamrt.NewJob(pipe, dataflow.Parallelism{"src": 1, "split": 1, "count": 1}, streamrt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	waitForProgress(t, job.NextInterval)
	if err := job.Savepoint(brokenStore{}, "cut"); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("Savepoint error = %v, want the store failure", err)
	}
	// The failed persist must not have left the job drained: it runs to
	// the bound and the final counts are exact.
	job.Wait()
	got := job.Stop()
	if !reflect.DeepEqual(got["count"], expectedCounts(limit)) {
		t.Fatalf("post-failure run diverged from the replay oracle:\n got: %v\nwant: %v", got["count"], expectedCounts(limit))
	}
}

// TestSavepointEncodePanicKeepsJobRunning: a StateCodec that panics on
// the state it is handed — IntStateCodec asserts int, this counter keeps
// int64; it compiles and passes the savepointable check — must cost the
// savepoint, not the process: the error names the operator, the job is
// running again on the state it drained, and stays rescalable and exact.
func TestSavepointEncodePanicKeepsJobRunning(t *testing.T) {
	const limit, keys = 3000, 30
	tb := streamrt.NewTypedPipeline()
	streamrt.AddTypedSource(tb, "src", streamrt.TypedSource[int64]{
		Rate:  func(float64) float64 { return 2600 },
		Next:  func(seq int64) (string, int64) { return fmt.Sprintf("k%02d", seq%keys), seq },
		Limit: limit,
	})
	streamrt.AddTypedOperator(tb, "tally", streamrt.TypedOperator[int64, any, int64]{
		Keyed:   true,
		Process: func(c int64, _ string, _ int64, _ streamrt.TypedEmit[any]) int64 { return c + 1 },
		State:   streamrt.IntStateCodec{},
	})
	pipe, err := tb.AddEdge("src", "tally").Compile()
	if err != nil {
		t.Fatal(err)
	}
	job, err := streamrt.NewJob(pipe, dataflow.Parallelism{"src": 1, "tally": 2}, streamrt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	waitForProgress(t, job.NextInterval)
	err = job.Savepoint(streamrt.NewMemoryStore(), "cut")
	if err == nil || !strings.Contains(err.Error(), "tally") {
		t.Fatalf("Savepoint error = %v, want the encode failure naming the operator", err)
	}
	if err := job.Err(); err != nil {
		t.Fatalf("Err() = %v after a failed encode; the job must not be down", err)
	}
	if err := job.Rescale(dataflow.Parallelism{"src": 1, "tally": 3}); err != nil {
		t.Fatalf("Rescale after the failed savepoint: %v", err)
	}
	job.Wait()
	want := make(map[string]any, keys)
	for k := 0; k < keys; k++ {
		want[fmt.Sprintf("k%02d", k)] = int64(limit / keys)
	}
	if got := job.Stop()["tally"]; !reflect.DeepEqual(got, want) {
		t.Fatalf("run after the failed savepoint diverged:\n got: %v\nwant: %v", got, want)
	}
}

func TestRestoreRejectsForeignPipeline(t *testing.T) {
	const limit = 500
	pipe := distWordcountish(t, func(float64) float64 { return 1e12 }, limit, 0, 0)
	job, err := streamrt.NewJob(pipe, dataflow.Parallelism{"src": 1, "split": 1, "count": 1}, streamrt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	store := streamrt.NewMemoryStore()
	if err := job.Savepoint(store, "cut"); err != nil {
		t.Fatal(err)
	}
	job.Stop()

	// A pipeline whose source has a different name cannot consume it.
	other, err := streamrt.NewPipeline().
		AddSource("ticks", streamrt.SourceSpec{
			Rate: func(float64) float64 { return 1 },
			Next: func(seq int64) (string, any) { return "", seq },
		}).
		AddOperator("count", streamrt.OperatorSpec{
			Keyed: true,
			Process: func(state any, _ string, _ any, _ streamrt.Emit) any {
				c, _ := state.(int)
				return c + 1
			},
			State: streamrt.IntStateCodec{},
		}).
		AddEdge("ticks", "count").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	_, err = streamrt.NewJobFromSavepoint(other, dataflow.Parallelism{"ticks": 1, "count": 1},
		streamrt.Config{}, store, "cut")
	if err == nil || !strings.Contains(err.Error(), `no sequence counter for source "ticks"`) {
		t.Fatalf("foreign-pipeline restore error = %v", err)
	}
}
