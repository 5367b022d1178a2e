// Tests for the coordinator/placement seam: a fake placement that
// fails on demand pins the sticky-failure contract, and a call-counting
// StateCodec pins that the local placement does no codec round trip.
package streamrt

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ds2/internal/dataflow"
)

// countingCodec is IntStateCodec counting its calls.
type countingCodec struct{ enc, dec atomic.Int64 }

func (c *countingCodec) EncodeState(v any) []byte {
	c.enc.Add(1)
	return IntStateCodec{}.EncodeState(v)
}

func (c *countingCodec) DecodeState(b []byte) any {
	c.dec.Add(1)
	return IntStateCodec{}.DecodeState(b)
}

const seamKeys = 48

// seamPipeline is src -> count, keyed over seamKeys keys, bounded when
// limit > 0.
func seamPipeline(t *testing.T, limit int64, codec StateCodec) *Pipeline {
	t.Helper()
	p, err := NewPipeline().
		AddSource("src", SourceSpec{
			Rate:  func(float64) float64 { return 1e12 },
			Next:  func(seq int64) (string, any) { return fmt.Sprintf("k%02d", seq%seamKeys), nil },
			Limit: limit,
		}).
		AddOperator("count", OperatorSpec{
			Keyed: true,
			Process: func(state any, _ string, _ any, _ Emit) any {
				c, _ := state.(int)
				return c + 1
			},
			State: codec,
		}).
		AddEdge("src", "count").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLocalPlacementCodecCalls(t *testing.T) {
	const limit = 20 * seamKeys
	codec := new(countingCodec)
	pipe := seamPipeline(t, limit, codec)
	calls := func() [2]int64 { return [2]int64{codec.enc.Load(), codec.dec.Load()} }

	job, err := NewJob(pipe, dataflow.Parallelism{"src": 1, "count": 2}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	job.Wait() // every key now holds state
	if err := job.Rescale(dataflow.Parallelism{"src": 1, "count": 3}); err != nil {
		t.Fatal(err)
	}
	if got := calls(); got != [2]int64{0, 0} {
		t.Fatalf("local Rescale made %v encode/decode calls, want none", got)
	}
	store := NewMemoryStore()
	if err := job.Savepoint(store, "cut"); err != nil {
		t.Fatal(err)
	}
	if got := calls(); got != [2]int64{seamKeys, 0} {
		t.Fatalf("local Savepoint: %v encode/decode calls, want each of %d keys encoded once and none decoded", got, seamKeys)
	}
	job.Stop()
	if got := calls(); got != [2]int64{seamKeys, 0} {
		t.Fatalf("local Stop: %v encode/decode calls, want no new ones", got)
	}

	restored, err := NewJobFromSavepoint(pipe, dataflow.Parallelism{"src": 1, "count": 4}, Config{}, store, "cut")
	if err != nil {
		t.Fatal(err)
	}
	if got := calls(); got != [2]int64{seamKeys, seamKeys} {
		t.Fatalf("restore: %v encode/decode calls, want each of %d keys decoded once and none encoded", got, seamKeys)
	}
	restored.Wait()
	want := make(map[string]any, seamKeys)
	for k := 0; k < seamKeys; k++ {
		want[fmt.Sprintf("k%02d", k)] = limit / seamKeys
	}
	if got := restored.Stop()["count"]; !reflect.DeepEqual(got, want) {
		t.Fatalf("restored counts diverged:\n got: %v\nwant: %v", got, want)
	}
}

// TestRemotePlacementCodecCalls is the remote counterpart: on a
// 2-worker cluster the coordinator and each worker get a pipeline with a
// counting codec of their own. State crosses processes as bytes, so
// every key is encoded exactly once by the worker that drains it and
// decoded exactly once by the worker hosting the instance it is dealt to
// — the coordinator deals, persists and ships bytes and calls no codec
// until Stop asks it for values.
func TestRemotePlacementCodecCalls(t *testing.T) {
	const limit = 20 * seamKeys
	build := func(codec StateCodec) *Pipeline {
		p, err := NewPipeline().
			AddSource("src", SourceSpec{
				Rate:  func(float64) float64 { return 1e12 },
				Next:  func(seq int64) (string, any) { return fmt.Sprintf("k%02d", seq%seamKeys), "" },
				Limit: limit,
			}).
			AddOperator("count", OperatorSpec{
				Keyed: true,
				Process: func(state any, _ string, _ any, _ Emit) any {
					c, _ := state.(int)
					return c + 1
				},
				Codec: StringCodec{},
				State: codec,
			}).
			AddEdge("src", "count").
			Build()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	coord := new(countingCodec)
	workers := []*countingCodec{new(countingCodec), new(countingCodec)}
	addrs := make([]string, len(workers))
	for i, codec := range workers {
		w := NewWorker(i, map[string]*Pipeline{"seam": build(codec)}, nil)
		addr, err := w.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Close)
		addrs[i] = addr
	}
	// calls returns the encode and decode calls since it was last asked,
	// of the coordinator, worker 0 and worker 1 in that order.
	var last [6]int64
	calls := func() (delta [6]int64) {
		for i, c := range []*countingCodec{coord, workers[0], workers[1]} {
			enc, dec := c.enc.Load(), c.dec.Load()
			delta[2*i], delta[2*i+1] = enc-last[2*i], dec-last[2*i+1]
			last[2*i], last[2*i+1] = enc, dec
		}
		return delta
	}

	pipe := build(coord)
	cluster, err := NewCluster(pipe, "seam", dataflow.Parallelism{"src": 1, "count": 2}, addrs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cluster.Wait() // every key now holds state
	if got := calls(); got != [6]int64{} {
		t.Fatalf("deploying from nothing made %v codec calls, want none", got)
	}

	// The two drained instances split the keys by the rendezvous
	// fallback; the deal then gives each of three instances 16, and
	// worker 0 hosts instances 0 and 2, worker 1 instance 1.
	if err := cluster.Rescale(dataflow.Parallelism{"src": 1, "count": 3}); err != nil {
		t.Fatal(err)
	}
	got := calls()
	if got[2]+got[4] != seamKeys || got[3] != 32 || got[5] != 16 || got[0] != 0 || got[1] != 0 {
		t.Fatalf("remote Rescale: calls %v, want none by the coordinator, %d encodes and 32 + 16 decodes by the workers", got, seamKeys)
	}

	// A savepoint encodes each key once for the file; its restart is a
	// deploy like any other and decodes each key where it lands.
	store := NewMemoryStore()
	if err := cluster.Savepoint(store, "cut"); err != nil {
		t.Fatal(err)
	}
	if got := calls(); got != [6]int64{0, 0, 32, 32, 16, 16} {
		t.Fatalf("remote Savepoint: calls %v, want [0 0 32 32 16 16]", got)
	}
	// Stop returns values: here, and only here, the coordinator decodes.
	cluster.Stop()
	cluster.Close()
	if got := calls(); got != [6]int64{0, seamKeys, 32, 0, 16, 0} {
		t.Fatalf("remote Stop: calls %v, want [0 %d 32 0 16 0]", got, seamKeys)
	}

	// Four instances of 12 keys, two on each worker.
	restored, err := NewClusterFromSavepoint(pipe, "seam", dataflow.Parallelism{"src": 1, "count": 4}, addrs, Config{}, store, "cut")
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if got := calls(); got != [6]int64{0, 0, 0, 24, 0, 24} {
		t.Fatalf("remote restore: calls %v, want no encode and 24 + 24 decodes by the workers", got)
	}
	restored.Wait()
	want := make(map[string]any, seamKeys)
	for k := 0; k < seamKeys; k++ {
		want[fmt.Sprintf("k%02d", k)] = limit / seamKeys
	}
	if got := restored.Stop()["count"]; !reflect.DeepEqual(got, want) {
		t.Fatalf("restored counts diverged:\n got: %v\nwant: %v", got, want)
	}
}

// stayKey is the key of the seq-th record of stayPipeline: the universe
// grows by one key every 256 records, so at any deal some keys are known
// and new ones keep arriving, many in groups that held no key at the
// last deal.
func stayKey(seq int64) string { return fmt.Sprintf("k%03d", seq%(16+seq/256)) }

// stayPipeline is src -> work -> count: a stateless pass-through in
// front of a keyed counter, paced so that a bounded run lasts long enough
// to be reconfigured several times on the way.
func stayPipeline(t *testing.T, limit int64, codec StateCodec) *Pipeline {
	t.Helper()
	p, err := NewPipeline().
		AddSource("src", SourceSpec{
			Rate:  func(float64) float64 { return 20000 },
			Next:  func(seq int64) (string, any) { return stayKey(seq), "" },
			Limit: limit,
		}).
		AddOperator("work", OperatorSpec{
			Process: func(_ any, key string, v any, emit Emit) any { emit(key, v); return nil },
			Codec:   StringCodec{},
		}).
		AddOperator("count", OperatorSpec{
			Keyed: true,
			Process: func(state any, _ string, _ any, _ Emit) any {
				c, _ := state.(int)
				return c + 1
			},
			Codec: StringCodec{},
			State: codec,
		}).
		AddEdge("src", "work").
		AddEdge("work", "count").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// stayCounts replays stayPipeline's source: the exact final counts.
func stayCounts(limit int64) map[string]any {
	want := make(map[string]any)
	for seq := int64(0); seq < limit; seq++ {
		c, _ := want[stayKey(seq)].(int)
		want[stayKey(seq)] = c + 1
	}
	return want
}

// TestUnchangedParallelismMovesNoState: across a Savepoint, and across a
// Rescale that changes another operator only, every count instance keeps
// the very map it held and the deployment the very router — nothing is
// dealt; a Rescale of count itself deals. The run is bounded and its
// final counts are exact.
func TestUnchangedParallelismMovesNoState(t *testing.T) {
	const limit = 16000
	pipe := stayPipeline(t, limit, IntStateCodec{})
	job, err := NewJob(pipe, dataflow.Parallelism{"src": 1, "work": 1, "count": 2}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := job.pl.(*host)
	// held returns the identity of every count instance's state map, by
	// instance, and count's router.
	held := func() (maps []uintptr, rt *router) {
		h.mu.Lock()
		defer h.mu.Unlock()
		for _, in := range h.dep.insts["count"] {
			maps = append(maps, reflect.ValueOf(in.state).Pointer())
		}
		return maps, h.dep.routers["count"]
	}
	emitted := func(n int64) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); atomic.LoadInt64(h.seqs["src"]) < n; {
			if time.Now().After(deadline) {
				t.Fatalf("source emitted %d of the %d records waited for", atomic.LoadInt64(h.seqs["src"]), n)
			}
			time.Sleep(time.Millisecond)
		}
	}

	emitted(2000)
	if err := job.Rescale(dataflow.Parallelism{"src": 1, "work": 1, "count": 3}); err != nil {
		t.Fatal(err)
	}
	maps0, rt0 := held()
	// Every key the deal knew was emitted by now.
	known := len(stayCounts(atomic.LoadInt64(h.seqs["src"])))
	if len(maps0) != 3 || rt0.n != 3 {
		t.Fatalf("after the deal: %d instances, a router over %d", len(maps0), rt0.n)
	}
	emitted(atomic.LoadInt64(h.seqs["src"]) + 1500) // keys the deal did not know

	store := NewMemoryStore()
	if err := job.Savepoint(store, "cut"); err != nil {
		t.Fatal(err)
	}
	if maps, rt := held(); !reflect.DeepEqual(maps, maps0) || rt != rt0 {
		t.Fatalf("Savepoint moved state: maps %v -> %v, same router %v", maps0, maps, rt == rt0)
	}
	// The cut held both kinds of key: dealt ones and later arrivals.
	data, err := store.Load("cut")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := decodeSavepoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if cut := len(sp.States["count"]); cut <= known {
		t.Fatalf("savepoint holds %d keys, %d were known at the deal: no key arrived after it", cut, known)
	}

	if err := job.Rescale(dataflow.Parallelism{"src": 1, "work": 2, "count": 3}); err != nil {
		t.Fatal(err)
	}
	if maps, rt := held(); !reflect.DeepEqual(maps, maps0) || rt != rt0 {
		t.Fatalf("Rescale of work moved count's state: maps %v -> %v, same router %v", maps0, maps, rt == rt0)
	}

	if err := job.Rescale(dataflow.Parallelism{"src": 1, "work": 2, "count": 2}); err != nil {
		t.Fatal(err)
	}
	maps, rt := held()
	if len(maps) != 2 || rt == rt0 || rt.n != 2 {
		t.Fatalf("Rescale of count: %d instances, a router over %d, same router %v", len(maps), rt.n, rt == rt0)
	}
	for _, m := range maps {
		for _, m0 := range maps0 {
			if m == m0 {
				t.Fatal("Rescale of count kept an instance's map instead of dealing")
			}
		}
	}

	job.Wait()
	if got := job.Stop()["count"]; !reflect.DeepEqual(got, stayCounts(limit)) {
		t.Fatalf("final counts diverged from the replay:\n got: %v\nwant: %v", got, stayCounts(limit))
	}
}

// TestGroupRoutingAcrossReconfigurations: while stayPipeline's universe
// grows through every deal, count goes 1 → 3 → 2 by rescales, is cut by
// a savepoint, restored at 5 and rescaled to 1 — in one process and over
// two workers — and the restored run's final counts are exact.
func TestGroupRoutingAcrossReconfigurations(t *testing.T) {
	const limit = 12000
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			pipe := stayPipeline(t, limit, IntStateCodec{})
			// emitted counts the records the source made, over every job
			// and worker, so each step waits for new keys to arrive.
			var emitted atomic.Int64
			src := pipe.sources["src"]
			next := src.Next
			src.Next = func(seq int64) (string, any) { emitted.Add(1); return next(seq) }
			more := func(n int64) {
				t.Helper()
				want := emitted.Load() + n
				for deadline := time.Now().Add(10 * time.Second); emitted.Load() < want; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("source made %d of the %d records waited for", emitted.Load(), want)
					}
				}
			}
			var workload string
			var addrs []string
			for i := 0; i < workers; i++ {
				w := NewWorker(i, map[string]*Pipeline{"stay": pipe}, nil)
				addr, err := w.Listen("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(w.Close)
				workload, addrs = "stay", append(addrs, addr)
			}
			par := func(n int) dataflow.Parallelism { return dataflow.Parallelism{"src": 1, "work": 1, "count": n} }

			job, err := start(pipe, workload, par(1), addrs, Config{}, nil, "")
			if err != nil {
				t.Fatal(err)
			}
			defer job.Close()
			for _, n := range []int{3, 2} {
				more(1500)
				if err := job.Rescale(par(n)); err != nil {
					t.Fatal(err)
				}
			}
			more(1500)
			store := NewMemoryStore()
			if err := job.Savepoint(store, "cut"); err != nil {
				t.Fatal(err)
			}
			job.Stop()
			job.Close()

			restored, err := start(pipe, workload, par(5), addrs, Config{}, store, "cut")
			if err != nil {
				t.Fatal(err)
			}
			defer restored.Close()
			more(1500)
			if err := restored.Rescale(par(1)); err != nil {
				t.Fatal(err)
			}
			restored.Wait()
			if got, want := restored.Stop()["count"], stayCounts(limit); !reflect.DeepEqual(got, want) {
				t.Fatalf("final counts diverged from the replay:\n got: %v\nwant: %v", got, want)
			}
		})
	}
}

// TestKeyedParallelismBoundedByKeyGroups: NewJob, NewJobFromSavepoint and
// Rescale refuse a keyed operator more instances than there are key
// groups, naming the operator, and a refused Rescale leaves the job
// running: its final counts are exact.
func TestKeyedParallelismBoundedByKeyGroups(t *testing.T) {
	const limit = 12000
	pipe := stayPipeline(t, limit, IntStateCodec{})
	over := dataflow.Parallelism{"src": 1, "work": 1, "count": keyGroups + 1}
	refused := func(what string, err error) {
		t.Helper()
		if want := fmt.Sprintf(`keyed operator "count" parallelism %d exceeds the %d key groups`, keyGroups+1, keyGroups); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s at %d count instances: error %v, want one containing %q", what, keyGroups+1, err, want)
		}
	}
	_, err := NewJob(pipe, over, Config{})
	refused("NewJob", err)

	job, err := NewJob(pipe, dataflow.Parallelism{"src": 1, "work": 1, "count": 2}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	store := NewMemoryStore()
	if err := job.Savepoint(store, "cut"); err != nil {
		t.Fatal(err)
	}
	_, err = NewJobFromSavepoint(pipe, over, Config{}, store, "cut")
	refused("NewJobFromSavepoint", err)
	refused("Rescale", job.Rescale(over))
	if err := job.Err(); err != nil {
		t.Fatalf("the refused Rescale failed the job: %v", err)
	}
	if err := job.Rescale(dataflow.Parallelism{"src": 1, "work": 1, "count": 3}); err != nil {
		t.Fatal(err)
	}
	job.Wait()
	if got := job.Stop()["count"]; !reflect.DeepEqual(got, stayCounts(limit)) {
		t.Fatalf("final counts diverged from the replay:\n got: %v\nwant: %v", got, stayCounts(limit))
	}
}

// fakePlacement succeeds at everything except the one call named in
// failOn, and counts the calls that reach it.
type fakePlacement struct {
	failOn string
	err    error

	mu    sync.Mutex
	calls map[string]int
}

func (f *fakePlacement) call(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls[name]++
	if name == f.failOn {
		return f.err
	}
	return nil
}

func (f *fakePlacement) count(name string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[name]
}

func (f *fakePlacement) workers() int                        { return 2 }
func (f *fakePlacement) validate(dataflow.Parallelism) error { return nil }
func (f *fakePlacement) close()                              {}
func (f *fakePlacement) collect() ([]wireAcc, error)         { return nil, f.call("collect") }
func (f *fakePlacement) wait() (bool, error)                 { return false, f.call("wait") }
func (f *fakePlacement) deploy(uint32, dataflow.Parallelism, *snapshot, *rescaleTrace) error {
	return f.call("deploy")
}
func (f *fakePlacement) drain(*rescaleTrace, uint64) (*snapshot, error) {
	return &snapshot{enc: parts[[]byte]{}}, f.call("drain")
}
func (f *fakePlacement) awaitFirstRecord(uint32, time.Duration) (int64, bool) { return 0, false }

// within fails the test if fn has not returned after a generous bound:
// a failed placement must end every call, never park it.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); fn() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s hung after the placement failed", what)
	}
}

func TestPlacementFailureIsSticky(t *testing.T) {
	pipe := seamPipeline(t, 0, IntStateCodec{})
	par := dataflow.Parallelism{"src": 1, "count": 2}
	for _, failOn := range []string{"drain", "deploy", "wait"} {
		t.Run(failOn, func(t *testing.T) {
			boom := fmt.Errorf("streamrt: worker 1: %s refused", failOn)
			fake := &fakePlacement{failOn: failOn, err: boom, calls: make(map[string]int)}
			j := &Job{pipe: pipe, cfg: Config{}.withDefaults(), epoch: time.Now(), cur: par.Clone(), gen: 1, pl: fake}

			if failOn == "wait" {
				within(t, "Wait", j.Wait)
			} else {
				within(t, "Rescale", func() {
					if err := j.Rescale(par); !errors.Is(err, boom) {
						t.Errorf("Rescale = %v, want the %s failure", err, failOn)
					}
				})
				within(t, "Wait", j.Wait)
			}
			if err := j.Err(); !errors.Is(err, boom) {
				t.Fatalf("Err() = %v, want %v", err, boom)
			}

			// Everything after reports the first failure without reaching
			// the placement again.
			drains, deploys := fake.count("drain"), fake.count("deploy")
			within(t, "calls after the failure", func() {
				if err := j.Rescale(par); !errors.Is(err, boom) {
					t.Errorf("second Rescale = %v, want %v", err, boom)
				}
				if err := j.Savepoint(NewMemoryStore(), "cut"); !errors.Is(err, boom) {
					t.Errorf("Savepoint = %v, want %v", err, boom)
				}
				if _, err := j.Collect(); !errors.Is(err, boom) {
					t.Errorf("Collect = %v, want %v", err, boom)
				}
				if _, err := j.NextInterval(0.01); !errors.Is(err, boom) {
					t.Errorf("NextInterval = %v, want %v", err, boom)
				}
			})
			if fake.count("drain") != drains || fake.count("deploy") != deploys || fake.count("collect") != 0 {
				t.Fatalf("calls reached the failed placement: %v", fake.calls)
			}

			// Stop still drains what may be running, returns no partial
			// state, and leaves the failure readable.
			var final map[string]map[string]any
			within(t, "Stop", func() { final = j.Stop() })
			if want := map[string]map[string]any{"count": {}}; !reflect.DeepEqual(final, want) {
				t.Fatalf("Stop after failure = %v, want %v", final, want)
			}
			if err := j.Err(); !errors.Is(err, boom) {
				t.Fatalf("Err() after Stop = %v, want %v", err, boom)
			}
		})
	}
}

func TestWorkerDrainRejectsMalformedBody(t *testing.T) {
	w := NewWorker(0, nil, nil)
	for _, body := range []string{"", "{", `{"trace":7}`} {
		if _, err := w.drain([]byte(body)); err == nil {
			t.Errorf("drain(%q) accepted a malformed body", body)
		}
	}
	if _, err := w.drain([]byte("{}")); err != nil {
		t.Errorf("drain of a worker with nothing deployed: %v", err)
	}
}
