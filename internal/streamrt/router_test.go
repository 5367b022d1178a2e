package streamrt

import (
	"fmt"
	"testing"
	"time"
)

func keyUniverse(n int) map[string]any {
	out := make(map[string]any, n)
	for i := 1; i <= n; i++ {
		out[fmt.Sprintf("%d", i)] = i
	}
	return out
}

func shardSizes(rt *router, known map[string]any, n int) []int {
	sizes := make([]int, n)
	for k := range known {
		sizes[rt.owner(k)]++
	}
	return sizes
}

// TestRouterStripesKnownKeysEvenly: a known universe must split within
// one key of perfectly even — the skew-aware guarantee FNV%n cannot
// give on small universes.
func TestRouterStripesKnownKeysEvenly(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 16} {
		known := keyUniverse(100)
		rt := buildRouter(known, n)
		sizes := shardSizes(rt, known, n)
		lo, hi := sizes[0], sizes[0]
		total := 0
		for _, s := range sizes {
			if s < lo {
				lo = s
			}
			if s > hi {
				hi = s
			}
			total += s
		}
		if total != 100 {
			t.Fatalf("n=%d: %d keys routed, want 100", n, total)
		}
		if hi-lo > 1 {
			t.Errorf("n=%d: shard sizes %v spread more than 1", n, sizes)
		}
	}
}

// TestRouterDeterministicAndStateAgreement: two routers built from the
// same snapshot agree on every owner (deployment determinism), and
// partitionState splits state exactly along the router's lines —
// disjoint across instances, nothing lost.
func TestRouterDeterministicAndStateAgreement(t *testing.T) {
	known := keyUniverse(64)
	a := buildRouter(known, 5)
	b := buildRouter(known, 5)
	seen := make(map[string]int)
	for idx := 0; idx < 5; idx++ {
		part := partitionState(known, a, idx)
		for k := range part {
			if prev, dup := seen[k]; dup {
				t.Fatalf("key %s in instances %d and %d", k, prev, idx)
			}
			seen[k] = idx
			if own := b.owner(k); own != idx {
				t.Fatalf("key %s: partitionState says %d, second router says %d", k, idx, own)
			}
		}
	}
	if len(seen) != len(known) {
		t.Fatalf("%d keys partitioned, want %d", len(seen), len(known))
	}
	// Unseen keys take the rendezvous fallback: deterministic and in
	// range, for fresh deployments with an empty table too.
	empty := buildRouter(nil, 5)
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("unseen-%d", i)
		own := a.owner(k)
		if own < 0 || own >= 5 {
			t.Fatalf("key %s routed to %d, out of range", k, own)
		}
		if own != b.owner(k) || own != empty.owner(k) {
			t.Fatalf("key %s: fallback owner differs between routers", k)
		}
	}
}

// TestLowRateRecordsFlowPromptly pins the time-bounded flush: at 50
// records/s a batch would take seconds to fill, so records must ride
// the idle/deadline flushes instead — the job drains its 10-record
// limit at stream speed, not at batch-fill speed.
func TestLowRateRecordsFlowPromptly(t *testing.T) {
	total := 0
	p, err := NewPipeline().
		AddSource("src", SourceSpec{
			Rate:  func(float64) float64 { return 50 },
			Next:  func(seq int64) (string, any) { return "k", seq },
			Limit: 10,
		}).
		AddOperator("sink", OperatorSpec{
			Process: func(_ any, _ string, _ any, _ Emit) any { total++; return nil },
		}).
		AddEdge("src", "sink").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	j, err := NewJob(p, map[string]int{"src": 1, "sink": 1}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	j.Wait()
	j.Stop()
	elapsed := time.Since(start)
	if total != 10 {
		t.Fatalf("sink saw %d records, want 10", total)
	}
	// 10 records at 50/s is 200ms of stream; batch-fill would need 5s.
	if elapsed > 1500*time.Millisecond {
		t.Errorf("drained in %v — records sat in partial batches", elapsed)
	}
}
