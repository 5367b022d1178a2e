package streamrt

import (
	"fmt"
	"reflect"
	"sort"
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

// dealRouter deals known, as one part, over n instances and returns the
// router a deployment would build over the table, with the shares.
func dealRouter(known map[string]any, n int) (*router, []map[string]any) {
	table, shares := deal([]map[string]any{known}, n)
	return &router{n: n, table: table}, shares
}

// TestRouterStripesKnownKeysEvenly: a known universe must split within
// one key of perfectly even — the skew-aware guarantee FNV%n cannot
// give on small universes.
func TestRouterStripesKnownKeysEvenly(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 16} {
		known := keyUniverse(100)
		rt, _ := dealRouter(known, n)
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
		if n == 3 && !reflect.DeepEqual(sizes, []int{34, 33, 33}) {
			t.Errorf("100 keys over 3 instances split %v, want [34 33 33]", sizes)
		}
	}
}

// TestRouterDeterministicAndStateAgreement: two deals of the same
// snapshot agree on every owner (deployment determinism), and the shares
// split state exactly along the router's lines — disjoint across
// instances, nothing lost.
func TestRouterDeterministicAndStateAgreement(t *testing.T) {
	known := keyUniverse(64)
	a, shares := dealRouter(known, 5)
	b, _ := dealRouter(known, 5)
	seen := make(map[string]int)
	for idx := 0; idx < 5; idx++ {
		for k := range shares[idx] {
			if prev, dup := seen[k]; dup {
				t.Fatalf("key %s in instances %d and %d", k, prev, idx)
			}
			seen[k] = idx
			if own := b.owner(k); own != idx {
				t.Fatalf("key %s: its share says %d, second router says %d", k, idx, own)
			}
		}
	}
	if len(seen) != len(known) {
		t.Fatalf("%d keys partitioned, want %d", len(seen), len(known))
	}
	// Unseen keys take the rendezvous fallback: deterministic and in
	// range, for fresh deployments with an empty table too.
	empty, _ := dealRouter(nil, 5)
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

// buildRouter and partitionState are the rule deal replaced, kept word
// for word as its reference: merge every part into one map, sort the
// key universe and stripe it, then scan the whole map once per instance.

// buildRouter stripes the known key universe over n instances.
func buildRouter(known map[string]any, n int) *router {
	r := &router{n: n}
	if n <= 1 || len(known) == 0 {
		return r
	}
	keys := make([]string, 0, len(known))
	for k := range known {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	r.table = make(map[string]int, len(keys))
	// Instance i owns share(i) consecutive sorted keys: len/n each,
	// and one more for the first len%n instances.
	base, extra := len(keys)/n, len(keys)%n
	next := 0
	for inst := 0; inst < n; inst++ {
		share := base
		if inst < extra {
			share++
		}
		for _, k := range keys[next : next+share] {
			r.table[k] = inst
		}
		next += share
	}
	return r
}

// partitionState selects the keys instance idx owns under the
// deployment's router.
func partitionState(all map[string]any, rt *router, idx int) map[string]any {
	out := make(map[string]any)
	for k, v := range all {
		if rt.owner(k) == idx {
			out[k] = v
		}
	}
	return out
}

// TestDealIsTheOldRule: whatever the number of keys, instances and
// drained parts, deal returns the table buildRouter built over the
// merged universe and, per instance, the map partitionState selected.
// Every key count up to 64 meets every instance count and every number
// of parts; above that the key counts are sampled and the number of
// parts varies with them.
func TestDealIsTheOldRule(t *testing.T) {
	check := func(nkeys, n, nparts int) {
		t.Helper()
		all := keyUniverse(nkeys)
		split := make([]map[string]any, nparts)
		for i := range split {
			split[i] = make(map[string]any)
		}
		for k, v := range all {
			split[hashKey(k)%uint64(nparts)][k] = v
		}
		table, shares := deal(split, n)
		ref := buildRouter(all, n)
		if !reflect.DeepEqual(table, ref.table) {
			t.Fatalf("%d keys, %d instances, %d parts: routing table differs from buildRouter's", nkeys, n, nparts)
		}
		if len(shares) != n {
			t.Fatalf("%d keys, %d instances, %d parts: %d shares", nkeys, n, nparts, len(shares))
		}
		for idx, share := range shares {
			if want := partitionState(all, ref, idx); !reflect.DeepEqual(share, want) {
				t.Fatalf("%d keys, %d instances, %d parts: instance %d starts from %d keys, partitionState selected %d",
					nkeys, n, nparts, idx, len(share), len(want))
			}
		}
	}
	for n := 1; n <= 33; n++ {
		for nkeys := 0; nkeys <= 64; nkeys++ {
			for nparts := 1; nparts <= 5; nparts++ {
				check(nkeys, n, nparts)
			}
		}
		for nkeys := 65; nkeys <= 1500; nkeys += 41 {
			check(nkeys, n, 1+(nkeys+n)%5)
		}
		check(1500, n, 5)
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
