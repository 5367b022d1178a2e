package streamrt

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
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

// groupsOf files the keys of the maps in ps into group form, the form a
// drain hands state on in.
func groupsOf[V any](ps ...map[string]V) []map[string]V {
	groups := make([]map[string]V, keyGroups)
	for _, kv := range ps {
		for k, v := range kv {
			g := keyGroup(k)
			if groups[g] == nil {
				groups[g] = make(map[string]V)
			}
			groups[g][k] = v
		}
	}
	return groups
}

// flatShares merges the group maps of each instance's range under r into
// one map: the keys the instance starts from.
func flatShares[V any](groups []map[string]V, r *router) []map[string]V {
	shares := make([]map[string]V, r.n)
	for i := range shares {
		shares[i] = make(map[string]V)
		for _, kv := range groups[r.bounds[i]:r.bounds[i+1]] {
			for k, v := range kv {
				shares[i][k] = v
			}
		}
	}
	return shares
}

// cutRouter cuts known, in group form, over n instances and returns the
// router a deployment would run under, with each instance's keys.
func cutRouter(known map[string]any, n int) (*router, []map[string]any) {
	groups := groupsOf(known)
	r := cut(groups, n)
	return r, flatShares(groups, r)
}

// TestRouterStripesKnownKeysEvenly: a known universe must split within
// one key of perfectly even — the skew-aware guarantee FNV%n cannot
// give on small universes.
func TestRouterStripesKnownKeysEvenly(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 16} {
		known := keyUniverse(100)
		rt, _ := cutRouter(known, n)
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

// TestRouterDeterministicAndStateAgreement: two cuts of the same
// snapshot agree on every owner (deployment determinism), and the shares
// split state exactly along the router's lines — disjoint across
// instances, nothing lost.
func TestRouterDeterministicAndStateAgreement(t *testing.T) {
	known := keyUniverse(64)
	a, shares := cutRouter(known, 5)
	b, _ := cutRouter(known, 5)
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
	// Unseen keys route by their key group like known ones: to the
	// instance whose group range holds it, the same under both cuts. A
	// cut of no keys gives the groups into uniform ranges.
	empty, _ := cutRouter(nil, 5)
	for i := range empty.bounds {
		if want := i * keyGroups / 5; empty.bounds[i] != want {
			t.Fatalf("empty cut: bounds %v, want i·%d/5", empty.bounds, keyGroups)
		}
	}
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("unseen-%d", i)
		own, g := a.owner(k), keyGroup(k)
		if own < 0 || own >= 5 {
			t.Fatalf("key %s routed to %d, out of range", k, own)
		}
		if g < a.bounds[own] || g >= a.bounds[own+1] || own != b.owner(k) {
			t.Fatalf("key %s (group %d) routed to %d: not its group range under bounds %v, or not the second router's", k, g, own, a.bounds)
		}
		if e := empty.owner(k); g < empty.bounds[e] || g >= empty.bounds[e+1] {
			t.Fatalf("key %s (group %d) routed to %d over an empty cut, bounds %v", k, g, e, empty.bounds)
		}
	}
}

// refBounds is the group rule written out from the sorted groups of
// known, as the reference cut is checked against: K_i keys go below
// instance i's range — len/n an instance, one more for the first len%n —
// so the range can start no lower than one past the K_i'th key's group
// and no higher than the (K_i+1)'th key's; it starts at the uniform bound
// i·G/n clamped into that window, or at the window's low end when one
// group holds both keys.
func refBounds(known map[string]any, n int) []int {
	gs := make([]int, 0, len(known))
	for k := range known {
		gs = append(gs, keyGroup(k))
	}
	sort.Ints(gs)
	bounds := []int{0}
	below := 0
	for i := 1; i < n; i++ {
		below += len(gs) / n
		if i-1 < len(gs)%n {
			below++
		}
		lo, hi := 0, keyGroups
		if below > 0 {
			lo = gs[below-1] + 1
		}
		if below < len(gs) {
			hi = gs[below]
		}
		b := i * keyGroups / n
		switch {
		case lo > hi || b < lo:
			b = lo
		case b > hi:
			b = hi
		}
		bounds = append(bounds, b)
	}
	return append(bounds, keyGroups)
}

// refParallelisms are the instance counts the reference tests of the cut
// sweep: the smallest, where a lone instance or the remainder decides a
// bound, a prime, a power of two and one past the next.
var refParallelisms = []int{1, 2, 3, 7, 16, 33}

// refOwner is the instance whose range under bounds holds key's group.
func refOwner(bounds []int, key string) int {
	g := keyGroup(key)
	for inst := 0; inst+1 < len(bounds); inst++ {
		if bounds[inst] <= g && g < bounds[inst+1] {
			return inst
		}
	}
	return -1
}

// TestDealIsTheGroupRule: whatever the number of keys, instances and
// drained parts, the cut of their group maps returns the bounds refBounds
// computes over the merged universe, a router that sends every key to
// the instance whose range holds its group, and, per instance, group maps
// holding exactly the keys that router sends it. Every key count up to 64
// meets every instance count of refParallelisms and every number of
// parts; above that the key counts are sampled and the number of parts
// varies with them.
func TestDealIsTheGroupRule(t *testing.T) {
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
		groups := groupsOf(split...)
		r := cut(groups, n)
		shares := flatShares(groups, r)
		bounds := refBounds(all, n)
		if !reflect.DeepEqual(r.bounds, bounds) {
			t.Fatalf("%d keys, %d instances, %d parts: bounds %v, the rule gives %v", nkeys, n, nparts, r.bounds, bounds)
		}
		if len(shares) != n {
			t.Fatalf("%d keys, %d instances, %d parts: %d shares", nkeys, n, nparts, len(shares))
		}
		want := make([]map[string]any, n)
		for i := range want {
			want[i] = make(map[string]any)
		}
		for k, v := range all {
			inst := refOwner(bounds, k)
			if own := r.owner(k); own != inst {
				t.Fatalf("%d keys, %d instances, %d parts: key %s routed to %d, the rule gives %d", nkeys, n, nparts, k, own, inst)
			}
			want[inst][k] = v
		}
		for idx, share := range shares {
			if !reflect.DeepEqual(share, want[idx]) {
				t.Fatalf("%d keys, %d instances, %d parts: instance %d starts from %d keys, the rule gives it %d",
					nkeys, n, nparts, idx, len(share), len(want[idx]))
			}
		}
	}
	for _, n := range refParallelisms {
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

// TestAuctionUniverseSplitsEvenly: Nexmark's live auction universe, the
// 101 keys "0" to "100", splits within one key of even at every
// parallelism from 1 to 16.
func TestAuctionUniverseSplitsEvenly(t *testing.T) {
	known := make(map[string]any, 101)
	for i := 0; i <= 100; i++ {
		known[fmt.Sprint(i)] = i
	}
	for n := 1; n <= 16; n++ {
		_, shares := cutRouter(known, n)
		lo, hi := len(known), 0
		for _, s := range shares {
			lo, hi = min(lo, len(s)), max(hi, len(s))
		}
		if hi-lo > 1 {
			sizes := make([]int, n)
			for i, s := range shares {
				sizes[i] = len(s)
			}
			t.Errorf("101 auctions over %d instances split %v", n, sizes)
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

// TestRoutersFromRefusesBadBounds: a worker builds its routers from the
// bounds a DEPLOY carries only when they cut the key groups into the
// deployed parallelism's ordered ranges; anything else is refused naming
// the operator.
func TestRoutersFromRefusesBadBounds(t *testing.T) {
	pipe := &Pipeline{ops: map[string]*OperatorSpec{"count": {Keyed: true}, "map": {}}}
	par := map[string]int{"count": 3, "map": 2}
	good := []int{0, 100, 20000, keyGroups}
	routers, err := routersFrom(pipe, par, map[string][]int{"count": good})
	if err != nil {
		t.Fatal(err)
	}
	if len(routers) != 1 || !reflect.DeepEqual(routers["count"].bounds, good) {
		t.Fatalf("routers %v, want one for count over %v", routers, good)
	}
	for _, bad := range [][]int{
		nil,
		{0, keyGroups},
		{0, 100, 20000, 30000, keyGroups},
		{1, 100, 20000, keyGroups},
		{0, 100, 20000, keyGroups - 1},
		{0, 20000, 100, keyGroups},
		{0, -1, 100, keyGroups},
	} {
		if _, err := routersFrom(pipe, par, map[string][]int{"count": bad}); err == nil || !strings.Contains(err.Error(), `"count"`) {
			t.Errorf("bounds %v: error %v, want a refusal naming count", bad, err)
		}
	}
}
