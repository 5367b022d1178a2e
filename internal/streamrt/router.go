package streamrt

import "sort"

// router decides which instance of a keyed operator owns each key for
// one deployment generation. The exchange (emit) and keyed-state
// repartitioning share one router per operator, so a key's records and
// its state always agree on the owner.
//
// Keys the job has already seen — present in the rescale snapshot —
// are striped over the instances by a deployment-time routing table:
// sorted for determinism and dealt out in equal shares, the remainder
// going to the lowest instance indices. That keeps a small
// hot universe balanced exactly — 100 auctions over 3 instances split
// 34/33/33 — where hashing mod n would saturate the luckiest shard
// well before the mean. Keys never seen before fall back to rendezvous
// (highest-random-weight) hashing: deterministic within a deployment,
// and at most ~1/n of fallback keys change owner when n changes.
type router struct {
	n     int
	table map[string]int
}

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

// routerFromTable wraps a routing table the coordinator of a
// distributed deployment built (with buildRouter over the merged key
// universe) and shipped to every worker — each process must route from
// the identical table, not from one rebuilt over its partial state.
func routerFromTable(table map[string]int, n int) *router {
	return &router{n: n, table: table}
}

// owner returns the instance index owning key.
func (r *router) owner(key string) int {
	if r.n <= 1 {
		return 0
	}
	if t, ok := r.table[key]; ok {
		return t
	}
	return rendezvousOwner(key, r.n)
}

// rendezvousOwner picks argmax_i mix64(hash(key) ^ seed_i): alloc-free
// highest-random-weight hashing over the instance indices.
func rendezvousOwner(key string, n int) int {
	h := hashKey(key)
	best, bestScore := 0, uint64(0)
	for i := 0; i < n; i++ {
		if s := mix64(h ^ (uint64(i)+1)*0x9E3779B97F4A7C15); s > bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

// mix64 is the splitmix64 finalizer: a cheap bijective scrambler with
// good avalanche, so per-instance scores decorrelate even for similar
// keys.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
