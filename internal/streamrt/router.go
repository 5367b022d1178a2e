package streamrt

import (
	"slices"
	"strings"
)

// router decides which instance of a keyed operator owns each key for
// one deployment generation. Its table comes out of the same deal that
// hands the instances their state, so a key's records and its state
// always agree on the owner.
//
// Keys the job has already seen — present in the rescale snapshot —
// are striped over the instances by that deployment-time routing table:
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

// entry is one key's state. A run is a slice of them: what deal sorts
// and cuts, and what a savepoint file holds per operator, in key order.
type entry[V any] struct {
	key string
	val V
}

// gather collects the (key, state) pairs of every map in ps into one run,
// in no particular order.
func gather[V any](ps []map[string]V) []entry[V] {
	n := 0
	for _, p := range ps {
		n += len(p)
	}
	run := make([]entry[V], 0, n)
	for _, p := range ps {
		for k, v := range p {
			run = append(run, entry[V]{k, v})
		}
	}
	return run
}

func sortRun[V any](run []entry[V]) {
	slices.SortFunc(run, func(a, b entry[V]) int { return strings.Compare(a.key, b.key) })
}

// deal hands the keyed state in drained — the quiesced instances' maps,
// keys disjoint by the previous generation's router — to the n instances
// of the next one: the routing table and, per instance, the share of the
// state it starts from. The maps are gathered into one run, sorted (one
// instance owns every key, in any order) and cut (see cut).
func deal[V any](drained []map[string]V, n int) (table map[string]int, shares []map[string]V) {
	run := gather(drained)
	if n > 1 {
		sortRun(run)
	}
	table, shares, _ = cut(run, n, func(_ string, v V) (V, error) { return v, nil })
	return table, shares
}

// cut is the one rule that assigns known keys: it cuts a key-ordered run
// into n contiguous runs, len/n keys each and one more for the first
// len%n instances, and files every key in the routing table and in its
// owner's share (never nil: an instance writes into it from the first
// record on), converted by conv, whose first error ends the cut. With one
// instance, or no state, there is no table: everything is instance 0's,
// as the router's fallback has it. Drained state comes through deal; a
// savepoint file's runs, in key order already, straight from dealAll.
func cut[A, B any](run []entry[A], n int, conv func(key string, a A) (B, error)) (map[string]int, []map[string]B, error) {
	var table map[string]int
	if n > 1 && len(run) > 0 {
		table = make(map[string]int, len(run))
	}
	shares := make([]map[string]B, n)
	base, extra := len(run)/n, len(run)%n
	for inst := range shares {
		size := base
		if inst < extra {
			size++
		}
		share := make(map[string]B, size)
		for _, e := range run[:size] {
			v, err := conv(e.key, e.val)
			if err != nil {
				return nil, nil, err
			}
			if table != nil {
				table[e.key] = inst
			}
			share[e.key] = v
		}
		shares[inst], run = share, run[size:]
	}
	return table, shares, nil
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

// hashKey is FNV-1a 64 — the stable hash behind the rendezvous
// fallback, so an unseen key's owning instance is a pure function of
// (key, parallelism).
func hashKey(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
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
