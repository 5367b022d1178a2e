package streamrt

import "sort"

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

// deal hands the keyed state in drained — the quiesced instances' maps,
// keys disjoint by the previous generation's router — to the n instances
// of the next one: the routing table and, per instance, the share of the
// state it starts from (never nil: an instance writes into it from the
// first record on). The key universe is sorted once and cut into n
// contiguous runs, len/n keys each and one more for the first len%n
// instances; one pass over the maps then files every key under the run
// it falls in, in the table and in its owner's share. With one instance,
// or no state, there is no table: everything is instance 0's, as the
// router's fallback has it.
//
// It is the only place known keys are assigned. The local placement
// calls it on the values themselves, the remote one on their StateCodec
// bytes, shipping each worker the table and the shares of the instances
// it hosts.
func deal[V any](drained []map[string]V, n int) (table map[string]int, shares []map[string]V) {
	total := 0
	for _, p := range drained {
		total += len(p)
	}
	var cuts []string // cuts[i] is the first key of instance i+1's run
	if n > 1 && total > 0 {
		keys := make([]string, 0, total)
		for _, p := range drained {
			for k := range p {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		base, extra := total/n, total%n
		for inst := 1; inst < n; inst++ {
			// Instances past the last key own nothing and need no cut.
			if at := inst*base + min(inst, extra); at < total {
				cuts = append(cuts, keys[at])
			}
		}
		table = make(map[string]int, total)
	}
	shares = make([]map[string]V, n)
	for i := range shares {
		shares[i] = make(map[string]V, total/n+1)
	}
	for _, p := range drained {
		for k, v := range p {
			// The owner is the number of cuts at or below k.
			inst := sort.Search(len(cuts), func(i int) bool { return cuts[i] > k })
			if table != nil {
				table[k] = inst
			}
			shares[inst][k] = v
		}
	}
	return table, shares
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
