package streamrt

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"ds2/internal/dataflow"
)

// keyGroups is the number of key groups every keyed operator's keys fall
// into (keyGroup): the unit a deployment routes, deals and writes a
// savepoint in. A version 2 savepoint file is in (group, key) order, so
// the count and keyGroup are fixed by the file's version number: changing
// either is a version bump. It also bounds a keyed operator's parallelism.
const keyGroups = 1 << 15

// keyGroup returns the key group of key.
func keyGroup(key string) int { return int(mix64(hashKey(key)) & (keyGroups - 1)) }

// router decides which instance of a keyed operator owns each key for
// one deployment generation: instance i owns the key groups
// [bounds[i], bounds[i+1]). The bounds come out of the same cut that
// hands the instances their state, so a key's records and its state
// always agree on the owner, and a key the cut never saw routes by its
// group like any other.
type router struct {
	n      int
	bounds []int    // n+1 group bounds, from 0 to keyGroups
	owners []uint16 // group -> instance
}

// newRouter returns the router over bounds, building its group -> owner
// table once for the deployment.
func newRouter(bounds []int) *router {
	r := &router{n: len(bounds) - 1, bounds: bounds, owners: make([]uint16, keyGroups)}
	for inst := 1; inst < r.n; inst++ {
		for g := bounds[inst]; g < bounds[inst+1]; g++ {
			r.owners[g] = uint16(inst)
		}
	}
	return r
}

// owner returns the instance index owning key.
func (r *router) owner(key string) int {
	if r.n <= 1 {
		return 0
	}
	return int(r.owners[keyGroup(key)])
}

// routersFrom builds a deployment's routers from the group bounds a
// DEPLOY carries, one list per keyed operator, refusing any list that
// does not cut the groups into par's ranges.
func routersFrom(pipe *Pipeline, par dataflow.Parallelism, bounds map[string][]int) (map[string]*router, error) {
	routers := make(map[string]*router)
	for name, spec := range pipe.ops {
		if !spec.Keyed {
			continue
		}
		b := bounds[name]
		if len(b) != par[name]+1 || b[0] != 0 || b[len(b)-1] != keyGroups || !slices.IsSorted(b) {
			return nil, fmt.Errorf("streamrt: deploy has %d key-group bounds for keyed operator %q at parallelism %d, not an ordered cut of [0, %d]", len(b), name, par[name], keyGroups)
		}
		routers[name] = newRouter(b)
	}
	return routers, nil
}

// checkKeyGroups refuses a keyed operator more instances than there are
// key groups to route to.
func checkKeyGroups(pipe *Pipeline, par dataflow.Parallelism) error {
	for name, spec := range pipe.ops {
		if spec.Keyed && par[name] > keyGroups {
			return fmt.Errorf("streamrt: keyed operator %q parallelism %d exceeds the %d key groups", name, par[name], keyGroups)
		}
	}
	return nil
}

// entry is one key's state. A run is a slice of them: what deal and a
// restore cut, and what a savepoint file holds per operator.
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

// countGroups returns the key group of every entry of run and, in w, how
// many of them fall below each group bound: w[b] counts the groups
// [0, b), so w[0] is 0 and w[keyGroups] is len(run).
func countGroups[V any](run []entry[V]) (groups []uint16, w []int) {
	groups = make([]uint16, len(run))
	w = make([]int, keyGroups+1)
	for i, e := range run {
		g := keyGroup(e.key)
		groups[i] = uint16(g)
		w[g+1]++
	}
	for b := 1; b <= keyGroups; b++ {
		w[b] += w[b-1]
	}
	return groups, w
}

// deal hands the keyed state in drained — the quiesced instances' maps,
// keys disjoint by the previous generation's router — to the n instances
// of the next one: the router and, per instance, the share of the state
// it starts from. The maps are gathered into one run and cut (see cut).
func deal[V any](drained []map[string]V, n int) (*router, []map[string]V) {
	r, shares, _ := cut(gather(drained), n, func(_ string, v V) (V, error) { return v, nil })
	return r, shares
}

// cut is the one rule that assigns keys to instances. It counts the keys
// of run, in any order, into their key groups and cuts the group sequence
// into n contiguous ranges (see groupBounds); then it files every key in
// its owner's presized share (never nil: an instance writes into it from
// the first record on), converted by conv, whose first error ends the
// cut. Drained state comes through deal; a savepoint file's runs, as they
// lie, straight from dealAll.
func cut[A, B any](run []entry[A], n int, conv func(key string, a A) (B, error)) (*router, []map[string]B, error) {
	groups, w := countGroups(run)
	r := newRouter(groupBounds(w, n))
	shares := make([]map[string]B, n)
	for inst := range shares {
		shares[inst] = make(map[string]B, w[r.bounds[inst+1]]-w[r.bounds[inst]])
	}
	for i, e := range run {
		v, err := conv(e.key, e.val)
		if err != nil {
			return nil, nil, err
		}
		shares[r.owners[groups[i]]][e.key] = v
	}
	return r, shares, nil
}

// groupBounds cuts the key groups into n ranges, w counting the keys
// below each group bound as countGroups does. Instance i's range starts
// at its uniform bound i·G/n, clamped into the bounds with exactly K_i
// keys below them, K_i being len/n keys an instance and one more for the
// first len%n summed over the instances before i. Where no such bound
// exists one group straddles K_i, and the instance below takes it. So no
// keys gives Flink's uniform ranges, and a universe with no straddling
// group gives every instance its exact share: 100 keys over 3 instances
// split 34/33/33.
func groupBounds(w []int, n int) []int {
	bounds := make([]int, n+1)
	base, extra := w[keyGroups]/n, w[keyGroups]%n
	for i := 1; i < n; i++ {
		k := i*base + min(i, extra)
		lo := sort.SearchInts(w, k)       // the least bound with k keys or more below
		hi := sort.SearchInts(w, k+1) - 1 // the greatest with k or fewer
		bounds[i] = max(lo, min(i*keyGroups/n, hi))
	}
	bounds[n] = keyGroups
	return bounds
}

// byGroup puts run in (group, key) order, a version 2 savepoint file's:
// a counting pass finds each group's place, the entries are swapped into
// their groups in place, and then each group's few keys are sorted on
// their own.
func byGroup[V any](run []entry[V]) {
	groups, w := countGroups(run)
	next := slices.Clone(w[:keyGroups]) // the first unplaced position of each group
	for g := range keyGroups {
		for next[g] < w[g+1] {
			i := next[g]
			h := groups[i]
			if int(h) != g {
				j := next[h]
				run[i], run[j] = run[j], run[i]
				groups[i], groups[j] = groups[j], groups[i]
			}
			next[h]++
		}
	}
	for g := range keyGroups {
		if grp := run[w[g]:w[g+1]]; len(grp) > 1 {
			slices.SortFunc(grp, func(a, b entry[V]) int { return strings.Compare(a.key, b.key) })
		}
	}
}

// hashKey is FNV-1a 64, the stable hash under keyGroup.
func hashKey(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix64 is the splitmix64 finalizer: a cheap bijective scrambler with
// good avalanche, so FNV's weak low bits do not decide the group of
// similar keys.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
