package streamrt

import (
	"fmt"
	"iter"
	"time"

	"ds2/internal/dataflow"
)

// placement is where a Job's operator instances run, as the coordinator
// sees them: it pushes generations to it, drains them, and cuts
// observation windows from it. The seam sits on the process boundary.
// The local placement (*host) runs every instance in this process —
// channel links, state handed over as Go values, no codec and no
// control message. The remote placement (*remote) proxies the same
// calls to Worker processes over the framed transport, where each
// Worker runs its share on a host of its own.
type placement interface {
	// workers is the number of processes the deployment spans; source
	// sequence striping, and so the savepoint format, is per process.
	workers() int
	// validate reports whether par can be deployed here at all, before
	// anything is drained for it.
	validate(par dataflow.Parallelism) error
	// deploy starts generation gen at par from snap: keyed state cut
	// into par's instances' shares, and the source sequence counters (after
	// a drain the hosts still hold the very same values; a restore is
	// what actually installs them). It times its own trace phases
	// (router_rebuild and restart; remotely also transfer).
	deploy(gen uint32, par dataflow.Parallelism, snap *snapshot, tr *rescaleTrace) error
	// drain stops the sources, lets every in-flight record finish, and
	// returns the quiesced generation's state in group form. Child spans
	// go under parent.
	drain(tr *rescaleTrace, parent uint64) (*snapshot, error)
	// collect takes every running instance's accumulator, starting the
	// next observation window.
	collect() ([]wireAcc, error)
	// wait blocks until the current generation's instances have all
	// exited; natural reports bounded sources running out, as opposed
	// to a drain.
	wait() (natural bool, err error)
	// awaitFirstRecord blocks until generation gen has processed its
	// first record and returns the unix-nano instant; ok is false when
	// the generation is gone or timeout passes first.
	awaitFirstRecord(gen uint32, timeout time.Duration) (at int64, ok bool)
	// close releases what the placement holds beyond a generation.
	close()
}

// parts is keyed state on its way between generations, in the form an
// instance keeps it: per keyed operator one key -> state map per key
// group, indexed by group (keyGroups of them, nil for a group with no
// keys, or whose instance another worker hosts). A live instance holds
// the group maps of its range; a local drain puts them back in place,
// pointer by pointer, and a deploy hands each instance of the next
// generation the subslice the cut gives it (see cut), so state changes
// hands without a key being touched.
type parts[V any] map[string][]map[string]V

// snapshot is what a drain hands back and a deploy starts from: the
// keyed state of every keyed operator plus the source sequence counters.
// State is in the form the placement deploys — decoded values locally,
// StateCodec bytes remotely, a restore filing the savepoint file's runs
// into the one its placement needs — and is converted only when someone
// asks for the other, so a local rescale never calls a codec and the
// coordinator of a remote job never decodes state it only forwards.
type snapshot struct {
	vals parts[any]
	enc  parts[[]byte]
	// seqs holds per source the local counter of every rank (position
	// in the sorted list of workers hosting the source).
	seqs map[string][]int64
}

// values returns the drained state decoded, running the operators'
// StateCodecs only if it was drained as bytes.
func (s *snapshot) values(pipe *Pipeline) (parts[any], error) {
	if s.enc == nil {
		return s.vals, nil
	}
	return convertParts(pipe, "decoding", s.enc, decodeOpState)
}

// file returns the state as a savepoint file under header sp (see
// encodeSavepoint), running the StateCodecs only if it was drained as
// values.
func (s *snapshot) file(pipe *Pipeline, sp *savepointData) ([]byte, error) {
	if s.vals == nil {
		return encodeSavepoint(pipe, sp, s.enc, appendBytes)
	}
	return encodeSavepoint(pipe, sp, s.vals, appendOpState)
}

// sameBytes is the codec of state that stays StateCodec bytes.
func sameBytes(_ *OperatorSpec, b []byte) ([]byte, error) { return b, nil }

// appendBytes is sameBytes appending to dst.
func appendBytes(dst []byte, _ *OperatorSpec, b []byte) ([]byte, error) {
	return append(dst, b...), nil
}

// recoverCodec, deferred around calls into user StateCodecs, turns a
// panic into *err naming the operator and key being converted. User
// codecs may panic — a DecodeState on bytes it never wrote (a savepoint
// from an older state layout passes the CRC but not the codec), an
// EncodeState on a state type it does not expect — and that must not
// take the process down with the job drained.
func recoverCodec(verb string, op, key *string, err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("streamrt: %s %s[%q]: %v", verb, *op, *key, r)
	}
}

// convertParts runs every state in p through an operator codec,
// keeping the shape (a nil map stays nil).
func convertParts[A, B any](pipe *Pipeline, verb string, p parts[A], conv func(*OperatorSpec, A) (B, error)) (_ parts[B], err error) {
	var op, key string
	defer recoverCodec(verb, &op, &key, &err)
	out := make(parts[B], len(p))
	for name, list := range p {
		op = name
		spec := pipe.ops[op]
		if spec == nil {
			return nil, fmt.Errorf("streamrt: state for unknown operator %q", op)
		}
		conved := make([]map[string]B, len(list))
		for i, kv := range list {
			if kv == nil {
				continue
			}
			conved[i] = make(map[string]B, len(kv))
			for k, a := range kv {
				key = k
				if conved[i][k], err = conv(spec, a); err != nil {
					return nil, fmt.Errorf("streamrt: %s %s[%q]: %w", verb, op, k, err)
				}
			}
		}
		out[op] = conved
	}
	return out, nil
}

// mergeParts folds p into one map per operator: what Stop returns.
func mergeParts[V any](p parts[V]) map[string]map[string]V {
	merged := make(map[string]map[string]V, len(p))
	for op, list := range p {
		n := 0
		for _, kv := range list {
			n += len(kv)
		}
		dst := make(map[string]V, n)
		for _, kv := range list {
			for k, v := range kv {
				dst[k] = v
			}
		}
		merged[op] = dst
	}
	return merged
}

// dealAll cuts the state p holds for every keyed operator of pipe into
// par's ranges (see cut): it returns the routers and, per keyed operator,
// the group maps the instances' shares are subslices of — p's own, or
// all nil for an operator p holds nothing for. It is the one place that
// repartitions state, for both placements and every reconfiguration: a
// rescale's drain, a savepoint's restart and a restore. Its cost is in
// groups, whether the parallelism changes or not.
func dealAll[V any](pipe *Pipeline, p parts[V], par dataflow.Parallelism) (map[string]*router, parts[V]) {
	routers := make(map[string]*router)
	shares := make(parts[V])
	for name, spec := range pipe.ops {
		if !spec.Keyed {
			continue
		}
		groups := p[name]
		if groups == nil {
			groups = make([]map[string]V, keyGroups)
		}
		routers[name], shares[name] = cut(groups, par[name]), groups
	}
	return routers, shares
}

// filed returns every keyed operator's state in group form: each (key,
// state) pair from(op) yields goes, converted by conv, into the map of
// its key group — one hash and one insert a key, the only per-key step
// between generations. A restore files a savepoint file's runs here, a
// worker the shares a DEPLOY carries and a coordinator the states its
// workers drained. A conversion's error or panic is reported naming
// operator and key.
func filed[A, B any](pipe *Pipeline, from func(op string) iter.Seq2[string, A], conv func(*OperatorSpec, A) (B, error)) (_ parts[B], err error) {
	var op, key string
	defer recoverCodec("decoding", &op, &key, &err)
	p := make(parts[B])
	for name, spec := range pipe.ops {
		if !spec.Keyed {
			continue
		}
		op = name
		groups := make([]map[string]B, keyGroups)
		for k, a := range from(name) {
			key = k
			b, err := conv(spec, a)
			if err != nil {
				return nil, fmt.Errorf("streamrt: decoding %s[%q]: %w", op, key, err)
			}
			g := keyGroup(k)
			if groups[g] == nil {
				groups[g] = make(map[string]B)
			}
			groups[g][k] = b
		}
		p[name] = groups
	}
	return p, nil
}

// pairs yields every (key, state) of the maps in list.
func pairs[V any](list []map[string]V) iter.Seq2[string, V] {
	return func(yield func(string, V) bool) {
		for _, kv := range list {
			for k, v := range kv {
				if !yield(k, v) {
					return
				}
			}
		}
	}
}

// runPairs yields every (key, state) of a savepoint file's run.
func runPairs(run []entry[[]byte]) iter.Seq2[string, []byte] {
	return func(yield func(string, []byte) bool) {
		for _, e := range run {
			if !yield(e.key, e.val) {
				return
			}
		}
	}
}
