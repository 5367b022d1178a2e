package streamrt

import (
	"fmt"
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
	// deploy starts generation gen at par from snap: keyed state dealt
	// to par's instances, and the source sequence counters (after
	// a drain the hosts still hold the very same values; a restore is
	// what actually installs them). It times its own trace phases
	// (router_rebuild and restart; remotely also transfer).
	deploy(gen uint32, par dataflow.Parallelism, snap *snapshot, tr *rescaleTrace) error
	// drain stops the sources, lets every in-flight record finish, and
	// returns the quiesced generation's state, unmerged. Child spans go
	// under parent.
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

// parts is keyed state on its way between generations: per operator, a
// list of key -> state maps with disjoint keys. A local drain fills it
// with one map per quiesced instance, indexed by instance (a worker's
// drain leaves nil the instances it does not host, and the coordinator
// strings the workers' lists together), and deal turns it into one map
// per instance of the next generation, indexed by instance.
type parts[V any] map[string][]map[string]V

// snapshot is what a drain hands back and a deploy starts from: the
// keyed state of every stateful operator plus the source sequence
// counters. State stays in the one form the placement produced it —
// decoded values from the local one, StateCodec bytes from the remote
// one, each deploying its own form — and is converted only when someone
// asks for the other, so a local rescale never calls a codec and the
// coordinator of a remote job never decodes state it only forwards.
type snapshot struct {
	vals parts[any]
	enc  parts[[]byte]
	// runs is a restore's state instead: per operator the savepoint file's
	// run of StateCodec bytes, which alias the loaded file.
	runs map[string][]entry[[]byte]
	// ran holds, for the operators whose parts are the drained instances'
	// own maps in instance order, the router they ran under: deployed
	// again at the parallelism ran[op].n, such an operator keeps maps and
	// router (see dealAll). A savepoint file, and a drain that had to move
	// the state to hand it back, leave it empty.
	ran map[string]*router
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

// bytes returns the state encoded, running the StateCodecs only if it
// was drained as values.
func (s *snapshot) bytes(pipe *Pipeline) (parts[[]byte], error) {
	if s.vals == nil {
		return s.enc, nil
	}
	return convertParts(pipe, "encoding", s.vals, encodeOpState)
}

// file returns the state as a savepoint file under header sp (see
// encodeSavepoint), running the StateCodecs only if it was drained as
// values.
func (s *snapshot) file(pipe *Pipeline, sp *savepointData) ([]byte, error) {
	if s.vals == nil {
		return encodeSavepoint(pipe, sp, s.enc, sameBytes)
	}
	return encodeSavepoint(pipe, sp, s.vals, encodeOpState)
}

// sameBytes is the codec of state that stays StateCodec bytes.
func sameBytes(_ *OperatorSpec, b []byte) ([]byte, error) { return b, nil }

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

// mergeParts folds p into one map per operator — what Stop returns and
// what a savepoint file holds.
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

// dealAll turns snap into what host.deployLocked starts a generation at
// par from: per keyed operator the router and the per-instance shares,
// as values locally and StateCodec bytes remotely — p is snap's drained
// state in that form, decode turns a file's bytes into it. It is the one
// place that decides what is repartitioned. A restore's runs are cut as
// they lie, each state decoded on its way into its owner's share. An
// operator that ran under snap.ran[op] and deploys at that router's
// parallelism is not repartitioned: its parts are the next shares as
// they lie and the router is kept, so every key stays where it is. Any
// other is dealt (see deal).
func dealAll[V any](pipe *Pipeline, snap *snapshot, p parts[V], par dataflow.Parallelism, decode func(*OperatorSpec, []byte) (V, error)) (_ map[string]*router, _ parts[V], err error) {
	var op, key string
	defer recoverCodec("decoding", &op, &key, &err)
	routers := make(map[string]*router)
	shares := make(parts[V])
	for name, spec := range pipe.ops {
		if !spec.Keyed {
			continue
		}
		op = name
		r := snap.ran[name]
		switch {
		case snap.runs != nil:
			routers[name], shares[name], err = cut(snap.runs[name], par[name], func(k string, b []byte) (V, error) {
				key = k
				return decode(spec, b)
			})
			if err != nil {
				return nil, nil, fmt.Errorf("streamrt: decoding %s[%q]: %w", op, key, err)
			}
		case r != nil && r.n == par[name]:
			routers[name], shares[name] = r, p[name]
		default:
			routers[name], shares[name] = deal(p[name], par[name])
		}
	}
	return routers, shares, nil
}
