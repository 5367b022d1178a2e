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
	// (restart; remotely also router_rebuild and transfer).
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
// list of key -> state maps with disjoint keys. A drain fills it with one
// map per quiesced instance, a savepoint file holds one map per operator,
// and deal turns it into one map per instance of the next generation,
// indexed by instance.
type parts[V any] map[string][]map[string]V

// snapshot is what a drain hands back and a deploy starts from: the
// keyed state of every stateful operator plus the source sequence
// counters. State stays in the one form the placement produced it —
// decoded values from the local one, StateCodec bytes from the remote
// one or a savepoint file — and is converted only when someone asks for
// the other form, so a local rescale never calls a codec and the
// coordinator of a remote job never decodes state it only forwards.
type snapshot struct {
	vals parts[any]
	enc  parts[[]byte]
	// seqs holds per source the local counter of every rank (position
	// in the sorted list of workers hosting the source).
	seqs map[string][]int64
}

// values returns the state decoded, running the operators' StateCodecs
// only if it was drained or loaded as bytes.
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

// convertParts runs every state in p through an operator codec,
// keeping the shape (a nil map stays nil). User codecs may panic — a
// DecodeState on bytes it never wrote (a savepoint from an older state
// layout passes the CRC but not the codec), an EncodeState on a state
// type it does not expect; the recover turns that into an error naming
// operator and key instead of taking the process down with the job
// drained.
func convertParts[A, B any](pipe *Pipeline, verb string, p parts[A], conv func(*OperatorSpec, A) (B, error)) (out parts[B], err error) {
	var op, key string
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("streamrt: %s %s[%q]: %v", verb, op, key, r)
		}
	}()
	out = make(parts[B], len(p))
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

// dealAll deals every keyed operator's state to its par[op] instances
// (see deal): the routing tables and the per-instance shares that
// host.deployLocked starts a generation from.
func dealAll[V any](pipe *Pipeline, p parts[V], par dataflow.Parallelism) (map[string]map[string]int, parts[V]) {
	tables := make(map[string]map[string]int)
	shares := make(parts[V])
	for name, spec := range pipe.ops {
		if spec.Keyed {
			tables[name], shares[name] = deal(p[name], par[name])
		}
	}
	return tables, shares
}
