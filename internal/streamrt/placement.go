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
	// deploy starts generation gen at par from snap: keyed state
	// repartitioned under par, and the source sequence counters (after
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

// snapshot is what a drain hands back and a deploy starts from: the
// keyed state of every stateful operator plus the source sequence
// counters. State is kept in the form the placement produced it —
// decoded values from the local one, StateCodec bytes from the remote
// one or a savepoint file — and converted only when someone asks for
// the other form, so a local rescale never calls a codec and the
// coordinator of a remote job never decodes state it only forwards.
type snapshot struct {
	// One part per drained instance (vals) or worker (enc), keys
	// disjoint by the generation's router; merge folds them.
	valParts []map[string]map[string]any
	encParts []map[string]map[string][]byte

	vals map[string]map[string]any    // operator -> key -> state
	enc  map[string]map[string][]byte // operator -> key -> encoded state

	// seqs holds per source the local counter of every rank (position
	// in the sorted list of workers hosting the source).
	seqs map[string][]int64
}

// merge folds the drained parts into one map per operator — the
// rescale trace's "snapshot" phase.
func (s *snapshot) merge() {
	if s.valParts != nil {
		s.vals, s.valParts = mergeParts(s.valParts), nil
	}
	if s.encParts != nil {
		s.enc, s.encParts = mergeParts(s.encParts), nil
	}
}

func mergeParts[V any](parts []map[string]map[string]V) map[string]map[string]V {
	merged := make(map[string]map[string]V)
	for _, part := range parts {
		for op, kv := range part {
			dst := merged[op]
			if dst == nil {
				dst = make(map[string]V, len(kv))
				merged[op] = dst
			}
			for k, v := range kv {
				dst[k] = v
			}
		}
	}
	return merged
}

// values returns the state decoded, running the operators' StateCodecs
// only if it was drained or loaded as bytes. User codecs may panic on
// bytes they never wrote (a savepoint from an older state layout passes
// the CRC but not the codec); the recover turns that into an error
// instead of taking the process down.
func (s *snapshot) values(pipe *Pipeline) (vals map[string]map[string]any, err error) {
	if s.vals != nil || len(s.enc) == 0 {
		return s.vals, nil
	}
	defer func() {
		if r := recover(); r != nil {
			vals, err = nil, fmt.Errorf("streamrt: decoding operator state: %v", r)
		}
	}()
	vals = make(map[string]map[string]any, len(s.enc))
	for op, kv := range s.enc {
		spec := pipe.ops[op]
		if spec == nil {
			return nil, fmt.Errorf("streamrt: state for unknown operator %q", op)
		}
		dec := make(map[string]any, len(kv))
		for k, b := range kv {
			v, err := decodeOpState(spec, b)
			if err != nil {
				return nil, fmt.Errorf("streamrt: decoding %s[%q]: %w", op, k, err)
			}
			dec[k] = v
		}
		vals[op] = dec
	}
	s.vals = vals
	return vals, nil
}

// bytes returns the state encoded, running the StateCodecs only if it
// was drained as values.
func (s *snapshot) bytes(pipe *Pipeline) (map[string]map[string][]byte, error) {
	if s.enc != nil || len(s.vals) == 0 {
		return s.enc, nil
	}
	enc := make(map[string]map[string][]byte, len(s.vals))
	for op, kv := range s.vals {
		spec := pipe.ops[op]
		if spec == nil {
			return nil, fmt.Errorf("streamrt: state for unknown operator %q", op)
		}
		out := make(map[string][]byte, len(kv))
		for k, v := range kv {
			b, err := encodeOpState(spec, v)
			if err != nil {
				return nil, fmt.Errorf("streamrt: encoding %s[%q]: %w", op, k, err)
			}
			out[k] = b
		}
		enc[op] = out
	}
	s.enc = enc
	return enc, nil
}
