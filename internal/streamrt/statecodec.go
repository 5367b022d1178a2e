package streamrt

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Keyed state crosses process boundaries during distributed rescales as
// bytes: each key's value is encoded with the operator's StateCodec.
// Windowed operators store a *WindowState per key — NextFire plus the
// open panes — so the runtime wraps the codec: pane indices are sorted
// into the encoding (map order must not leak into bytes; the rescale
// oracle tests compare state byte-for-byte across placements) and each
// pane aggregate goes through the user codec.
//
//	plain    := user bytes
//	windowed := varint nextFire | uvarint numPanes |
//	            numPanes×(varint paneIdx | uvarint len | user bytes)

// stateAppender is a StateCodec of this package that appends a state's
// encoding to a buffer, so the savepoint encoder writes no []byte a key.
type stateAppender interface {
	appendState(dst []byte, v any) []byte
}

// encodeOpState serializes one key's state value for the wire.
func encodeOpState(spec *OperatorSpec, v any) ([]byte, error) { return appendOpState(nil, spec, v) }

// appendOpState appends encodeOpState's encoding of v to dst.
func appendOpState(dst []byte, spec *OperatorSpec, v any) ([]byte, error) {
	if spec.Window == nil {
		if a, ok := spec.State.(stateAppender); ok {
			return a.appendState(dst, v), nil
		}
		return append(dst, spec.State.EncodeState(v)...), nil
	}
	ws, ok := v.(*WindowState)
	if !ok {
		return nil, fmt.Errorf("streamrt: windowed state is %T, not *WindowState", v)
	}
	buf := binary.AppendVarint(dst, ws.NextFire)
	buf = binary.AppendUvarint(buf, uint64(len(ws.Panes)))
	idxs := make([]int64, 0, len(ws.Panes))
	for i := range ws.Panes {
		idxs = append(idxs, i)
	}
	sort.Slice(idxs, func(a, b int) bool { return idxs[a] < idxs[b] })
	for _, i := range idxs {
		buf = binary.AppendVarint(buf, i)
		enc := spec.State.EncodeState(ws.Panes[i])
		buf = binary.AppendUvarint(buf, uint64(len(enc)))
		buf = append(buf, enc...)
	}
	return buf, nil
}

// decodeOpState is the inverse of encodeOpState.
func decodeOpState(spec *OperatorSpec, b []byte) (any, error) {
	if spec.Window == nil {
		return spec.State.DecodeState(b), nil
	}
	nextFire, n := binary.Varint(b)
	if n <= 0 {
		return nil, fmt.Errorf("streamrt: corrupt window state: nextFire")
	}
	b = b[n:]
	numPanes, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, fmt.Errorf("streamrt: corrupt window state: pane count")
	}
	b = b[n:]
	// A pane takes at least two bytes (index and length), so a count the
	// bytes left cannot hold is refused before it sizes the map.
	if numPanes > uint64(len(b))/2 {
		return nil, fmt.Errorf("streamrt: corrupt window state: pane count %d exceeds what the %d bytes left can hold", numPanes, len(b))
	}
	ws := &WindowState{NextFire: nextFire, Panes: make(map[int64]any, numPanes)}
	for p := uint64(0); p < numPanes; p++ {
		idx, n := binary.Varint(b)
		if n <= 0 {
			return nil, fmt.Errorf("streamrt: corrupt window state: pane index")
		}
		b = b[n:]
		plen, n := binary.Uvarint(b)
		if n <= 0 || uint64(len(b)-n) < plen {
			return nil, fmt.Errorf("streamrt: corrupt window state: pane length")
		}
		b = b[n:]
		ws.Panes[idx] = spec.State.DecodeState(b[:plen])
		b = b[plen:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("streamrt: corrupt window state: %d trailing bytes", len(b))
	}
	return ws, nil
}
