// Savepoint file-format hardening: the binary codec roundtrips, every
// corruption class fails with a clean field-naming error (never a
// panic or a silent partial parse), and the stores publish atomically.
package streamrt

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"iter"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"ds2/internal/dataflow"
)

func sampleSavepoint() *savepointData {
	return &savepointData{
		Workload: "wc",
		Workers:  2,
		SeqBlock: 1024,
		Elapsed:  3.5,
		Seqs: map[string][]int64{
			"src":   {4096, 2048},
			"ticks": {17},
		},
		States: map[string][]entry[[]byte]{
			"count": inGroupOrder([]entry[[]byte]{{"k00", []byte{1, 2, 3}}, {"k01", []byte{7}}, {"k02", []byte{0xFF}}}),
			"join":  {},
		},
	}
}

// inGroupOrder sorts run by (key group, key), the order a version 2 file
// holds an operator's keys in.
func inGroupOrder[V any](run []entry[V]) []entry[V] {
	slices.SortFunc(run, func(a, b entry[V]) int {
		return cmp.Or(cmp.Compare(keyGroup(a.key), keyGroup(b.key)), strings.Compare(a.key, b.key))
	})
	return run
}

// encodeDecoded runs the encoder over a decoded savepoint the way the
// remote placement does: the States are bytes already, filed into group
// form, and every operator they name exists.
func encodeDecoded(sp *savepointData) []byte {
	return encodeDecodedBy(func(pipe *Pipeline, sp *savepointData, states parts[[]byte]) ([]byte, error) {
		return encodeSavepoint(pipe, sp, states, appendBytes)
	}, sp)
}

// encodeDecodedV1 is encodeDecoded writing a version 1 file.
func encodeDecodedV1(sp *savepointData) []byte {
	return encodeDecodedBy(func(pipe *Pipeline, sp *savepointData, states parts[[]byte]) ([]byte, error) {
		return encodeSavepointV1(pipe, sp, states, sameBytes)
	}, sp)
}

func encodeDecodedBy(encode func(*Pipeline, *savepointData, parts[[]byte]) ([]byte, error), sp *savepointData) []byte {
	pipe := &Pipeline{ops: make(map[string]*OperatorSpec, len(sp.States))}
	states := make(parts[[]byte], len(sp.States))
	for op, run := range sp.States {
		pipe.ops[op] = &OperatorSpec{}
		kv := make(map[string][]byte, len(run))
		for _, e := range run {
			kv[e.key] = e.val
		}
		states[op] = groupsOf(kv)
	}
	data, err := encode(pipe, sp, states)
	if err != nil {
		panic(err)
	}
	return data
}

func TestSavepointRoundtrip(t *testing.T) {
	sp := sampleSavepoint()
	data := encodeDecoded(sp)
	got, err := decodeSavepoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sp) {
		t.Fatalf("roundtrip diverged:\n got: %+v\nwant: %+v", got, sp)
	}
	// Map-order independence: identical snapshots must produce
	// identical bytes (the deterministic-savepoint guarantee).
	if !bytes.Equal(data, encodeDecoded(sampleSavepoint())) {
		t.Fatal("two encodings of the same snapshot differ")
	}
}

// refixCRC recomputes the trailing checksum after a deliberate body
// mutation, so the test reaches the structural parser behind it.
func refixCRC(data []byte) []byte {
	body := data[:len(data)-4]
	return binary.BigEndian.AppendUint32(body[:len(body):len(body)], crc32.ChecksumIEEE(body))
}

func TestSavepointDecodeRejectsCorruption(t *testing.T) {
	valid := encodeDecodedV1(sampleSavepoint())
	validV2 := encodeDecoded(sampleSavepoint())
	// The first two keys of the version 2 file, in its order.
	k0, k1 := sampleSavepoint().States["count"][0].key, sampleSavepoint().States["count"][1].key
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "shorter than the smallest savepoint"},
		{"truncated header", valid[:8], "shorter than the smallest savepoint"},
		{"truncated body", valid[:len(valid)-5], "checksum mismatch"},
		{"bit flip", func() []byte {
			d := append([]byte(nil), valid...)
			d[len(d)/2] ^= 0x40
			return d
		}(), "checksum mismatch"},
		{"bad magic", func() []byte {
			d := append([]byte(nil), valid...)
			d[0] = 'X'
			return d
		}(), "bad magic"},
		{"version skew", func() []byte {
			d := append([]byte(nil), valid...)
			binary.BigEndian.PutUint16(d[8:10], savepointVersion+1)
			return refixCRC(d)
		}(), "format version 3; this build reads versions 1 and 2"},
		{"trailing bytes", refixCRC(append(append([]byte(nil), valid[:len(valid)-4]...), 0, 0, 0, 0xAA, 0xBB, 0xCC, 0xDD)), "trailing bytes"},
		{"oversized count", func() []byte {
			// Workload "", 1 worker, block 1, elapsed 0, then a source
			// count far beyond the file's remaining bytes.
			d := append([]byte(nil), savepointMagic[:]...)
			d = binary.BigEndian.AppendUint16(d, savepointVersion)
			d = binary.AppendUvarint(d, 0)          // workload ""
			d = binary.AppendUvarint(d, 1)          // workers
			d = binary.AppendUvarint(d, 1)          // seqBlock
			d = binary.BigEndian.AppendUint64(d, 0) // elapsed
			d = binary.AppendUvarint(d, 1<<40)      // absurd source count
			return binary.BigEndian.AppendUint32(d, crc32.ChecksumIEEE(d))
		}(), "exceeds the"},
		{"zero workers", func() []byte {
			sp := sampleSavepoint()
			sp.Workers = 0
			return refixCRC(encodeDecodedV1(sp))
		}(), "worker count 0 outside [1, 65535]"},
		{"negative counter", func() []byte {
			sp := sampleSavepoint()
			sp.Seqs = map[string][]int64{"src": {-3}}
			sp.Workers = 1
			return refixCRC(encodeDecodedV1(sp))
		}(), `source "src" rank 0 counter -3 is negative`},
		{"rank overflow", func() []byte {
			sp := sampleSavepoint()
			sp.Workers = 1 // fewer workers than src's two seq ranks
			return refixCRC(encodeDecodedV1(sp))
		}(), `source "src" has 2 seq ranks for 1 workers`},
		{"duplicate key", renameKey(valid, "k01", "k00"), `operator "count" has duplicate key "k00"`},
		{"keys out of order", renameKey(valid, "k00", "k05"), `operator "count" has key "k01" out of order`},
		{"out of group order", swapKeys(validV2, k0, k1), fmt.Sprintf(`operator "count" has key %q out of order, after %q`, k0, k1)},
		{"duplicate key within a group", renameKey(validV2, k1, k0), fmt.Sprintf(`operator "count" has duplicate key %q`, k0)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp, err := decodeSavepoint(tc.data)
			if err == nil {
				t.Fatalf("decode accepted corrupt input: %+v", sp)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("decode error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// renameKey rewrites the first occurrence of key from in a savepoint file
// as to, of the same length, and refixes the CRC.
func renameKey(data []byte, from, to string) []byte {
	d := append([]byte(nil), data...)
	copy(d[bytes.Index(d, []byte(from)):], to)
	return refixCRC(d)
}

// swapKeys exchanges the names of keys a and b, of the same length, in a
// savepoint file and refixes the CRC.
func swapKeys(data []byte, a, b string) []byte {
	d := append([]byte(nil), data...)
	i, j := bytes.Index(d, []byte(a)), bytes.Index(d, []byte(b))
	copy(d[i:], b)
	copy(d[j:], a)
	return refixCRC(d)
}

func FuzzSavepointDecode(f *testing.F) {
	f.Add(encodeDecodedV1(sampleSavepoint()))
	f.Add(encodeDecodedV1(&savepointData{
		Workers: 1, SeqBlock: 1,
		Seqs:   map[string][]int64{"s": {0}},
		States: map[string][]entry[[]byte]{},
	}))
	valid := encodeDecodedV1(sampleSavepoint())
	f.Add(valid[:len(valid)-6])
	f.Add(refixCRC(append(append([]byte(nil), valid[:len(valid)-4]...), 0x01)))
	for _, cut := range []int{0, 1, 9, 11} {
		f.Add(valid[:cut])
	}
	f.Add(renameKey(valid, "k01", "k00"))
	f.Add(renameKey(valid, "k00", "k05"))
	f.Add(encodeDecoded(sampleSavepoint()))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Total: any input either decodes or errors — never panics.
		sp, err := decodeSavepoint(data)
		if err != nil {
			return
		}
		// Anything accepted must re-encode canonically in its version and
		// survive a second decode unchanged.
		encode := encodeDecoded
		if binary.BigEndian.Uint16(data[8:10]) == 1 {
			encode = encodeDecodedV1
		}
		again, err := decodeSavepoint(encode(sp))
		if err != nil {
			t.Fatalf("re-encode of an accepted savepoint failed to decode: %v", err)
		}
		if !reflect.DeepEqual(again, sp) {
			t.Fatalf("re-encode roundtrip diverged:\n got: %+v\nwant: %+v", again, sp)
		}
	})
}

// encodeSavepointV1 and sortRun are the version 1 encoder, kept word for
// word as the reference for the files every earlier build wrote: gather
// each operator's pairs, sort them by key, write them.

// savepointV1 is the version encodeSavepointV1 writes.
const savepointV1 = 1

func sortRun[V any](run []entry[V]) {
	slices.SortFunc(run, func(a, b entry[V]) int { return strings.Compare(a.key, b.key) })
}

// encodeSavepointV1 serializes the header fields of sp and the drained
// state in one pass: per operator the (key, state) pairs of every part
// are collected and sorted once — identical state gives identical bytes
// whatever the part boundaries and map iteration order — and each state
// goes through enc (encodeOpState for values, the identity for bytes a
// worker already encoded) straight into the file buffer. A failing or
// panicking StateCodec is reported naming operator and key.
func encodeSavepointV1[V any](pipe *Pipeline, sp *savepointData, states parts[V], enc func(*OperatorSpec, V) ([]byte, error)) (_ []byte, err error) {
	var op, key string
	defer recoverCodec("encoding", &op, &key, &err)
	buf := make([]byte, 0, 1024)
	buf = append(buf, savepointMagic[:]...)
	buf = binary.BigEndian.AppendUint16(buf, savepointV1)
	buf = appendSpString(buf, sp.Workload)
	buf = binary.AppendUvarint(buf, uint64(sp.Workers))
	buf = binary.AppendUvarint(buf, uint64(sp.SeqBlock))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(sp.Elapsed))
	buf = binary.AppendUvarint(buf, uint64(len(sp.Seqs)))
	for _, name := range sortedKeys(sp.Seqs) {
		buf = appendSpString(buf, name)
		buf = binary.AppendUvarint(buf, uint64(len(sp.Seqs[name])))
		for _, c := range sp.Seqs[name] {
			buf = binary.AppendVarint(buf, c)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(states)))
	for _, op = range sortedKeys(states) {
		spec := pipe.ops[op]
		if spec == nil {
			return nil, fmt.Errorf("streamrt: state for unknown operator %q", op)
		}
		run := gather(states[op])
		sortRun(run)
		keyBytes := 0
		for _, e := range run {
			keyBytes += len(e.key)
		}
		// Room for the keys and, as a guess, 8 bytes of lengths and state
		// a key: the buffer grows once per operator, not per doubling.
		buf = slices.Grow(buf, keyBytes+8*len(run))
		buf = appendSpString(buf, op)
		buf = binary.AppendUvarint(buf, uint64(len(run)))
		for _, e := range run {
			key = e.key
			b, err := enc(spec, e.val)
			if err != nil {
				return nil, fmt.Errorf("streamrt: encoding %s[%q]: %w", op, key, err)
			}
			buf = appendSpString(buf, key)
			buf = binary.AppendUvarint(buf, uint64(len(b)))
			buf = append(buf, b...)
		}
	}
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf)), nil
}

// fileV1 is snapshot.file writing a version 1 file.
func fileV1(pipe *Pipeline, snap *snapshot, sp *savepointData) ([]byte, error) {
	if snap.vals == nil {
		return encodeSavepointV1(pipe, sp, snap.enc, sameBytes)
	}
	return encodeSavepointV1(pipe, sp, snap.vals, encodeOpState)
}

// encodeSavepointByGroup, gather, countGroups and byGroup are the
// version 2 encoder before state lived in key groups, kept word for word
// as the reference for the files it wrote: gather the (key, state) pairs
// of the drained instances' maps into one run, put the run in (group,
// key) order, write it.

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

// encodeSavepointByGroup serializes the header fields of sp and the
// drained state in one pass: per operator the (key, state) pairs of every
// part are collected and put in (group, key) order once (byGroup) —
// identical state gives identical bytes whatever the part boundaries and
// map iteration order — and each state goes through enc straight into
// the file buffer. A failing or panicking StateCodec is reported naming
// operator and key.
func encodeSavepointByGroup[V any](pipe *Pipeline, sp *savepointData, states parts[V], enc func(*OperatorSpec, V) ([]byte, error)) (_ []byte, err error) {
	var op, key string
	defer recoverCodec("encoding", &op, &key, &err)
	buf := make([]byte, 0, 1024)
	buf = append(buf, savepointMagic[:]...)
	buf = binary.BigEndian.AppendUint16(buf, savepointVersion)
	buf = appendSpString(buf, sp.Workload)
	buf = binary.AppendUvarint(buf, uint64(sp.Workers))
	buf = binary.AppendUvarint(buf, uint64(sp.SeqBlock))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(sp.Elapsed))
	buf = binary.AppendUvarint(buf, uint64(len(sp.Seqs)))
	for _, name := range sortedKeys(sp.Seqs) {
		buf = appendSpString(buf, name)
		buf = binary.AppendUvarint(buf, uint64(len(sp.Seqs[name])))
		for _, c := range sp.Seqs[name] {
			buf = binary.AppendVarint(buf, c)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(states)))
	for _, op = range sortedKeys(states) {
		spec := pipe.ops[op]
		if spec == nil {
			return nil, fmt.Errorf("streamrt: state for unknown operator %q", op)
		}
		run := gather(states[op])
		byGroup(run)
		keyBytes := 0
		for _, e := range run {
			keyBytes += len(e.key)
		}
		// Room for the keys and, as a guess, 8 bytes of lengths and state
		// a key: the buffer grows once per operator, not per doubling.
		buf = slices.Grow(buf, keyBytes+8*len(run))
		buf = appendSpString(buf, op)
		buf = binary.AppendUvarint(buf, uint64(len(run)))
		for _, e := range run {
			key = e.key
			b, err := enc(spec, e.val)
			if err != nil {
				return nil, fmt.Errorf("streamrt: encoding %s[%q]: %w", op, key, err)
			}
			buf = appendSpString(buf, key)
			buf = binary.AppendUvarint(buf, uint64(len(b)))
			buf = append(buf, b...)
		}
	}
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf)), nil
}

// encodeSavepointMap and refSavepointFile are the chain the one-pass
// encoder replaced, kept as its reference: encode every part into a
// parts[[]byte], merge the parts into one map per operator, then order
// each map's keys — by key for version 1, by (group, key) for version 2 —
// and look every key up again.

// savepointMapData is a savepoint with its state as the map-based chains
// held it: operator -> key -> encoded state.
type savepointMapData struct {
	savepointData
	States map[string]map[string][]byte
}

// encodeSavepointMap serializes sp as a file of the given version. Map
// keys are ordered into the encoding so identical snapshots produce
// identical bytes regardless of map iteration order.
func encodeSavepointMap(sp *savepointMapData, version uint16) []byte {
	buf := make([]byte, 0, 1024)
	buf = append(buf, savepointMagic[:]...)
	buf = binary.BigEndian.AppendUint16(buf, version)
	buf = appendSpString(buf, sp.Workload)
	buf = binary.AppendUvarint(buf, uint64(sp.Workers))
	buf = binary.AppendUvarint(buf, uint64(sp.SeqBlock))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(sp.Elapsed))
	buf = binary.AppendUvarint(buf, uint64(len(sp.Seqs)))
	for _, name := range sortedKeys(sp.Seqs) {
		buf = appendSpString(buf, name)
		buf = binary.AppendUvarint(buf, uint64(len(sp.Seqs[name])))
		for _, c := range sp.Seqs[name] {
			buf = binary.AppendVarint(buf, c)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(sp.States)))
	for _, op := range sortedKeys(sp.States) {
		buf = appendSpString(buf, op)
		kv := sp.States[op]
		buf = binary.AppendUvarint(buf, uint64(len(kv)))
		keys := sortedKeys(kv)
		if version != 1 {
			slices.SortStableFunc(keys, func(a, b string) int { return cmp.Compare(keyGroup(a), keyGroup(b)) })
		}
		for _, k := range keys {
			buf = appendSpString(buf, k)
			buf = binary.AppendUvarint(buf, uint64(len(kv[k])))
			buf = append(buf, kv[k]...)
		}
	}
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

func refSavepointFile(t *testing.T, pipe *Pipeline, hdr savepointData, snap *snapshot, version uint16) []byte {
	t.Helper()
	enc := snap.enc
	if snap.vals != nil {
		enc = mustBytes(t, pipe, snap.vals)
	}
	return encodeSavepointMap(&savepointMapData{hdr, mergeParts(enc)}, version)
}

// randomState draws a plain and a windowed operator's state: keys
// distinct plain keys and keys/4 windowed ones.
func randomState(rng *rand.Rand, keys int) (plain, win map[string]any) {
	plain, win = make(map[string]any, keys), make(map[string]any, keys/4)
	for k := 0; k < keys; k++ {
		plain[fmt.Sprintf("p-%d", rng.Int63())] = rng.Intn(1 << 30)
	}
	for k := 0; k < keys/4; k++ {
		ws := &WindowState{NextFire: rng.Int63n(1000) - 500, Panes: make(map[int64]any)}
		for p := rng.Intn(6); p > 0; p-- {
			ws.Panes[rng.Int63n(2000)-1000] = rng.Intn(1 << 20)
		}
		win[fmt.Sprintf("w-%d", rng.Int63())] = ws
	}
	return plain, win
}

// TestSavepointFileIsTheOldFile: over seeded random state — a plain and
// a windowed operator, spread over 0..5 drained instances with empty and
// nil maps among them, as values and as bytes — the encoder writes, from
// the state's group maps, the very file the gather + byGroup encoder
// writes from the instances' maps, and the file the old map chain writes
// in (group, key) order, byte for byte; the version 1 encoder writes the
// one the chain writes in key order.
func TestSavepointFileIsTheOldFile(t *testing.T) {
	pipe := &Pipeline{ops: map[string]*OperatorSpec{
		"plain": {Keyed: true, State: IntStateCodec{}},
		"win":   {Keyed: true, State: IntStateCodec{}, Window: &WindowSpec{Size: time.Second}},
	}}
	rng := rand.New(rand.NewSource(24))
	// randomParts spreads the keys of kv over 0..5 parts.
	randomParts := func(kv map[string]any) []map[string]any {
		list := make([]map[string]any, rng.Intn(6))
		for i := range list {
			if rng.Intn(4) > 0 {
				list[i] = make(map[string]any)
			}
		}
		var open []map[string]any
		for _, kv := range list {
			if kv != nil {
				open = append(open, kv)
			}
		}
		for _, k := range sortedKeys(kv) {
			if len(open) > 0 {
				open[rng.Intn(len(open))][k] = kv[k]
			}
		}
		return list
	}
	for round := 0; round < 60; round++ {
		keys := rng.Intn(2001)
		if round%10 == 0 {
			keys = 0
		}
		hdr := savepointData{
			Workload: fmt.Sprintf("wl%d", round%3),
			Workers:  1 + round%2,
			SeqBlock: 1 + rng.Int63n(1<<20),
			Elapsed:  rng.Float64() * 100,
			Seqs:     map[string][]int64{"src": {rng.Int63n(1 << 40)}, "aux": {0}},
		}
		plain, win := randomState(rng, keys)
		drained := parts[any]{"plain": randomParts(plain), "win": randomParts(win)}
		if round%7 == 3 {
			delete(drained, "win") // an operator no instance reported
		}
		vals := make(parts[any], len(drained))
		for op, list := range drained {
			vals[op] = groupsOf(list...)
		}
		for _, snap := range []*snapshot{{vals: vals}, {enc: mustBytes(t, pipe, vals)}} {
			got, err := snap.file(pipe, &hdr)
			if err != nil {
				t.Fatal(err)
			}
			gotV1, err := fileV1(pipe, snap, &hdr)
			if err != nil {
				t.Fatal(err)
			}
			if want := refSavepointFile(t, pipe, hdr, snap, savepointVersion); !bytes.Equal(got, want) {
				t.Fatalf("round %d (%d keys, values=%v): one-pass file differs from the old chain's (%d vs %d bytes)",
					round, keys, snap.vals != nil, len(got), len(want))
			}
			if want := refSavepointFile(t, pipe, hdr, snap, 1); !bytes.Equal(gotV1, want) {
				t.Fatalf("round %d (%d keys, values=%v): version 1 file differs from the old chain's (%d vs %d bytes)",
					round, keys, snap.vals != nil, len(gotV1), len(want))
			}
			head, err := encodeSavepointByGroup(pipe, &hdr, drained, encodeOpState)
			if snap.vals == nil {
				head, err = encodeSavepointByGroup(pipe, &hdr, mustBytes(t, pipe, drained), sameBytes)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, head) {
				t.Fatalf("round %d (%d keys, values=%v): file from the group maps differs from the gather + byGroup file of the instances' maps (%d vs %d bytes)",
					round, keys, snap.vals != nil, len(got), len(head))
			}
			for _, file := range [][]byte{got, gotV1} {
				if _, err := decodeSavepoint(file); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
			}
		}
	}
}

func mustBytes(t *testing.T, pipe *Pipeline, vals parts[any]) parts[[]byte] {
	t.Helper()
	enc, err := convertParts(pipe, "encoding", vals, encodeOpState)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// TestRestoreFileVersionsDealAlike: over seeded state — a plain and a
// windowed operator, 0..2000 keys, now and then an operator the file does
// not hold — a version 1 file, a version 2 file and the file the gather +
// byGroup encoder wrote of it all restore, at every parallelism of
// refParallelisms, to the routers and shares the cut of the drained
// group maps gives, the bounds refBounds computes: as values (what the
// local placement deploys) and as bytes (what the remote one ships).
func TestRestoreFileVersionsDealAlike(t *testing.T) {
	pipe := &Pipeline{ops: map[string]*OperatorSpec{
		"plain": {Keyed: true, State: IntStateCodec{}},
		"win":   {Keyed: true, State: IntStateCodec{}, Window: &WindowSpec{Size: time.Second}},
	}}
	rng := rand.New(rand.NewSource(27))
	hdr := &savepointData{Workers: 1, SeqBlock: 1, Seqs: map[string][]int64{}}
	for round := 0; round < 24; round++ {
		keys := rng.Intn(2001)
		if round%8 == 0 {
			keys = 0
		}
		plain, win := randomState(rng, keys)
		universe := map[string]map[string]any{"plain": plain, "win": win}
		drained := parts[any]{"plain": {plain}, "win": {win}}
		vals := parts[any]{"plain": groupsOf(plain), "win": groupsOf(win)}
		if round%5 == 2 {
			delete(drained, "win")
			delete(vals, "win")
			universe["win"] = nil
		}
		snap := &snapshot{vals: vals}
		v1, err := fileV1(pipe, snap, hdr)
		if err != nil {
			t.Fatal(err)
		}
		v2, err := snap.file(pipe, hdr)
		if err != nil {
			t.Fatal(err)
		}
		head, err := encodeSavepointByGroup(pipe, hdr, drained, encodeOpState)
		if err != nil {
			t.Fatal(err)
		}
		type restore struct {
			vals parts[any]
			enc  parts[[]byte]
		}
		var restores []restore
		for _, file := range [][]byte{v1, v2, head} {
			sp, err := decodeSavepoint(file)
			if err != nil {
				t.Fatal(err)
			}
			run := func(op string) iter.Seq2[string, []byte] { return runPairs(sp.States[op]) }
			var r restore
			if r.vals, err = filed(pipe, run, decodeOpState); err != nil {
				t.Fatal(err)
			}
			if r.enc, err = filed(pipe, run, sameBytes); err != nil {
				t.Fatal(err)
			}
			restores = append(restores, r)
		}
		enc := mustBytes(t, pipe, vals)
		for _, n := range refParallelisms {
			par := dataflow.Parallelism{"plain": n, "win": 1 + (n*7)%33}
			dealt, vshares := dealAll(pipe, vals, par)
			_, dealtBytes := dealAll(pipe, enc, par)
			for i, restore := range restores {
				routers, shares := dealAll(pipe, restore.vals, par)
				bRouters, bShares := dealAll(pipe, restore.enc, par)
				for op := range pipe.ops {
					if !reflect.DeepEqual(routers[op].bounds, dealt[op].bounds) || !reflect.DeepEqual(bRouters[op].bounds, dealt[op].bounds) {
						t.Fatalf("round %d (%d keys), %s at %d instances: file %d restores to bounds %v and %v, the drained state cuts to %v",
							round, keys, op, par[op], i+1, routers[op].bounds, bRouters[op].bounds, dealt[op].bounds)
					}
					if want := refBounds(universe[op], par[op]); !reflect.DeepEqual(routers[op].bounds, want) {
						t.Fatalf("round %d (%d keys), %s at %d instances: file %d restores to bounds %v, the rule gives %v",
							round, keys, op, par[op], i+1, routers[op].bounds, want)
					}
					b := dealt[op].bounds
					for inst := 0; inst < par[op]; inst++ {
						lo, hi := b[inst], b[inst+1]
						if !reflect.DeepEqual(shares[op][lo:hi], vshares[op][lo:hi]) || !reflect.DeepEqual(bShares[op][lo:hi], dealtBytes[op][lo:hi]) {
							t.Fatalf("round %d (%d keys), %s at %d instances: file %d restores instance %d to other group maps than the drained state cuts to",
								round, keys, op, par[op], i+1, inst)
						}
					}
				}
			}
		}
	}
}

// TestSavepointDecodeAllocs pins what decoding a savepoint allocates: one
// key string per key and a bounded number of objects per operator and
// source — no field name formatted, no state copied, no map built per key.
func TestSavepointDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation pin runs without -race")
	}
	const keys = 20000
	sp := &savepointData{Workers: 1, SeqBlock: 1, Seqs: map[string][]int64{"src": {7}}, States: map[string][]entry[[]byte]{}}
	for _, op := range []string{"count", "win"} {
		for k := 0; k < keys/2; k++ {
			sp.States[op] = append(sp.States[op], entry[[]byte]{fmt.Sprintf("key-%06d", k), []byte{byte(k), 1, 2}})
		}
	}
	data := encodeDecoded(sp)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := decodeSavepoint(data); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("decoding %d keys over 2 operators: %.0f allocations (%.2f a key)", keys, allocs, allocs/keys)
	if allocs > keys+32 {
		t.Errorf("%.0f allocations, want at most one a key plus 32", allocs)
	}
}

// TestDecodeWindowStateBoundsPaneCount: a window state blob whose pane
// count the bytes after it cannot hold — what a CRC-valid savepoint of an
// older state layout can carry — fails naming the count, before the count
// sizes anything.
func TestDecodeWindowStateBoundsPaneCount(t *testing.T) {
	spec := &OperatorSpec{Keyed: true, State: IntStateCodec{}, Window: &WindowSpec{Size: time.Second}}
	blob := binary.AppendUvarint(binary.AppendVarint(nil, 0), 1<<27)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, err := decodeOpState(spec, blob)
	runtime.ReadMemStats(&m1)
	if err == nil || !strings.Contains(err.Error(), "pane count 134217728") {
		t.Fatalf("decoding a %d-byte blob claiming 2^27 panes: error %v, want one naming the pane count", len(blob), err)
	}
	if got := m1.TotalAlloc - m0.TotalAlloc; got >= 1<<20 {
		t.Fatalf("decoding a %d-byte blob allocated %d bytes", len(blob), got)
	}
}

func TestMemoryStore(t *testing.T) {
	s := NewMemoryStore()
	if _, err := s.Load("nope"); err == nil {
		t.Fatal("Load of a missing savepoint succeeded")
	}
	if err := s.Save("a", []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	got, err := s.Load("a")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{1, 2}) {
		t.Fatalf("Load returned %v", got)
	}
	// The store must hold its own copy, immune to caller mutation.
	got[0] = 9
	if again, _ := s.Load("a"); !bytes.Equal(again, []byte{1, 2}) {
		t.Fatal("store aliases the caller's buffer")
	}
}

func TestDirStore(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDirStore(filepath.Join(dir, "nested", "sp"))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "a/b", "../esc"} {
		if err := s.Save(bad, []byte{1}); err == nil || !strings.Contains(err.Error(), "bare file name") {
			t.Fatalf("Save(%q) error = %v, want bare-name rejection", bad, err)
		}
		if _, err := s.Load(bad); err == nil {
			t.Fatalf("Load(%q) succeeded", bad)
		}
	}
	if err := s.Save("sp-1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Save("sp-1", []byte("v2")); err != nil { // overwrite = atomic republish
		t.Fatal(err)
	}
	got, err := s.Load("sp-1")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v2" {
		t.Fatalf("Load returned %q, want %q", got, "v2")
	}
	// No temp-file litter after successful publishes.
	entries, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}

// TestDirStoreFailedSaveLeavesNothing: a Save that cannot publish — the
// name is taken by a non-empty directory, so the rename fails — returns
// the error, leaves no temp file behind and does not disturb the blobs
// the store already holds.
func TestDirStoreFailedSaveLeavesNothing(t *testing.T) {
	s, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save("prior", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(s.Dir(), "cut", "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Save("cut", []byte("v2")); err == nil {
		t.Fatal("Save over a non-empty directory succeeded")
	}
	entries, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("failed Save left temp file %s behind", e.Name())
		}
	}
	if got, err := s.Load("prior"); err != nil || string(got) != "v1" {
		t.Fatalf("Load(prior) = %q, %v after a failed Save of another name", got, err)
	}
}

// TestSyncDirFailsOnMissingDir: the directory fsync that makes a Save's
// rename durable reports a directory it cannot open instead of passing
// the Save.
func TestSyncDirFailsOnMissingDir(t *testing.T) {
	dir := t.TempDir()
	if err := syncDir(dir); err != nil {
		t.Fatalf("syncDir(%s): %v", dir, err)
	}
	if err := syncDir(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("syncDir of a directory that does not exist succeeded")
	}
}
