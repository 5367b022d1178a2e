// Savepoint file-format hardening: the binary codec roundtrips, every
// corruption class fails with a clean field-naming error (never a
// panic or a silent partial parse), and the stores publish atomically.
package streamrt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
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
			"count": {{"k00", []byte{1, 2, 3}}, {"k01", []byte{7}}, {"k02", []byte{0xFF}}},
			"join":  {},
		},
	}
}

// encodeDecoded runs the encoder over a decoded savepoint the way the
// remote placement does: the States are bytes already, one part per
// operator, and every operator they name exists.
func encodeDecoded(sp *savepointData) []byte {
	pipe := &Pipeline{ops: make(map[string]*OperatorSpec, len(sp.States))}
	states := make(parts[[]byte], len(sp.States))
	for op, run := range sp.States {
		pipe.ops[op] = &OperatorSpec{}
		kv := make(map[string][]byte, len(run))
		for _, e := range run {
			kv[e.key] = e.val
		}
		states[op] = []map[string][]byte{kv}
	}
	data, err := encodeSavepoint(pipe, sp, states, func(_ *OperatorSpec, b []byte) ([]byte, error) { return b, nil })
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
	valid := encodeDecoded(sampleSavepoint())
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
		}(), "format version 2; this build reads version 1"},
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
			return refixCRC(encodeDecoded(sp))
		}(), "worker count 0 outside [1, 65535]"},
		{"negative counter", func() []byte {
			sp := sampleSavepoint()
			sp.Seqs = map[string][]int64{"src": {-3}}
			sp.Workers = 1
			return refixCRC(encodeDecoded(sp))
		}(), `source "src" rank 0 counter -3 is negative`},
		{"rank overflow", func() []byte {
			sp := sampleSavepoint()
			sp.Workers = 1 // fewer workers than src's two seq ranks
			return refixCRC(encodeDecoded(sp))
		}(), `source "src" has 2 seq ranks for 1 workers`},
		{"duplicate key", renameKey(valid, "k01", "k00"), `operator "count" has duplicate key "k00"`},
		{"keys out of order", renameKey(valid, "k00", "k05"), `operator "count" has key "k01" out of order`},
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

func FuzzSavepointDecode(f *testing.F) {
	f.Add(encodeDecoded(sampleSavepoint()))
	f.Add(encodeDecoded(&savepointData{
		Workers: 1, SeqBlock: 1,
		Seqs:   map[string][]int64{"s": {0}},
		States: map[string][]entry[[]byte]{},
	}))
	valid := encodeDecoded(sampleSavepoint())
	f.Add(valid[:len(valid)-6])
	f.Add(refixCRC(append(append([]byte(nil), valid[:len(valid)-4]...), 0x01)))
	for _, cut := range []int{0, 1, 9, 11} {
		f.Add(valid[:cut])
	}
	f.Add(renameKey(valid, "k01", "k00"))
	f.Add(renameKey(valid, "k00", "k05"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Total: any input either decodes or errors — never panics.
		sp, err := decodeSavepoint(data)
		if err != nil {
			return
		}
		// Anything accepted must re-encode canonically and survive a
		// second decode unchanged.
		again, err := decodeSavepoint(encodeDecoded(sp))
		if err != nil {
			t.Fatalf("re-encode of an accepted savepoint failed to decode: %v", err)
		}
		if !reflect.DeepEqual(again, sp) {
			t.Fatalf("re-encode roundtrip diverged:\n got: %+v\nwant: %+v", again, sp)
		}
	})
}

// encodeSavepointMap and refSavepointFile are the chain the one-pass
// encoder replaced, kept word for word as its reference: encode every
// part into a parts[[]byte], merge the parts into one map per operator,
// then sort each map's keys and look every key up again.

// savepointMapData is a savepoint with its state as the map-based chains
// held it: operator -> key -> encoded state.
type savepointMapData struct {
	savepointData
	States map[string]map[string][]byte
}

// encodeSavepointMap serializes sp. Map keys are sorted into the encoding
// so identical snapshots produce identical bytes regardless of map
// iteration order.
func encodeSavepointMap(sp *savepointMapData) []byte {
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
	buf = binary.AppendUvarint(buf, uint64(len(sp.States)))
	for _, op := range sortedKeys(sp.States) {
		buf = appendSpString(buf, op)
		kv := sp.States[op]
		buf = binary.AppendUvarint(buf, uint64(len(kv)))
		for _, k := range sortedKeys(kv) {
			buf = appendSpString(buf, k)
			buf = binary.AppendUvarint(buf, uint64(len(kv[k])))
			buf = append(buf, kv[k]...)
		}
	}
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

func refSavepointFile(t *testing.T, pipe *Pipeline, hdr savepointData, snap *snapshot) []byte {
	t.Helper()
	enc, err := snap.bytes(pipe)
	if err != nil {
		t.Fatal(err)
	}
	return encodeSavepointMap(&savepointMapData{hdr, mergeParts(enc)})
}

// TestSavepointFileIsTheOldFile: over seeded random state — a plain and
// a windowed operator, 0..5 parts each with empty and nil maps among
// them, as values and as bytes — the one-pass encoder writes the file the
// old chain wrote, byte for byte.
func TestSavepointFileIsTheOldFile(t *testing.T) {
	pipe := &Pipeline{ops: map[string]*OperatorSpec{
		"plain": {Keyed: true, State: IntStateCodec{}},
		"win":   {Keyed: true, State: IntStateCodec{}, Window: &WindowSpec{Size: time.Second}},
	}}
	rng := rand.New(rand.NewSource(24))
	// randomParts spreads keys distinct keys of op over 0..5 parts.
	randomParts := func(op string, keys int, state func() any) []map[string]any {
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
		for k := 0; k < keys && len(open) > 0; k++ {
			open[rng.Intn(len(open))][fmt.Sprintf("%s-%d", op, rng.Int63())] = state()
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
		vals := parts[any]{
			"plain": randomParts("plain", keys, func() any { return rng.Intn(1 << 30) }),
			"win": randomParts("win", keys/4, func() any {
				ws := &WindowState{NextFire: rng.Int63n(1000) - 500, Panes: make(map[int64]any)}
				for p := rng.Intn(6); p > 0; p-- {
					ws.Panes[rng.Int63n(2000)-1000] = rng.Intn(1 << 20)
				}
				return ws
			}),
		}
		if round%7 == 3 {
			delete(vals, "win") // an operator no instance reported
		}
		for _, snap := range []*snapshot{{vals: vals}, {enc: mustBytes(t, pipe, vals)}} {
			want := refSavepointFile(t, pipe, hdr, snap)
			got, err := snap.file(pipe, &hdr)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("round %d (%d keys, values=%v): one-pass file differs from the old chain's (%d vs %d bytes)",
					round, keys, snap.vals != nil, len(got), len(want))
			}
			if _, err := decodeSavepoint(got); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}
}

func mustBytes(t *testing.T, pipe *Pipeline, vals parts[any]) parts[[]byte] {
	t.Helper()
	enc, err := (&snapshot{vals: vals}).bytes(pipe)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// decodeSavepointMap and dealSearch are the restore chain that cutting
// the file's runs replaced, kept word for word as its reference: decode
// every key into a map, decode every state into a second map
// (convertParts, still the worker's decode), then sort the keys again and
// binary-search every key's owner.

// decodeSavepointMap parses and validates one savepoint file. It is
// purely structural — no user codec runs — and total: any input either
// decodes or returns an error naming the failing field.
func decodeSavepointMap(data []byte) (*savepointMapData, error) {
	header := len(savepointMagic) + 2
	if len(data) < header+4 {
		return nil, fmt.Errorf("streamrt: savepoint: %d bytes is shorter than the smallest savepoint", len(data))
	}
	if !bytes.Equal(data[:len(savepointMagic)], savepointMagic[:]) {
		return nil, errors.New("streamrt: savepoint: bad magic; not a savepoint file")
	}
	if v := binary.BigEndian.Uint16(data[len(savepointMagic):header]); v != savepointVersion {
		return nil, fmt.Errorf("streamrt: savepoint: format version %d; this build reads version %d", v, savepointVersion)
	}
	body, sum := data[:len(data)-4], binary.BigEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(body); got != sum {
		return nil, fmt.Errorf("streamrt: savepoint: checksum mismatch (have %08x, file says %08x); truncated or corrupted", got, sum)
	}
	r := &spReader{b: body[header:]}
	sp := &savepointMapData{}
	var err error
	if sp.Workload, err = r.str("workload"); err != nil {
		return nil, err
	}
	workers, err := r.uvarint("worker count")
	if err != nil {
		return nil, err
	}
	if workers < 1 || workers > 0xFFFF {
		return nil, fmt.Errorf("streamrt: savepoint: worker count %d outside [1, 65535]", workers)
	}
	sp.Workers = int(workers)
	seqBlock, err := r.uvarint("seq block size")
	if err != nil {
		return nil, err
	}
	if seqBlock < 1 || seqBlock > math.MaxInt64 {
		return nil, fmt.Errorf("streamrt: savepoint: seq block size %d outside [1, 2^63)", seqBlock)
	}
	sp.SeqBlock = int64(seqBlock)
	if sp.Elapsed, err = r.f64("elapsed time"); err != nil {
		return nil, err
	}
	if math.IsNaN(sp.Elapsed) || sp.Elapsed < 0 {
		return nil, fmt.Errorf("streamrt: savepoint: elapsed time %v is not a non-negative duration", sp.Elapsed)
	}
	nSrc, err := r.count("source count")
	if err != nil {
		return nil, err
	}
	sp.Seqs = make(map[string][]int64, nSrc)
	for i := 0; i < nSrc; i++ {
		name, err := r.str("source name")
		if err != nil {
			return nil, err
		}
		if _, dup := sp.Seqs[name]; dup {
			return nil, fmt.Errorf("streamrt: savepoint: duplicate source %q", name)
		}
		nRanks, err := r.count(fmt.Sprintf("source %q rank count", name))
		if err != nil {
			return nil, err
		}
		if nRanks < 1 || nRanks > sp.Workers {
			return nil, fmt.Errorf("streamrt: savepoint: source %q has %d seq ranks for %d workers", name, nRanks, sp.Workers)
		}
		counters := make([]int64, nRanks)
		for rank := range counters {
			c, err := r.varint(fmt.Sprintf("source %q rank %d counter", name, rank))
			if err != nil {
				return nil, err
			}
			if c < 0 {
				return nil, fmt.Errorf("streamrt: savepoint: source %q rank %d counter %d is negative", name, rank, c)
			}
			counters[rank] = c
		}
		sp.Seqs[name] = counters
	}
	nOps, err := r.count("operator count")
	if err != nil {
		return nil, err
	}
	sp.States = make(map[string]map[string][]byte, nOps)
	for i := 0; i < nOps; i++ {
		op, err := r.str("operator name")
		if err != nil {
			return nil, err
		}
		if _, dup := sp.States[op]; dup {
			return nil, fmt.Errorf("streamrt: savepoint: duplicate operator %q", op)
		}
		nKeys, err := r.count(fmt.Sprintf("operator %q key count", op))
		if err != nil {
			return nil, err
		}
		kv := make(map[string][]byte, nKeys)
		for k := 0; k < nKeys; k++ {
			key, err := r.str(fmt.Sprintf("operator %q state key", op))
			if err != nil {
				return nil, err
			}
			if _, dup := kv[key]; dup {
				return nil, fmt.Errorf("streamrt: savepoint: operator %q has duplicate key %q", op, key)
			}
			if kv[key], err = r.blob(fmt.Sprintf("operator %q state for key %q", op, key)); err != nil {
				return nil, err
			}
		}
		sp.States[op] = kv
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("streamrt: savepoint: %d trailing bytes after the last operator", len(r.b))
	}
	return sp, nil
}

// dealSearch hands the keyed state in drained to the n instances of the
// next generation: the key universe is sorted once and cut into n
// contiguous runs, len/n keys each and one more for the first len%n
// instances; one pass over the maps then files every key under the run
// it falls in, in the table and in its owner's share.
func dealSearch[V any](drained []map[string]V, n int) (table map[string]int, shares []map[string]V) {
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

// TestRestoreDealIsTheOldDeal: over seeded savepoint files — a plain and
// a windowed operator, 0..2000 keys, now and then an operator the file
// does not hold — cutting the file's runs at every parallelism from 1 to
// 33 gives the routing tables and shares the old chain gave: as values,
// what the local placement deploys, and as bytes, what the remote one
// ships.
func TestRestoreDealIsTheOldDeal(t *testing.T) {
	pipe := &Pipeline{ops: map[string]*OperatorSpec{
		"plain": {Keyed: true, State: IntStateCodec{}},
		"win":   {Keyed: true, State: IntStateCodec{}, Window: &WindowSpec{Size: time.Second}},
	}}
	rng := rand.New(rand.NewSource(27))
	for round := 0; round < 24; round++ {
		keys := rng.Intn(2001)
		if round%8 == 0 {
			keys = 0
		}
		plain, win := make(map[string]any, keys), make(map[string]any, keys/4)
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
		vals := parts[any]{"plain": {plain}, "win": {win}}
		if round%5 == 2 {
			delete(vals, "win")
		}
		file, err := (&snapshot{vals: vals}).file(pipe, &savepointData{Workers: 1, SeqBlock: 1, Seqs: map[string][]int64{}})
		if err != nil {
			t.Fatal(err)
		}
		sp, err := decodeSavepoint(file)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := decodeSavepointMap(file)
		if err != nil {
			t.Fatal(err)
		}
		enc := make(parts[[]byte], len(ref.States))
		for op, kv := range ref.States {
			enc[op] = []map[string][]byte{kv}
		}
		dec, err := convertParts(pipe, "decoding", enc, decodeOpState)
		if err != nil {
			t.Fatal(err)
		}
		restore := &snapshot{runs: sp.States}
		for n := 1; n <= 33; n++ {
			par := dataflow.Parallelism{"plain": n, "win": 1 + (n*7)%33}
			tables, shares, err := dealAll(pipe, restore, nil, par, decodeOpState)
			if err != nil {
				t.Fatal(err)
			}
			bTables, bShares, err := dealAll(pipe, restore, nil, par, sameBytes)
			if err != nil {
				t.Fatal(err)
			}
			for op := range pipe.ops {
				wantTable, wantShares := dealSearch(dec[op], par[op])
				if !reflect.DeepEqual(tables[op], wantTable) || !reflect.DeepEqual(shares[op], wantShares) {
					t.Fatalf("round %d (%d keys), %s at %d instances: values dealt unlike the old chain", round, keys, op, par[op])
				}
				wantTable, wantBytes := dealSearch(enc[op], par[op])
				if !reflect.DeepEqual(bTables[op], wantTable) || !reflect.DeepEqual(bShares[op], wantBytes) {
					t.Fatalf("round %d (%d keys), %s at %d instances: bytes dealt unlike the old chain", round, keys, op, par[op])
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
