// Savepoint file-format hardening: the binary codec roundtrips, every
// corruption class fails with a clean field-naming error (never a
// panic or a silent partial parse), and the stores publish atomically.
package streamrt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
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
		States: map[string]map[string][]byte{
			"count": {"k00": {1, 2, 3}, "k01": {7}, "k02": {0xFF}},
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
	for op, kv := range sp.States {
		pipe.ops[op] = &OperatorSpec{}
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

func FuzzSavepointDecode(f *testing.F) {
	f.Add(encodeDecoded(sampleSavepoint()))
	f.Add(encodeDecoded(&savepointData{
		Workers: 1, SeqBlock: 1,
		Seqs:   map[string][]int64{"s": {0}},
		States: map[string]map[string][]byte{},
	}))
	valid := encodeDecoded(sampleSavepoint())
	f.Add(valid[:len(valid)-6])
	f.Add(refixCRC(append(append([]byte(nil), valid[:len(valid)-4]...), 0x01)))
	for _, cut := range []int{0, 1, 9, 11} {
		f.Add(valid[:cut])
	}
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

// encodeSavepointMap serializes sp. Map keys are sorted into the encoding
// so identical snapshots produce identical bytes regardless of map
// iteration order.
func encodeSavepointMap(sp *savepointData) []byte {
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
	hdr.States = mergeParts(enc)
	return encodeSavepointMap(&hdr)
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
