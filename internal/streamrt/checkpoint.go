package streamrt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"

	"ds2/internal/dataflow"
	"ds2/internal/obs"
)

// Durable checkpoints. A savepoint is the rescale cycle's snapshot —
// drained keyed state plus the source sequence counters — made
// durable: encoded with the operators' StateCodecs into one versioned,
// CRC-guarded binary blob and handed to a CheckpointStore. Restoring
// deploys a fresh Job from that blob; because the sources are
// deterministic generators and the counters are persisted, the
// restored job resumes the sequence space exactly where the savepoint
// cut it — no record replayed, none skipped — at whatever operator
// parallelism the restore chooses (state repartitions through the
// ordinary deploy path).

// CheckpointStore persists encoded savepoints by name. Save must be
// atomic with respect to Load: a reader sees either the complete prior
// blob or the complete new one, never a torn write.
type CheckpointStore interface {
	Save(name string, data []byte) error
	Load(name string) ([]byte, error)
}

// MemoryStore is an in-process CheckpointStore, for tests and for
// savepoint-shaped rescues that never need to survive the process.
type MemoryStore struct {
	mu sync.Mutex
	m  map[string][]byte
}

// NewMemoryStore returns an empty in-memory store.
func NewMemoryStore() *MemoryStore { return &MemoryStore{m: make(map[string][]byte)} }

// Save implements CheckpointStore.
func (s *MemoryStore) Save(name string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[name] = append([]byte(nil), data...)
	return nil
}

// Load implements CheckpointStore.
func (s *MemoryStore) Load(name string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[name]
	if !ok {
		return nil, fmt.Errorf("streamrt: no savepoint %q", name)
	}
	return append([]byte(nil), b...), nil
}

// DirStore is a directory-backed CheckpointStore. Save writes the blob
// to a temporary file in the same directory, fsyncs it, renames it into
// place and fsyncs the directory — the atomic-publish idiom, so a crash
// mid-save leaves the previous savepoint intact, a Load never observes a
// torn file, and a savepoint Save reported survives a power loss.
type DirStore struct{ dir string }

// NewDirStore creates dir if needed and returns a store over it.
func NewDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &DirStore{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *DirStore) Dir() string { return s.dir }

// Save implements CheckpointStore.
func (s *DirStore) Save(name string, data []byte) (err error) {
	if name == "" || name != filepath.Base(name) {
		return fmt.Errorf("streamrt: savepoint name %q must be a bare file name", name)
	}
	f, err := os.CreateTemp(s.dir, name+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			os.Remove(tmp)
		}
	}()
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, name)); err != nil {
		return err
	}
	return syncDir(s.dir)
}

// syncDir fsyncs directory dir, making the renames into it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Load implements CheckpointStore.
func (s *DirStore) Load(name string) ([]byte, error) {
	if name == "" || name != filepath.Base(name) {
		return nil, fmt.Errorf("streamrt: savepoint name %q must be a bare file name", name)
	}
	return os.ReadFile(filepath.Join(s.dir, name))
}

// Savepoint file format (all integers big-endian where fixed-width,
// varint/uvarint otherwise; strings and blobs are uvarint-length-
// prefixed):
//
//	magic    [8]byte "DS2SAVE0"
//	version  u16
//	workload string           // "" for single-process jobs
//	workers  uvarint          // processes the savepoint was cut over
//	seqBlock uvarint          // source sequence striping block size
//	elapsed  f64 (u64 bits)   // job time at the cut, seconds
//	nSrc     uvarint
//	nSrc ×  (name string, nRanks uvarint, nRanks × varint counter)
//	nOps     uvarint
//	nOps ×  (name string, nKeys uvarint, nKeys × (key string, blob))
//	crc32    u32              // IEEE, over everything above
//
// Names are written in strictly increasing order, and an operator's keys
// in strictly increasing (keyGroup(key), key) order, which the reader
// requires: identical state gives identical bytes. The group count and
// keyGroup are part of the format, so changing either is a version bump.
// Version 1, whose keys are in strictly increasing key order, is still
// read; a restore files either version's keys into their groups (see
// filed) and cuts those like any drained state.
//
// Per-key state blobs are encodeOpState's output — the operator's
// StateCodec bytes, wrapped in the canonical window encoding for
// windowed operators — i.e. exactly what crosses the wire during a
// distributed rescale. Source counters are per *rank* (position in
// the sorted list of workers hosting the source), counting the rank's
// locally emitted records under block striping; rank 0 of a
// single-process job is the global next sequence number. The trailing
// CRC is verified before any structural parsing, so a truncated or
// bit-flipped file fails with one clean error instead of feeding
// garbage lengths (or worse, a user codec) mid-parse.

var savepointMagic = [8]byte{'D', 'S', '2', 'S', 'A', 'V', 'E', '0'}

// savepointVersion is the version encodeSavepoint writes; decodeSavepoint
// also reads version 1.
const savepointVersion = 2

// savepointData is the decoded form of one savepoint file.
type savepointData struct {
	Workload string
	Workers  int
	SeqBlock int64
	Elapsed  float64
	Seqs     map[string][]int64 // source -> per-rank local counters
	// States is, per operator, the file's run of (key, encoded state) in
	// the file's order, as decodeSavepoint read it; the states alias the
	// file. A restore files them into group maps (see filed);
	// encodeSavepoint takes state in that form.
	States map[string][]entry[[]byte]
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func appendSpString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// encodeSavepoint serializes the header fields of sp and the state in
// group form in one pass: per operator the groups are walked in order
// and each group's few keys sorted, which is the file's (group, key)
// order — identical state gives identical bytes whatever the map
// iteration order — and each state is appended by enc (appendOpState for
// values, appendBytes for bytes a worker already encoded) to one reused
// scratch buffer and copied into the file buffer behind its length. A
// failing or panicking StateCodec is reported naming operator and key.
func encodeSavepoint[V any](pipe *Pipeline, sp *savepointData, states parts[V], enc func([]byte, *OperatorSpec, V) ([]byte, error)) (_ []byte, err error) {
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
	var grp []entry[V] // one group's keys, reused
	var state []byte   // one key's encoded state, reused
	for _, op = range sortedKeys(states) {
		spec := pipe.ops[op]
		if spec == nil {
			return nil, fmt.Errorf("streamrt: state for unknown operator %q", op)
		}
		keys := 0
		for _, kv := range states[op] {
			keys += len(kv)
		}
		// Room for, as a guess, 24 bytes of key, lengths and state a key:
		// the buffer grows once per operator, not per doubling.
		buf = slices.Grow(buf, 24*keys)
		buf = appendSpString(buf, op)
		buf = binary.AppendUvarint(buf, uint64(keys))
		for _, kv := range states[op] {
			grp = grp[:0]
			for k, v := range kv {
				grp = append(grp, entry[V]{k, v})
			}
			if len(grp) > 1 {
				slices.SortFunc(grp, func(a, b entry[V]) int { return strings.Compare(a.key, b.key) })
			}
			for _, e := range grp {
				key = e.key
				if state, err = enc(state[:0], spec, e.val); err != nil {
					return nil, fmt.Errorf("streamrt: encoding %s[%q]: %w", op, key, err)
				}
				buf = appendSpString(buf, key)
				buf = binary.AppendUvarint(buf, uint64(len(state)))
				buf = append(buf, state...)
			}
		}
	}
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf)), nil
}

// spReader is the structural decoder's cursor; every read names the
// field it was after, so a malformed file fails with "corrupt <field>"
// rather than a panic or a silent partial parse.
type spReader struct{ b []byte }

func (r *spReader) uvarint(field string) (uint64, error) {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		return 0, fmt.Errorf("streamrt: savepoint: corrupt %s", field)
	}
	r.b = r.b[n:]
	return v, nil
}

func (r *spReader) varint(field string) (int64, error) {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		return 0, fmt.Errorf("streamrt: savepoint: corrupt %s", field)
	}
	r.b = r.b[n:]
	return v, nil
}

// count reads a uvarint bounded by the remaining bytes (every counted
// element occupies at least one byte), so a corrupt length can never
// drive an allocation beyond the file's own size.
func (r *spReader) count(field string) (int, error) {
	v, err := r.uvarint(field)
	if err != nil {
		return 0, err
	}
	if v > uint64(len(r.b)) {
		return 0, fmt.Errorf("streamrt: savepoint: %s %d exceeds the %d bytes left in the file", field, v, len(r.b))
	}
	return int(v), nil
}

// blob reads a length-prefixed byte string, field naming the length. It
// aliases the file, capped so that an append cannot overwrite the rest.
func (r *spReader) blob(field string) ([]byte, error) {
	n, err := r.count(field)
	if err != nil {
		return nil, err
	}
	b := r.b[:n:n]
	r.b = r.b[n:]
	return b, nil
}

func (r *spReader) str(field string) (string, error) {
	b, err := r.blob(field)
	return string(b), err
}

func (r *spReader) f64(field string) (float64, error) {
	if len(r.b) < 8 {
		return 0, fmt.Errorf("streamrt: savepoint: truncated %s", field)
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v, nil
}

// decodeSavepoint parses and validates one savepoint file of version 1
// or 2. It is purely structural — no user codec runs — and total: any
// input either decodes or returns an error naming the failing field.
// Each operator's state is the file's run, its states aliasing data, and
// a key not after the one before it in the version's order is refused.
// Per key it allocates the key string only: field names are formatted
// only when a read fails.
func decodeSavepoint(data []byte) (*savepointData, error) {
	header := len(savepointMagic) + 2
	if len(data) < header+4 {
		return nil, fmt.Errorf("streamrt: savepoint: %d bytes is shorter than the smallest savepoint", len(data))
	}
	if !bytes.Equal(data[:len(savepointMagic)], savepointMagic[:]) {
		return nil, errors.New("streamrt: savepoint: bad magic; not a savepoint file")
	}
	version := binary.BigEndian.Uint16(data[len(savepointMagic):header])
	if version != 1 && version != savepointVersion {
		return nil, fmt.Errorf("streamrt: savepoint: format version %d; this build reads versions 1 and %d", version, savepointVersion)
	}
	body, sum := data[:len(data)-4], binary.BigEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(body); got != sum {
		return nil, fmt.Errorf("streamrt: savepoint: checksum mismatch (have %08x, file says %08x); truncated or corrupted", got, sum)
	}
	r := &spReader{b: body[header:]}
	sp := &savepointData{}
	var err error
	if sp.Workload, err = r.str("workload length"); err != nil {
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
		name, err := r.str("source name length")
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
	sp.States = make(map[string][]entry[[]byte], nOps)
	for i := 0; i < nOps; i++ {
		op, err := r.str("operator name length")
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
		run := make([]entry[[]byte], nKeys)
		// Version 1 orders keys alone: every key counts as group 0.
		group, prev := 0, 0
		for k := range run {
			key, err := r.str("state key length")
			if err != nil {
				return nil, fmt.Errorf("%w (operator %q, key #%d)", err, op, k)
			}
			if version != 1 {
				group = keyGroup(key)
			}
			if k > 0 && (group < prev || group == prev && key <= run[k-1].key) {
				if key == run[k-1].key {
					return nil, fmt.Errorf("streamrt: savepoint: operator %q has duplicate key %q", op, key)
				}
				return nil, fmt.Errorf("streamrt: savepoint: operator %q has key %q out of order, after %q", op, key, run[k-1].key)
			}
			prev = group
			blob, err := r.blob("state length")
			if err != nil {
				return nil, fmt.Errorf("%w (operator %q, key %q)", err, op, key)
			}
			run[k] = entry[[]byte]{key, blob}
		}
		sp.States[op] = run
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("streamrt: savepoint: %d trailing bytes after the last operator", len(r.b))
	}
	return sp, nil
}

// phasePersist is the savepoint-only trace phase: the store write and
// nothing else, between snapshot (which builds the file) and restart.
const phasePersist = "persist"

// savepointHist resolves the savepoint duration histogram (nil when
// telemetry is off). Registered lazily — the family appears on
// /metrics once the job has actually taken a savepoint.
func (o *jobObs) savepointHist() *obs.Histogram {
	if o == nil {
		return nil
	}
	return o.reg.Histogram("streamrt_savepoint_seconds",
		"Wall time of a savepoint: drain, snapshot, persist to the checkpoint store, restart.",
		obs.HistogramOpts{Min: 1e-3, Growth: 2, Buckets: 20})
}

// checkSavepointable verifies every keyed operator can serialize its
// state, before anything is drained — a savepoint must fail cleanly,
// not stop the job and then discover it cannot encode.
func checkSavepointable(pipe *Pipeline) error {
	for _, name := range sortedKeys(pipe.ops) {
		if spec := pipe.ops[name]; spec.Keyed && spec.State == nil {
			return fmt.Errorf("streamrt: savepoint: keyed operator %q has no StateCodec; savepoints store state as bytes", name)
		}
	}
	return nil
}

// checkRestoreShape verifies a decoded savepoint fits what it is being
// restored into. Operator parallelism is free to differ from the cut —
// state repartitions through the ordinary deploy path. The worker count
// is not: source sequence striping is per worker process, so every
// source must keep the number of hosting workers its counters were
// recorded for. The pipeline must match too: every source has a
// persisted counter, and nothing in the file references a source or
// operator the pipeline does not have. A nil addrs is the local
// placement, one worker.
func checkRestoreShape(pipe *Pipeline, sp *savepointData, workload string, initial dataflow.Parallelism, addrs []string) error {
	if addrs != nil && sp.Workload != workload {
		return fmt.Errorf("streamrt: savepoint holds workload %q, not %q", sp.Workload, workload)
	}
	workers := max(len(addrs), 1)
	if sp.Workers != workers {
		return fmt.Errorf("streamrt: savepoint was cut over %d workers; restoring over %d would re-stripe source sequences (use NewClusterFromSavepoint over %d workers)", sp.Workers, workers, sp.Workers)
	}
	for _, src := range sortedKeys(pipe.sources) {
		if _, ok := sp.Seqs[src]; !ok {
			return fmt.Errorf("streamrt: savepoint: no sequence counter for source %q; savepoint is from a different pipeline", src)
		}
	}
	for _, src := range sortedKeys(sp.Seqs) {
		if _, ok := pipe.sources[src]; !ok {
			return fmt.Errorf("streamrt: savepoint: sequence counter for unknown source %q", src)
		}
	}
	for _, op := range sortedKeys(sp.States) {
		if pipe.ops[op] == nil {
			return fmt.Errorf("streamrt: savepoint: state for unknown operator %q", op)
		}
	}
	assign := PlanPlacement(initial, workers)
	for _, src := range sortedKeys(pipe.sources) {
		if hosts := hostingWorkers(assign[src]); len(hosts) != len(sp.Seqs[src]) {
			return fmt.Errorf("streamrt: restore changes source %q from %d to %d hosting workers; sequence stripes would not line up", src, len(sp.Seqs[src]), len(hosts))
		}
	}
	return nil
}

// NewJobFromSavepoint deploys a fresh single-process Job from a
// savepoint: keyed state repartitions under initial (which may differ
// from the parallelism the savepoint was cut at), source counters
// resume the sequence space exactly where the cut left it, and job
// time continues from the persisted elapsed time so rate schedules
// pick up where they stopped.
func NewJobFromSavepoint(p *Pipeline, initial dataflow.Parallelism, cfg Config, store CheckpointStore, name string) (*Job, error) {
	if store == nil {
		return nil, errors.New("streamrt: nil checkpoint store")
	}
	return start(p, "", initial, nil, cfg, store, name)
}

// NewClusterFromSavepoint deploys a fresh distributed cluster from a
// savepoint, over as many workers as the savepoint was cut over (see
// checkRestoreShape); the striping block size is taken from the file.
func NewClusterFromSavepoint(pipe *Pipeline, workload string, initial dataflow.Parallelism, addrs []string, cfg Config, store CheckpointStore, name string) (*Cluster, error) {
	if store == nil {
		return nil, errors.New("streamrt: nil checkpoint store")
	}
	return start(pipe, workload, initial, append([]string{}, addrs...), cfg, store, name)
}
