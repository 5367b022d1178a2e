// Distributed runtime acceptance: in-process Workers over real
// loopback TCP, exercising the framed exchange, credit flow control,
// cross-process drain, and state-moving rescales. The oracle
// throughout is the single-process Job: same pipeline, same bounded
// input, byte-identical final keyed state.
package streamrt_test

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ds2/internal/dataflow"
	"ds2/internal/streamrt"
)

// i64Codec moves int64 values over the wire as varints.
type i64Codec struct{}

func (i64Codec) Encode(v any) []byte { return binary.AppendVarint(nil, v.(int64)) }
func (i64Codec) Decode(b []byte) any { x, _ := binary.Varint(b); return x }
func (i64Codec) AppendEncode(dst []byte, v any) []byte {
	return binary.AppendVarint(dst, v.(int64))
}

// intStateCodec moves per-key int counters across processes at rescale.
type intStateCodec struct{}

func (intStateCodec) EncodeState(v any) []byte { return binary.AppendVarint(nil, int64(v.(int))) }
func (intStateCodec) DecodeState(b []byte) any { x, _ := binary.Varint(b); return int(x) }

const distFan = 5

// distWordcountish is liveWordcountish with the codecs a distributed
// deployment requires (every exchange edge moves bytes, every keyed
// operator snapshots state as bytes) and configurable per-record costs.
func distWordcountish(t *testing.T, rate func(float64) float64, limit int64, splitCost, countCost time.Duration) *streamrt.Pipeline {
	t.Helper()
	p, err := streamrt.NewPipeline().
		AddSource("src", streamrt.SourceSpec{
			Rate:  rate,
			Next:  func(seq int64) (string, any) { return "", seq },
			Limit: limit,
		}).
		AddOperator("split", streamrt.OperatorSpec{
			Process: func(_ any, _ string, v any, emit streamrt.Emit) any {
				base := v.(int64) * distFan
				for i := int64(0); i < distFan; i++ {
					emit(fmt.Sprintf("k%02d", (base+i)%64), "w")
				}
				return nil
			},
			Cost:  splitCost,
			Codec: i64Codec{},
		}).
		AddOperator("count", streamrt.OperatorSpec{
			Keyed: true,
			Process: func(state any, _ string, _ any, _ streamrt.Emit) any {
				c, _ := state.(int)
				return c + 1
			},
			Cost:  countCost,
			Codec: streamrt.StringCodec{},
			State: intStateCodec{},
		}).
		AddEdge("src", "split").
		AddEdge("split", "count").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// startWorkers launches n in-process Workers on loopback TCP and
// returns their control addresses.
func startWorkers(t *testing.T, n int, pipes map[string]*streamrt.Pipeline) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		w := streamrt.NewWorker(i, pipes, nil)
		addr, err := w.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Close)
		addrs[i] = addr
	}
	return addrs
}

// expectedCounts replays the wordcount arithmetic: the exact final
// keyed state any correct execution — local or distributed, rescaled
// or not — must produce for a bounded input.
func expectedCounts(limit int64) map[string]any {
	m := make(map[string]any)
	for seq := int64(0); seq < limit; seq++ {
		base := seq * distFan
		for i := int64(0); i < distFan; i++ {
			k := fmt.Sprintf("k%02d", (base+i)%64)
			c, _ := m[k].(int)
			m[k] = c + 1
		}
	}
	return m
}

func TestClusterMatchesLocalJobExactly(t *testing.T) {
	const limit = 20000
	unbounded := func(float64) float64 { return 1e12 }
	par := dataflow.Parallelism{"src": 1, "split": 2, "count": 2}

	local := distWordcountish(t, unbounded, limit, 0, 0)
	job, err := streamrt.NewJob(local, par, streamrt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	job.Wait()
	want := job.Stop()

	if !reflect.DeepEqual(want["count"], expectedCounts(limit)) {
		t.Fatalf("local job diverged from the replay oracle")
	}

	pipe := distWordcountish(t, unbounded, limit, 0, 0)
	addrs := startWorkers(t, 2, map[string]*streamrt.Pipeline{"wc": pipe})
	cluster, err := streamrt.NewCluster(pipe, "wc", par, addrs, streamrt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cluster.Wait()

	// Collect once before stopping so link counters are mirrored.
	if _, err := cluster.Collect(); err != nil {
		t.Fatalf("collect: %v", err)
	}
	got := cluster.Stop()

	if !reflect.DeepEqual(got, want) {
		t.Fatalf("distributed final state diverged from local job:\n got: %v\nwant: %v", got, want)
	}

	// The exchange genuinely crossed processes: some link moved bytes.
	var bytes, frames uint64
	for _, l := range cluster.LinkTotals() {
		bytes += l.TxBytes + l.RxBytes
		frames += l.TxFrames + l.RxFrames
	}
	if bytes == 0 || frames == 0 {
		t.Fatalf("no traffic on worker-to-worker links: bytes=%d frames=%d", bytes, frames)
	}
}

// encodeOnly is StringCodec without AppendEncode, counting its Encode
// calls: senders reach it through the adapter the deploy wraps such a
// codec in, which no codec in the tree otherwise exercises.
type encodeOnly struct{ calls *atomic.Int64 }

func (e encodeOnly) Encode(v any) []byte {
	e.calls.Add(1)
	return streamrt.StringCodec{}.Encode(v)
}
func (encodeOnly) Decode(b []byte) any { return streamrt.StringCodec{}.Decode(b) }

// TestEncodeOnlyCodecExact: a keyed edge whose codec has only Encode and
// Decode is exact against the replay oracle in one process and over two
// workers, every record encoded exactly once either way.
func TestEncodeOnlyCodecExact(t *testing.T) {
	const (
		limit = 64 * 300
		keys  = 64
	)
	want := make(map[string]any, keys)
	for k := 0; k < keys; k++ {
		want[fmt.Sprintf("k%02d", k)] = limit / keys
	}
	build := func(calls *atomic.Int64) *streamrt.Pipeline {
		p, err := streamrt.NewPipeline().
			AddSource("src", streamrt.SourceSpec{
				Rate:  func(float64) float64 { return 1e12 },
				Next:  func(seq int64) (string, any) { return fmt.Sprintf("k%02d", seq%keys), "w" },
				Limit: limit,
			}).
			AddOperator("count", streamrt.OperatorSpec{
				Keyed: true,
				// Only a value that arrived intact counts.
				Process: func(state any, _ string, v any, _ streamrt.Emit) any {
					c, _ := state.(int)
					if v.(string) == "w" {
						c++
					}
					return c
				},
				Codec: encodeOnly{calls},
				State: intStateCodec{},
			}).
			AddEdge("src", "count").
			Build()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	par := dataflow.Parallelism{"src": 1, "count": 3}
	check := func(name string, j *streamrt.Job, calls *atomic.Int64) {
		t.Helper()
		j.Wait()
		if got := j.Stop()["count"]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: final state diverged from the replay oracle:\n got: %v\nwant: %v", name, got, want)
		}
		if got := calls.Load(); got != limit {
			t.Errorf("%s: %d Encode calls for %d records", name, got, limit)
		}
	}

	var localCalls atomic.Int64
	job, err := streamrt.NewJob(build(&localCalls), par, streamrt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	check("one process", job, &localCalls)

	var distCalls atomic.Int64
	pipe := build(&distCalls)
	addrs := startWorkers(t, 2, map[string]*streamrt.Pipeline{"enc": pipe})
	cluster, err := streamrt.NewCluster(pipe, "enc", par, addrs, streamrt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	check("two workers", cluster, &distCalls)
}

func TestClusterRescaleMigratesState(t *testing.T) {
	const (
		limit = 6000
		rate  = 8000.0
	)
	pipe := distWordcountish(t, func(float64) float64 { return rate }, limit, 0, 0)
	addrs := startWorkers(t, 2, map[string]*streamrt.Pipeline{"wc": pipe})
	cluster, err := streamrt.NewCluster(pipe, "wc",
		dataflow.Parallelism{"src": 1, "split": 2, "count": 2}, addrs,
		streamrt.Config{SourceSeqBlock: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	// Rescale mid-stream, twice: counts accumulated before each rescale
	// must survive the drain → encode → re-route → decode round trip,
	// with ownership moving between worker processes both times.
	time.Sleep(250 * time.Millisecond)
	if err := cluster.Rescale(dataflow.Parallelism{"src": 1, "split": 3, "count": 4}); err != nil {
		t.Fatalf("rescale up: %v", err)
	}
	time.Sleep(250 * time.Millisecond)
	if err := cluster.Rescale(dataflow.Parallelism{"src": 1, "split": 1, "count": 3}); err != nil {
		t.Fatalf("rescale down: %v", err)
	}
	if got := cluster.Rescales(); got != 2 {
		t.Fatalf("rescales = %d, want 2", got)
	}

	cluster.Wait()
	got := cluster.Stop()
	if want := expectedCounts(limit); !reflect.DeepEqual(got["count"], want) {
		t.Fatalf("post-rescale counts diverged from the replay oracle:\n got: %v\nwant: %v", got["count"], want)
	}
}

// countSource emits key(seq) for every seq below limit at rate, with a
// value the counter checks.
func countSource(rate float64, limit int64, key func(int64) string) streamrt.SourceSpec {
	return streamrt.SourceSpec{
		Rate:  func(float64) float64 { return rate },
		Next:  func(seq int64) (string, any) { return key(seq), "w" },
		Limit: limit,
	}
}

// counter counts every intact record per key, across processes.
var counter = streamrt.OperatorSpec{
	Keyed: true,
	Process: func(state any, _ string, v any, _ streamrt.Emit) any {
		c, _ := state.(int)
		if v.(string) == "w" {
			c++
		}
		return c
	},
	Codec: streamrt.StringCodec{},
	State: intStateCodec{},
}

// replayCounts adds to m what counter holds after key(seq) for every
// seq below limit.
func replayCounts(m map[string]any, limit int64, key func(int64) string) map[string]any {
	for seq := int64(0); seq < limit; seq++ {
		c, _ := m[key(seq)].(int)
		m[key(seq)] = c + 1
	}
	return m
}

// TestClusterFanInRescale: a keyed counter with two upstream operators
// counts each record of both exactly once over two workers, across a
// mid-stream rescale of the counter and of one source. Each counter
// instance awaits end-of-stream markers from local and remote senders on
// both inputs.
func TestClusterFanInRescale(t *testing.T) {
	const limitA, limitB = 4000, 2000
	keyA := func(seq int64) string { return fmt.Sprintf("k%02d", seq%64) }
	keyB := func(seq int64) string { return fmt.Sprintf("k%02d", seq*7%64) }
	want := replayCounts(replayCounts(map[string]any{}, limitA, keyA), limitB, keyB)
	build := func(rateA, rateB float64) *streamrt.Pipeline {
		p, err := streamrt.NewPipeline().
			AddSource("a", countSource(rateA, limitA, keyA)).
			AddSource("b", countSource(rateB, limitB, keyB)).
			AddOperator("count", counter).
			AddEdge("a", "count").
			AddEdge("b", "count").
			Build()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	par := dataflow.Parallelism{"a": 3, "b": 1, "count": 2}

	job, err := streamrt.NewJob(build(1e12, 1e12), par, streamrt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	job.Wait()
	local := job.Stop()
	if !reflect.DeepEqual(local["count"], want) {
		t.Fatalf("local job diverged from the replay oracle:\n got: %v\nwant: %v", local["count"], want)
	}

	pipe := build(8000, 4000)
	addrs := startWorkers(t, 2, map[string]*streamrt.Pipeline{"fanin": pipe})
	cluster, err := streamrt.NewCluster(pipe, "fanin", par, addrs, streamrt.Config{SourceSeqBlock: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	time.Sleep(200 * time.Millisecond)
	if err := cluster.Rescale(dataflow.Parallelism{"a": 2, "b": 1, "count": 3}); err != nil {
		t.Fatalf("rescale: %v", err)
	}
	cluster.Wait()
	got := cluster.Stop()
	if !reflect.DeepEqual(got["count"], want) {
		t.Fatalf("post-rescale counts diverged from the replay oracle:\n got: %v\nwant: %v", got["count"], want)
	}
	if !reflect.DeepEqual(got, local) {
		t.Fatalf("distributed final state diverged from local job:\n got: %v\nwant: %v", got, local)
	}
}

// TestClusterCarriesLongKeys: a key longer than 65 535 bytes crosses
// workers as any other does. Both workers emit it, so it reaches its
// owner over a link whichever worker that is. A lost record or marker
// would hang the drain, hence the deadline.
func TestClusterCarriesLongKeys(t *testing.T) {
	const limit = 2000
	long := strings.Repeat("x", 70000)
	key := func(seq int64) string {
		if seq%500 == 7 { // seqs 7, 507, 1007, 1507: blocks 0, 5, 10, 15
			return long
		}
		return fmt.Sprintf("k%02d", seq%64)
	}
	build := func() *streamrt.Pipeline {
		p, err := streamrt.NewPipeline().
			AddSource("src", countSource(1e12, limit, key)).
			AddOperator("count", counter).
			AddEdge("src", "count").
			Build()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	par := dataflow.Parallelism{"src": 2, "count": 2}

	job, err := streamrt.NewJob(build(), par, streamrt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	job.Wait()
	want := job.Stop()
	if got := want["count"][long]; got != 4 {
		t.Fatalf("local job counted the long key %v times, want 4", got)
	}

	pipe := build()
	addrs := startWorkers(t, 2, map[string]*streamrt.Pipeline{"long": pipe})
	cluster, err := streamrt.NewCluster(pipe, "long", par, addrs, streamrt.Config{SourceSeqBlock: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	done := make(chan map[string]map[string]any, 1)
	go func() {
		cluster.Wait()
		done <- cluster.Stop()
	}()
	select {
	case got := <-done:
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("distributed final state diverged from local job (long key counted %v times, want 4)", got["count"][long])
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cluster did not drain within 30 s")
	}
}
