package streamrt

import (
	"fmt"
	"testing"
)

// The reconfiguration path's layers, at reconfig-200k's state size:
// 200 000 keys of int state. Each benchmark reports ns/key.
const benchKeys = 200_000

// benchParts spreads benchKeys keys over n drained parts.
func benchParts(n int) []map[string]any {
	ps := make([]map[string]any, n)
	for i := range ps {
		ps[i] = make(map[string]any, benchKeys/n+1)
	}
	for k := 0; k < benchKeys; k++ {
		ps[k%n][fmt.Sprintf("key-%07d", k)] = k
	}
	return ps
}

// BenchmarkDeal is a rescale's repartition of drained state: the parts
// of one generation dealt to the next.
func BenchmarkDeal(b *testing.B) {
	for _, c := range []struct{ from, to int }{{2, 4}, {4, 2}} {
		b.Run(fmt.Sprintf("%dto%d", c.from, c.to), func(b *testing.B) {
			drained := benchParts(c.from)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				deal(drained, c.to)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchKeys), "ns/key")
		})
	}
}

// BenchmarkSavepointEncode is a savepoint's snapshot phase on one
// process: the parts of four instances, as a deal left them, encoded
// into the file.
func BenchmarkSavepointEncode(b *testing.B) {
	pipe := &Pipeline{ops: map[string]*OperatorSpec{"count": {Keyed: true, State: IntStateCodec{}}}}
	_, dealt := deal(benchParts(1), 4)
	states := parts[any]{"count": dealt}
	hdr := &savepointData{Workers: 1, SeqBlock: 1, Seqs: map[string][]int64{"src": {benchKeys}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := encodeSavepoint(pipe, hdr, states, encodeOpState); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchKeys), "ns/key")
}
