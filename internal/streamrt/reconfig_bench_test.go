package streamrt

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"ds2/internal/dataflow"
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

// BenchmarkCut is a rescale's repartition of keyed state: the group maps
// of from instances collected as a drain does, and cut for to instances
// as a deploy does.
func BenchmarkCut(b *testing.B) {
	pipe := &Pipeline{ops: map[string]*OperatorSpec{"count": {Keyed: true}}}
	for _, c := range []struct{ from, to int }{{2, 4}, {4, 2}} {
		b.Run(fmt.Sprintf("%dto%d", c.from, c.to), func(b *testing.B) {
			all := groupsOf(benchParts(1)...)
			r := cut(all, c.from)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				groups := make([]map[string]any, keyGroups)
				for inst := 0; inst < c.from; inst++ {
					copy(groups[r.bounds[inst]:], all[r.bounds[inst]:r.bounds[inst+1]])
				}
				dealAll(pipe, parts[any]{"count": groups}, dataflow.Parallelism{"count": c.to})
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchKeys), "ns/key")
		})
	}
}

// BenchmarkSavepointEncode is a savepoint's snapshot phase on one
// process: the group maps of benchKeys keys encoded into the file.
func BenchmarkSavepointEncode(b *testing.B) {
	pipe := &Pipeline{ops: map[string]*OperatorSpec{"count": {Keyed: true, State: IntStateCodec{}}}}
	states := parts[any]{"count": groupsOf(benchParts(1)...)}
	hdr := &savepointData{Workers: 1, SeqBlock: 1, Seqs: map[string][]int64{"src": {benchKeys}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := encodeSavepoint(pipe, hdr, states, appendOpState); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchKeys), "ns/key")
}

// BenchmarkKeyedStep is the price of the state access on the keyed record
// path: records' step over batches of 256 records whose keys are drawn at
// random from nkeys keys that all hold state already, one instance owning
// every group. Process returns the state it is given, so the step
// allocates nothing and what is timed is the lookup and the store.
func BenchmarkKeyedStep(b *testing.B) {
	one := any(1)
	spec := &OperatorSpec{Keyed: true, Process: func(state any, _ string, _ any, _ Emit) any {
		if state == nil {
			return one
		}
		return state
	}}
	emit := Emit(func(string, any) {})
	for _, nkeys := range []int{100, 20_000, 200_000} {
		b.Run(fmt.Sprintf("keys=%d", nkeys), func(b *testing.B) {
			in := &instance{spec: spec, groups: make([]map[string]any, keyGroups)}
			keys := make([]string, nkeys)
			fill := &batch{}
			for k := range keys {
				keys[k] = fmt.Sprintf("key-%07d", k)
				fill.msgs = append(fill.msgs, message{key: keys[k]})
			}
			in.records(fill, nil, emit)
			rng := rand.New(rand.NewSource(1))
			batches := make([]*batch, 256)
			for i := range batches {
				batches[i] = &batch{msgs: make([]message, 256)}
				for j := range batches[i].msgs {
					batches[i].msgs[j].key = keys[rng.Intn(nkeys)]
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				in.records(batches[i%len(batches)], nil, emit)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(batches[0].msgs)), "ns/record")
		})
	}
}

// BenchmarkCoordinatorShares is the coordinator's part of a remote
// rescale, from bytes to bytes: two workers' drain replies, benchKeys
// keys of encoded state over from instances, to the two DEPLOY requests
// for to instances.
func BenchmarkCoordinatorShares(b *testing.B) {
	pipe := &Pipeline{ops: map[string]*OperatorSpec{"count": {Keyed: true, State: IntStateCodec{}}}}
	for _, c := range []struct{ from, to int }{{2, 4}, {4, 2}} {
		b.Run(fmt.Sprintf("%dto%d", c.from, c.to), func(b *testing.B) {
			all := groupsOf(benchParts(1)...)
			shares := flatShares(all, cut(all, c.from))
			bodies := make([][]byte, 2)
			for w := range bodies {
				list := make([]map[string][]byte, c.from)
				for k, share := range shares {
					if k%2 != w {
						continue
					}
					list[k] = make(map[string][]byte, len(share))
					for key, v := range share {
						list[k][key] = IntStateCodec{}.EncodeState(v)
					}
				}
				var err error
				if bodies[w], err = json.Marshal(drainResp{States: map[string][]map[string][]byte{"count": list}}); err != nil {
					b.Fatal(err)
				}
			}
			par := dataflow.Parallelism{"count": c.to}
			assign := PlanPlacement(par, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resps := make([]drainResp, 2)
				for w := range resps {
					if err := json.Unmarshal(bodies[w], &resps[w]); err != nil {
						b.Fatal(err)
					}
				}
				routers, shares := dealAll(pipe, workerStates(pipe, resps), par)
				bounds := map[string][]int{"count": routers["count"].bounds}
				for w := 0; w < 2; w++ {
					if _, err := json.Marshal(deployReq{Bounds: bounds, Shares: hostedShares(shares, routers, assign, w)}); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchKeys), "ns/key")
		})
	}
}
