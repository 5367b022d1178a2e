package main

import (
	"fmt"
	"strconv"
	"time"

	"ds2/internal/controlloop"
	"ds2/internal/core"
	"ds2/internal/dataflow"
	"ds2/internal/engine"
	"ds2/internal/metrics"
	"ds2/internal/nexmark"
	"ds2/internal/streamrt"
)

// perLayer is every metric a traced run can report; a traced run of one
// workload reports the rows its layers own.
var perLayer = buildPerLayer()

func buildPerLayer() []spec {
	var out []spec
	add := func(unit string, higher bool, names ...string) {
		for _, n := range names {
			out = append(out, spec{Name: n, Unit: unit, Higher: higher})
		}
	}
	const lower, higher = false, true
	add("ns", lower, "nexmark.bidgen_ns", "nexmark.bidcodec_encode_ns", "nexmark.bidcodec_decode_ns")
	add("rec/s", higher, "nexmark.q1_inline_records_per_s")
	for _, op := range []string{"src", "map", "window", "sink"} {
		p := "streamrt." + op
		add("ratio", lower, p+".deser_frac")
		add("ratio", higher, p+".proc_frac")
		add("ratio", lower, p+".ser_frac", p+".wait_in_frac", p+".wait_out_frac")
		add("count", higher, p+".records")
	}
	add("ratio", lower, "streamrt.backpressure_frac")
	add("count", lower, "streamrt.batch.flushes")
	add("rec", higher, "streamrt.batch.records_per_flush")
	add("ns", lower, "ladder.hop_ns", "ladder.hop_codec_ns", "ladder.q1_ns", "ladder.residual_ns")
	add("ratio", higher, "window.proc_frac")
	add("count", higher, "window.fired_results")
	add("count", lower, "window.residual_panes")
	add("count", higher, "window.latency_samples")
	add("B", lower, "transport.data_bytes_per_record")
	add("rec", higher, "transport.records_per_frame")
	add("count", lower, "transport.frames", "transport.stalls")
	add("B", lower, "transport.ctl_bytes")
	add("ms", lower, "service.report_rtt_ms_p50", "service.poll_rtt_ms_p50", "service.ack_rtt_ms_p50")
	add("B", lower, "service.report_bytes_p50")
	add("count", higher, "service.reports")
	add("count", lower, "service.reports_refused")
	add("us", lower, "core.decide_us_p50")
	add("count", lower, "core.decisions", "core.rescales_per_step", "core.steps_max", "core.overprovisioned_intervals")
	add("ms", lower, "streamrt.collect_ms_p50")
	add("count", lower, "core.table4_decisions", "core.table4_max_steps")
	add("count", higher, "core.one_step_cells")
	add("ms", lower, "rescale.drain_ms_p50", "rescale.snapshot_ms_p50", "rescale.restart_ms_p50",
		"rescale.first_record_ms_p50", "rescale.downtime_ms_p50", "rescale.up_call_ms_p50", "rescale.down_call_ms_p50")
	add("ms", lower, "checkpoint.save_ms_p50", "checkpoint.load_ms_p50")
	add("B", lower, "checkpoint.bytes")
	add("count", higher, "checkpoint.keys")
	add("ms", lower, "checkpoint.nonpersist_ms_p50")
	add("us", lower, "engine.sim_second_us", "controlloop.step_us")
	add("ns", lower, "metrics.record_ns")
	add("ratio", lower, "obs.exporter_overhead_frac", "trace.overhead_frac")
	add("count", higher, "trace.spans")
	add("ms", lower, "harness.calib_ms")
	return out
}

// isolated loops run this many calls at full size.
const isolatedCalls = 2e6

var sink int64 // defeats dead-code elimination of the isolated loops

// nexmarkLayer times the nexmark package's public per-record functions
// on their own, and the whole q1 job inlined on one goroutine — the
// single-threaded baseline of q1-local's flat phase.
func nexmarkLayer(r *run) {
	ph := r.phase(r.root, "nexmark-isolated")
	defer r.tr.end(ph)
	n := int64(r.scaled(isolatedCalls, 10_000))

	t0 := time.Now()
	for seq := int64(0); seq < n; seq++ {
		sink += nexmark.LiveBidAt(r.seed, seq).Price
	}
	r.layer("nexmark.bidgen_ns", float64(time.Since(t0).Nanoseconds())/float64(n))

	// Encode consumes its bid (it goes back to the package's pool) and
	// Decode hands one out, so the two are timed over alternating
	// slabs rather than one bid at a time.
	const slab = 1 << 16
	var codec nexmark.BidCodec
	var encNs, decNs time.Duration
	buf := make([]byte, 0, 64)
	bids := make([]*nexmark.Bid, slab)
	calls := int64(0)
	for calls < n {
		for i := range bids {
			b := nexmark.LiveBidAt(r.seed, calls+int64(i))
			bids[i] = &b
		}
		t0 = time.Now()
		for _, b := range bids {
			buf = codec.AppendEncode(buf[:0], b)
		}
		encNs += time.Since(t0)
		t0 = time.Now()
		for i := range bids {
			bids[i] = codec.Decode(buf).(*nexmark.Bid)
		}
		decNs += time.Since(t0)
		calls += slab
	}
	sink += bids[0].Price
	r.layer("nexmark.bidcodec_encode_ns", float64(encNs.Nanoseconds())/float64(calls))
	r.layer("nexmark.bidcodec_decode_ns", float64(decNs.Nanoseconds())/float64(calls))

	// generate → encode → decode → convert → aggregate, checked against
	// the same oracle as the live job.
	got := make(map[string]nexmark.Q1Agg)
	keys := make([]string, nexmark.LiveAuctionUniverse+1)
	for a := range keys {
		keys[a] = strconv.Itoa(a)
	}
	aggs := make([]nexmark.Q1Agg, len(keys))
	b := new(nexmark.Bid)
	t0 = time.Now()
	for seq := int64(0); seq < n; seq++ {
		*b = nexmark.LiveBidAt(r.seed, seq)
		buf = codec.AppendEncode(buf[:0], b)
		b = codec.Decode(buf).(*nexmark.Bid)
		aggs[b.Auction].Count++
		aggs[b.Auction].EuroSum += nexmark.DollarsToEuros(b.Price)
	}
	el := time.Since(t0)
	for a, agg := range aggs {
		if agg.Count > 0 {
			got[keys[a]] = agg
		}
	}
	want := nexmark.LiveExpectedQ1(nexmark.LiveQueryConfig{Seed: r.seed}, n)
	ok := len(got) == len(want)
	for k, v := range want {
		ok = ok && got[k] == v
	}
	r.op(ok, "inline q1 baseline disagrees with the oracle over %d records", n)
	r.layer("nexmark.q1_inline_records_per_s", float64(n)/el.Seconds())
}

// ladderLayer runs cumulative pipelines through the public builder:
// one exchange hop, the same hop with generated bids crossing a
// BidCodec edge, and (from the flat phase) full q1. The residual is
// what q1 costs beyond its two hops laid end to end; stages overlap on
// separate goroutines, so it is printed, never asserted.
func ladderLayer(r *run, q1RecordsPerS float64) error {
	ph := r.phase(r.root, "ladder")
	defer r.tr.end(ph)
	n := int64(r.scaled(4e6, 20_000))
	null := func(any, string, any, streamrt.Emit) any { return nil }
	rung := func(name string, src streamrt.SourceSpec, op streamrt.OperatorSpec) (float64, error) {
		src.Rate = func(float64) float64 { return 1e12 }
		src.Limit = n
		p, err := streamrt.NewPipeline().AddSource("src", src).AddOperator("sink", op).AddEdge("src", "sink").Build()
		if err != nil {
			return 0, err
		}
		sp := r.phase(ph, name)
		defer r.tr.end(sp)
		var job *streamrt.Job
		d := r.call(sp, "NewJob", func() {
			job, err = streamrt.NewJob(p, dataflow.Parallelism{"src": 1, "sink": 1},
				streamrt.Config{ChannelCapacity: 256, LatencySampleEvery: 1 << 30})
		})
		if err != nil {
			return 0, err
		}
		d += r.call(sp, "Wait", func() { job.Wait() })
		r.call(sp, "Stop", func() { job.Stop() })
		return float64(d.Nanoseconds()) / float64(n), nil
	}
	hop, err := rung("hop",
		streamrt.SourceSpec{Next: func(int64) (string, any) { return "", nil }},
		streamrt.OperatorSpec{Process: null})
	if err != nil {
		return err
	}
	seed := r.seed
	keys := make([]string, nexmark.LiveAuctionUniverse+1)
	for a := range keys {
		keys[a] = strconv.Itoa(a)
	}
	hopCodec, err := rung("hop-codec",
		streamrt.SourceSpec{Next: func(seq int64) (string, any) {
			b := new(nexmark.Bid)
			*b = nexmark.LiveBidAt(seed, seq)
			return keys[b.Auction], b
		}},
		streamrt.OperatorSpec{Process: null, Codec: nexmark.BidCodec{}})
	if err != nil {
		return err
	}
	q1 := 1e9 / q1RecordsPerS
	r.layer("ladder.hop_ns", hop)
	r.layer("ladder.hop_codec_ns", hopCodec)
	r.layer("ladder.q1_ns", q1)
	r.layer("ladder.residual_ns", q1-hop-hopCodec)
	return nil
}

// engineLayer times the simulator substrate's three inner loops, the
// same three bench_test.go has as BenchmarkSimulatorSecond,
// BenchmarkControllerInterval and BenchmarkMetricsManagerRecord.
func engineLayer(r *run) error {
	ph := r.phase(r.root, "engine-isolated")
	defer r.tr.end(ph)
	g, err := dataflow.Linear("src", "map", "sink")
	if err != nil {
		return err
	}
	initial := dataflow.Parallelism{"src": 1, "map": 8, "sink": 2}
	newSim := func(tick float64) (*engine.Engine, error) {
		return engine.New(g,
			map[string]engine.OperatorSpec{
				"map":  {CostPerRecord: 0.00005, Selectivity: 1},
				"sink": {CostPerRecord: 0.00001},
			},
			map[string]engine.SourceSpec{"src": {Rate: engine.ConstantRate(100_000)}},
			initial, engine.Config{Mode: engine.ModeFlink, Tick: tick})
	}

	sim, err := newSim(0)
	if err != nil {
		return err
	}
	secs := int(r.scaled(10_000, 200))
	var el time.Duration
	for i := 0; i < secs; i++ {
		t0 := time.Now()
		sim.Run(1)
		el += time.Since(t0)
		if (i+1)%100 == 0 {
			sim.Collect() // drain latency samples outside the timer, as a real caller does every interval
		}
	}
	r.layer("engine.sim_second_us", float64(el.Microseconds())/float64(secs))

	sim, err = newSim(0.05)
	if err != nil {
		return err
	}
	pol, err := core.NewPolicy(g, core.PolicyConfig{})
	if err != nil {
		return err
	}
	rt := controlloop.NewEngineRuntime(sim, true)
	steps := int(r.scaled(20_000, 400))
	var loop *controlloop.Controller
	el = 0
	for i := 0; i < steps; i++ {
		if i%1024 == 0 {
			// A never-firing activation window keeps every step the
			// same work; rebuilding bounds the accumulated trace.
			mgr, err := core.NewManager(pol, initial, core.ManagerConfig{ActivationIntervals: 1 << 30})
			if err != nil {
				return err
			}
			if loop, err = controlloop.New(rt, controlloop.DS2Autoscaler(mgr),
				controlloop.Config{Interval: 1, MaxIntervals: 1 << 30}); err != nil {
				return err
			}
		}
		t0 := time.Now()
		if _, err := loop.Step(); err != nil {
			return fmt.Errorf("controller step: %w", err)
		}
		el += time.Since(t0)
	}
	r.layer("controlloop.step_us", float64(el.Microseconds())/float64(steps))

	mm, err := metrics.NewManager(10)
	if err != nil {
		return err
	}
	id := metrics.InstanceID{Operator: "map", Index: 3}
	n := int(r.scaled(isolatedCalls, 10_000))
	t0 := time.Now()
	for i := 0; i < n; i++ {
		mm.Record(metrics.Event{Time: float64(i) * 1e-6, ID: id, Kind: metrics.EvRecordsProcessed, Value: 1})
	}
	r.layer("metrics.record_ns", float64(time.Since(t0).Nanoseconds())/float64(n))
	return nil
}
