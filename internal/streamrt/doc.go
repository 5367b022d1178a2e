// Package streamrt is an in-process streaming dataflow runtime that
// actually executes operators — the "real engine" counterpart to the
// fluid simulator in internal/engine, instrumented exactly as the
// paper's §3 prescribes with wall-clock time.Now() measurements.
//
// # Execution model
//
// A Pipeline is a logical dataflow graph whose vertices carry
// executable specs: sources generate records at a target rate,
// operators run a user function per record. A Job deploys the
// pipeline at a Parallelism: every operator instance is one goroutine
// owning one bounded channel as its input queue. Upstream instances
// push into downstream queues directly — hash-partitioned by record
// key into keyed operators, round-robin otherwise — so a full queue
// blocks the sender: backpressure is emergent, not modeled.
//
// Three roles, one type each. The Job is the only coordinator: it owns
// the deployed configuration, the observation window and the one
// reconfiguration cycle. It reaches its instances through a placement,
// of which there are two: local (NewJob — this process, channel links,
// state handed over as Go values) and remote (NewCluster — Worker
// processes over the framed TCP transport, state as StateCodec bytes).
// Either way the instances run on a host, the goroutine-per-instance
// engine; a Worker runs its share on one too, so a single-process job
// is a cluster whose only worker is local. Cluster is an alias of Job.
//
// # Building pipelines
//
// Pipelines are built with the typed builder: generic source and
// operator specs whose Process/Fire/Combine signatures the Go
// compiler checks, and whose graph the Compile step validates — edge
// type compatibility, codec completeness on Distributed pipelines,
// window/key rules — rejecting mistakes at build time with errors
// that name the offending node or edge:
//
//	tb := streamrt.NewTypedPipeline()
//	streamrt.AddTypedSource(tb, "src", streamrt.TypedSource[string]{
//		Rate: func(t float64) float64 { return 100 },
//		Next: func(seq int64) (string, string) { return "", sentence(seq) },
//	})
//	streamrt.AddTypedOperator(tb, "split", streamrt.TypedOperator[string, string, any]{
//		Process: func(_ any, _ string, v string, emit streamrt.TypedEmit[string]) any {
//			for _, w := range strings.Fields(v) {
//				emit.Emit(w, w)
//			}
//			return nil
//		},
//	})
//	streamrt.AddTypedOperator(tb, "count", streamrt.TypedOperator[string, any, int]{
//		Keyed:   true,
//		Process: func(c int, _, _ string, _ streamrt.TypedEmit[any]) int { return c + 1 },
//		State:   streamrt.IntStateCodec{},
//	})
//	p, err := tb.AddEdge("src", "split").AddEdge("split", "count").Compile()
//
// Compile lowers the typed specs onto the untyped
// SourceSpec/OperatorSpec representation that the host executes — the
// runtime and its zero-allocation exchange are untouched, and the
// untyped NewPipeline builder remains available as an escape hatch
// (joins with heterogeneous inputs use In = any the same way).
//
// # Instrumentation (§3)
//
// Each instance splits its elapsed time into the paper's four buckets
// with real clock readings taken around each activity:
//
//	waiting for input   — blocked receiving from the input channel
//	                      (sources: the rate-limiter pause)
//	deserialization     — decoding the incoming record (when the
//	                      operator declares a Codec)
//	processing          — the user function plus per-record Cost
//	serialization       — encoding outgoing records for the exchange
//	waiting for output  — blocked pushing into a full downstream queue
//
// Deserialization + processing + serialization is the useful time Wu;
// true rates are records/Wu, so a backpressured or underutilized
// instance still reports its capacity — the paper's core observation.
// Every non-source instance, windowed or not, runs one loop
// (runOperator); sources pace in their own against an absolute schedule
// (pacer) that forgives a late timer up to 2 ms and drops only what fell
// due while they were blocked on output or later than that — the
// no-backlog spout of §5.2. All book through one helper
// (bookUseful) into one record (counters) — also what the shared
// accumulator holds and what a worker ships to the coordinator.
//
// Job.Collect cuts one metrics.WindowMetrics per instance per policy
// interval via metrics.WindowFromDurations. A batch is booked when it
// completes, so time spent in one window can land in the next: useful
// time above the window is scaled down to it, never an error, and an
// excess beyond metrics.DefaultJitterTolerance is counted in
// streamrt_window_clamped_total{operator}. Negative components are
// errors — broken accounting, not lateness.
//
// # Rescaling and savepoints
//
// Job.Rescale performs the savepoint-and-restore cycle of §4.1: stop
// the sources, drain the pipeline (every exiting instance sends each
// downstream instance an end-of-stream marker behind its last batch, and
// an instance exits once it has one per upstream instance, so every
// in-flight record is processed),
// take the keyed state of every stateful instance as it lies — one map
// per instance, nothing merged — and restart fresh instances on it. In
// one process an operator whose parallelism does not change is not
// repartitioned: its instances start again on the very maps and router
// they held. Any other state changes hands once in between: keys hash
// into 1 << 15 key groups, and deal (router.go) gathers the (key, state)
// pairs into one run that cut counts into groups and cuts into one
// contiguous group range per new instance — the router, n+1 group
// bounds — putting each key into its owner's share. That is the only
// rule that assigns keys, seen or not: on the values themselves in one
// process and, for every keyed operator, since the state has travelled
// to the coordinator anyway, on their StateCodec bytes across workers,
// each of which receives the bounds and the shares of the instances it
// hosts.
// The pause pollutes the running observation window, so Rescale discards
// it, exactly like the settling EngineRuntime resets its metrics on
// restart. Source sequence counters survive the cycle, so every
// generated record is processed exactly once across rescales.
//
// Job.Savepoint is the same cycle at the current parallelism — so in
// one process it repartitions nothing — with the file built in the
// snapshot phase and a persist phase for the store write: the drained
// state and the sequence counters are encoded in one pass (keys in
// (group, key) order, each state through its StateCodec once) into a
// versioned, CRC-guarded binary blob (see checkpoint.go for the format)
// and stored under a name in a CheckpointStore (DirStore publishes
// atomically and durably via write, fsync, rename and a directory fsync,
// and leaves no temp file behind when any step fails). The job restarts
// even when the store write fails, or a StateCodec panics on the state
// it is handed. NewJobFromSavepoint and NewClusterFromSavepoint deploy a
// fresh job from such a blob, of this version or of version 1 (keys in
// key order). The decoder requires the version's order, and each
// operator's state is cut as it lies in the file — no map, no sort — and
// in one process each state is decoded straight into its owner's share. Operator parallelism may differ from the cut, the
// worker count may not (source sequences are striped per worker), and
// sources resume exactly where they stopped, so a bounded stream
// savepointed, killed, and restored produces byte-identical final state
// to an uninterrupted run.
//
// A placement failure during the cycle (or in Wait) is sticky: the
// first error is recorded, every later NextInterval, Collect, Rescale
// and Savepoint returns it, Wait returns, and Err reports it — also
// after Stop, which then returns no partial state.
//
// # Driving it
//
// Runtime (NewEngineRuntime) adapts a Job to controlloop.Runtime, so
// the standard Controller and every policy (DS2, Dhalion, queueing,
// hold) drive a live job unchanged — Advance paces on the wall clock
// instead of virtual time. service.AttachedJob drives that same
// three-method seam, so AttachEngine registers the job with a ds2d
// scaling service through the ordinary ingestion/poll/ack API: to the
// server, a live job and a simulated one are indistinguishable.
package streamrt
