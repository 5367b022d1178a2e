// Package ds2 is a Go implementation of DS2 — the automatic scaling
// controller for distributed streaming dataflows from "Three steps is
// all you need: fast, accurate, automatic scaling decisions for
// distributed streaming dataflows" (Kalavri et al., OSDI 2018) — plus
// everything required to evaluate it end to end: an instrumentation
// model, a deterministic streaming-engine simulator with Flink-, Heron-
// and Timely-style execution modes, the Dhalion and queueing-theory
// baseline controllers, and the paper's benchmark workloads.
//
// # The model in one paragraph
//
// Each operator instance is instrumented to report, per observation
// window, the records it pulled and pushed and its useful time (time
// spent deserializing, processing and serializing — excluding waiting
// on input or output). Useful time yields true rates: the records an
// instance can process/produce per unit of useful time, i.e. its
// capacity, unpolluted by backpressure. Given the logical dataflow
// graph, the source rates, and per-operator aggregated true rates, one
// traversal of the graph in topological order computes the optimal
// parallelism of every operator simultaneously (Eq. 7–8 of the paper):
//
//	πᵢ = ⌈ Σ_{j→i} oⱼ[λo]* / (oᵢ[λp] / pᵢ) ⌉
//
// where oⱼ[λo]* is the output rate operator j would have if the whole
// upstream dataflow ran at its optimal parallelism. Under linear
// scaling the estimate never overshoots on the way up nor undershoots
// on the way down, so repeated application converges monotonically —
// in practice within three steps.
//
// # Quick start
//
//	g, _ := ds2.NewGraphBuilder().
//		AddOperator("source").
//		AddOperator("flatmap").
//		AddOperator("count").
//		AddEdge("source", "flatmap").
//		AddEdge("flatmap", "count").
//		Build()
//	policy, _ := ds2.NewPolicy(g, ds2.PolicyConfig{})
//	decision, _ := policy.Decide(snapshot, current, 1)
//
// where snapshot carries the per-operator true rates (see Snapshot and
// BuildSnapshot) and current is the deployed Parallelism. For an
// operational controller — policy intervals, warm-up, activation
// windows, target-rate correction, rollback — wrap the policy in a
// ScalingManager. To run closed-loop, plug a Runtime (NewSimulatorRuntime
// over a Simulator today; a real engine integration tomorrow) and an
// Autoscaler (DS2Autoscaler over the manager, or the Dhalion/queueing
// baselines) into a Controller: one NewController(...).Run() replaces
// the hand-rolled snapshot→evaluate→rescale loop and returns a
// structured Trace of every interval.
//
// # The scaling service
//
// To run the controller as the paper deploys it — an external service
// beside the engine (Fig. 5) — start the ds2d daemon and register
// jobs over HTTP instead of linking the policy into the job:
//
//	go run ./cmd/ds2d            # serves the scaling API on :7361
//
//	client := ds2.NewScalingClient("http://127.0.0.1:7361", nil)
//	id, _ := client.Register(ds2.JobSpec{
//		Operators:    []ds2.JobOperator{{Name: "source"}, {Name: "flatmap"}, {Name: "count"}},
//		Edges:        [][2]string{{"source", "flatmap"}, {"flatmap", "count"}},
//		Initial:      ds2.Parallelism{"source": 1, "flatmap": 1, "count": 1},
//		Autoscaler:   "ds2",
//		IntervalSec:  60,
//		MaxIntervals: 30,
//	})
//	// per interval: client.Report(id, ...) the instrumentation
//	// windows, client.PollAction(id, ...) for a rescale command,
//	// apply it through the engine, client.Ack(id, seq, applied).
//
// The service runs the identical Controller per job, so decisions
// match the in-process loop exactly; `go run ./examples/service`
// demonstrates the full cycle on HTTP loopback with the simulator as
// the remote job.
//
// # The live runtime
//
// Everything above can also run against a job that actually executes:
// the live dataflow runtime (goroutine per operator instance, bounded
// channels as backpressured queues, hash-partitioned keyed exchange)
// instrumented with wall-clock measurements exactly as §3 prescribes:
//
//	pipeline, _ := ds2.LiveWordCount(ds2.LiveWordCountConfig{
//		Rate1: 100, Rate2: 400, StepAt: 5, ZipfS: 1.1,
//	})
//	initial := ds2.Parallelism{"source": 1, "splitter": 1, "counter": 1}
//	job, _ := ds2.NewLiveJob(pipeline, initial, ds2.LiveJobConfig{})
//	defer job.Stop()
//
//	// In-process: the standard Controller paces on the wall clock.
//	policy, _ := ds2.NewPolicy(pipeline.Graph(), ds2.PolicyConfig{})
//	manager, _ := ds2.NewScalingManager(policy, initial, ds2.ScalingManagerConfig{})
//	ctrl, _ := ds2.NewController(ds2.NewLiveRuntime(job), ds2.DS2Autoscaler(manager),
//		ds2.ControllerConfig{Interval: 1, MaxIntervals: 10})
//	trace, _ := ctrl.Run() // rescales really drain/repartition/restart the job
//
//	// Or against ds2d, through the same ingestion/poll/ack API a
//	// simulated job uses — the server cannot tell the difference:
//	attached := ds2.AttachLiveJob(client, job, spec)
//	trace, _ = attached.Run()
//
// The Nexmark queries run live too — LiveNexmarkQuery("q5",
// ds2.LiveNexmarkConfig{...}) returns a ready workload with its
// analytic optimum. `go run ./examples/livewordcount` shows DS2
// converging on a running job in one decision; `go run
// ./examples/livenexmark` does the same for the windowed Q5 hot-items
// query; `go run ./cmd/ds2-live -serve-inproc [-workload q5]` drives
// the full live cycle against an embedded ds2d.
//
// # The distributed runtime
//
// A live pipeline can also span worker processes: operator instances
// are placed across streamrt workers and every cross-worker edge
// moves pooled batches as length-prefixed binary frames over
// persistent TCP, with credit-based backpressure per link. Start a
// fleet of workers, then deploy a cluster against their addresses:
//
//	streamrt-worker -index 0 -listen 127.0.0.1:7400 -workloads q1,q5
//	streamrt-worker -index 1 -listen 127.0.0.1:7401 -workloads q1,q5 \
//	    -register http://127.0.0.1:7361   # announce to ds2d's /workers
//
//	w, _ := ds2.LiveNexmarkQuery("q5", ds2.LiveNexmarkConfig{Distributed: true})
//	cluster, _ := ds2.NewLiveCluster(w.Pipeline, "q5", w.Initial,
//		[]string{"127.0.0.1:7400", "127.0.0.1:7401"}, ds2.LiveJobConfig{})
//	defer cluster.Close()
//
//	// A cluster is a LiveJob whose instances run on the workers, so
//	// the Controller — or a ds2d attachment — drives it unchanged;
//	// rescales drain all workers, migrate keyed state between
//	// processes over the framed transport, and restart.
//	ctrl, _ := ds2.NewController(ds2.NewLiveRuntime(cluster), autoscaler, ccfg)
//
// Every process must build the identical pipeline (same workload
// flags), and a distributed pipeline needs codecs everywhere: a value
// codec on every non-source operator and a state codec on every keyed
// one (LiveNexmarkConfig.Distributed wires these in for q1/q5). `ds2-live -workers 2 -workload q5` spawns the workers
// itself and runs the whole cycle in one command (`make dist-smoke`).
//
// See DESIGN.md for the system inventory, EXPERIMENTS.md for the
// paper-vs-measured results of every table and figure, and examples/
// for runnable programs.
package ds2
