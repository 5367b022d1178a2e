GO ?= go
# bench pipes `go test` into benchsnap; pipefail keeps a failed
# benchmark run from being committed as a valid snapshot.
SHELL := /bin/bash -o pipefail

.PHONY: build test race bench bench-test bench-smoke bench-gate vet live-smoke dist-smoke savepoint-smoke profile-live

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: vet
	$(GO) test ./...

# The scaling service and metrics repository are concurrent; run the
# whole tree under the race detector.
race:
	$(GO) test -race ./...

# Run the benchmark suite and append a BENCH_<n>.json snapshot (date,
# go version, ns/op, allocs/op, custom metrics) — the repo's perf
# trajectory. Committed snapshots are the baselines perf PRs are
# judged against. Override the target file with BENCH_OUT=path.
BENCH_OUT ?=
bench:
	$(GO) test -run XXX -bench . -benchmem . | $(GO) run ./cmd/benchsnap $(if $(BENCH_OUT),-out $(BENCH_OUT))

# benchmarks/ is a nested module: `go build ./... && go test ./...`
# from the root never compiles it, so a change to the API it imports
# breaks it unseen. Build it and run all six workloads' oracles at 1/50
# scale (~22 s).
bench-test:
	cd benchmarks && $(GO) test ./...

# One iteration of every benchmark — the CI guard that keeps the
# bench suite compiling and running without paying full measurement
# time — diffed against the latest committed BENCH_<n>.json so
# throughput regressions surface in the job log (1x timings are noisy:
# the deltas are a tripwire, not a gate).
bench-smoke:
	$(GO) test -run XXX -bench . -benchtime 1x -benchmem . | \
		$(GO) run ./cmd/benchsnap -compare "$$(ls BENCH_*.json | sort -t_ -k2 -n | tail -1)"

# Full-measurement regression gate on the live hot path: rerun the
# live Nexmark benchmarks at real benchtime and fail if ns/op grew
# more than 5% over the latest committed snapshot. This is the check
# perf-sensitive PRs (and the observability exporter) are held to;
# bench-smoke's 1x run never trips it (-regress-min-iters exempts
# single-iteration timings). Override the bar with REGRESS_PCT=n.
REGRESS_PCT ?= 5
bench-gate:
	$(GO) test -run XXX -bench 'BenchmarkLive' -benchmem . | \
		$(GO) run ./cmd/benchsnap -compare "$$(ls BENCH_*.json | sort -t_ -k2 -n | tail -1)" \
			-regress $(REGRESS_PCT) -regress-match 'BenchmarkLive'

# Profile the live hot path from a flag, not a code edit: run a
# ds2-live workload with CPU, heap, and mutex-contention profiles
# enabled. Inspect with `go tool pprof <binary|.> $(PROFILE_DIR)/cpu.out`.
# Override the workload/flags with PROFILE_ARGS.
PROFILE_DIR ?= /tmp/ds2-profiles
PROFILE_ARGS ?= -workload q1
profile-live:
	mkdir -p $(PROFILE_DIR)
	$(GO) run ./cmd/ds2-live $(PROFILE_ARGS) \
		-cpuprofile $(PROFILE_DIR)/cpu.out \
		-memprofile $(PROFILE_DIR)/mem.out \
		-mutexprofile $(PROFILE_DIR)/mutex.out
	@echo "profiles written: $(PROFILE_DIR)/{cpu,mem,mutex}.out"

# End-to-end liveness gate: boot a ds2d scaling server plus a live
# streamrt job in one process, drive the ingestion/poll/ack cycle over
# real HTTP loopback for a few wall-clock policy intervals, and
# require that a scale decision was applied and acked. Runs twice: the
# word count, then the windowed Nexmark Q5 (sliding hot-items window —
# live window state crosses a real rescale). ~6 s total. Each run also
# self-scrapes /metrics and requires valid Prometheus exposition
# covering the HTTP, decision, and per-operator telemetry families.
SMOKE_FAMILIES := ds2d_http_requests_total,ds2d_decisions_total,ds2d_reports_total,streamrt_time_fraction,streamrt_operator_instances,streamrt_true_rate,streamrt_batch_flushes_total,streamrt_record_latency_seconds
live-smoke:
	$(GO) run ./cmd/ds2-live -serve-inproc -require-decision -require-metrics $(SMOKE_FAMILIES)
	$(GO) run ./cmd/ds2-live -serve-inproc -require-decision -workload q5 -require-metrics $(SMOKE_FAMILIES)

# Distributed liveness gate: the windowed Nexmark Q5 deployed over two
# worker processes (re-exec'd by ds2-live) plus an in-process ds2d,
# the decision loop driven over HTTP and the dataflow over the framed
# loopback-TCP exchange. Requires DS2's scale-up decision to be
# applied as a cross-process rescale (keyed window state migrates
# between workers) and the /metrics self-scrape to serve the per-link
# transport families alongside the service's. ~4 s.
DIST_FAMILIES := ds2d_http_requests_total,ds2d_decisions_total,ds2d_reports_total,streamrt_link_bytes_total,streamrt_link_frames_total,streamrt_link_stalls_total,streamrt_rescale_phase_seconds,streamrt_rescale_downtime_seconds
DIST_WORKER_FAMILIES := streamrt_link_frames_total,streamrt_operator_instances,streamrt_time_fraction
dist-smoke:
	$(GO) run ./cmd/ds2-live -workload q5 -workers 2 -serve-inproc -require-decision -require-metrics $(DIST_FAMILIES) -require-worker-metrics $(DIST_WORKER_FAMILIES) -require-rescale-trace

# Durable-savepoint gate: run the windowed Nexmark Q5 attached to an
# in-process ds2d, have the service request a savepoint mid-stream
# (POST /jobs/{id}/savepoint riding the poll cycle), and require it
# settled durably on disk plus the savepoint-latency histogram on
# /metrics. Then boot a second run from that savepoint file
# (-restore-from) and require DS2 still converges to an applied scale
# decision — the restored job is a first-class citizen of the control
# loop, not just a state dump. ~7 s.
SAVEPOINT_DIR ?= /tmp/ds2-savepoint-smoke
savepoint-smoke:
	rm -rf $(SAVEPOINT_DIR)
	$(GO) run ./cmd/ds2-live -workload q5 -serve-inproc -savepoint-dir $(SAVEPOINT_DIR) -require-savepoint -require-metrics streamrt_savepoint_seconds
	$(GO) run ./cmd/ds2-live -workload q5 -serve-inproc -restore-from $(SAVEPOINT_DIR)/savepoint-1 -require-decision
