GO ?= go

.PHONY: build test race alloc-pins fuzz-smoke bench-test bench-smoke bench-pairs vet loc live-smoke dist-smoke savepoint-smoke profile-live

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

# The live record path's 0-allocs/record pins (internal/nexmark), the
# paced source's per-sleep one and the savepoint decoder's one-per-key
# one (internal/streamrt) skip themselves under -race (the detector
# allocates), so `make race` never runs them; this does.
alloc-pins:
	$(GO) test -run 'AllocFree|DecodeAllocs' ./internal/streamrt ./internal/nexmark

# Ten seconds of fuzzing each for the two decoders of outside bytes:
# transport frames and savepoint files. `go test` alone runs only their
# seed corpora.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzFrameDecode$$' -fuzztime 10s ./internal/streamrt
	$(GO) test -run '^$$' -fuzz '^FuzzSavepointDecode$$' -fuzztime 10s ./internal/streamrt

# benchmarks/ is a nested module: `go build ./... && go test ./...`
# and `go vet ./...` from the root never compile it, so a change to the
# API it imports breaks it unseen. Vet it, build it and run all six
# workloads' oracles at 1/50 scale (~22 s). The numbers themselves come
# from benchmarks/run.sh; `ds2bench --compare` is the regression gate.
bench-test:
	cd benchmarks && $(GO) vet ./... && $(GO) test ./...

# One iteration of every paper-figure and micro benchmark in
# bench_test.go, and of the reconfiguration path's per-layer benchmarks
# in internal/streamrt (deal, savepoint encode; ns/key) — the CI guard
# that keeps them compiling and running without paying full
# measurement time.
bench-smoke:
	$(GO) test -run XXX -bench . -benchtime 1x -benchmem .
	$(GO) test -run XXX -bench 'Deal|SavepointEncode' -benchtime 1x ./internal/streamrt

# The numbers a PR that touches performance reports: N alternating pairs
# of `benchmarks/run.sh --workload $(W)` runs, a clone of BASE against
# this checkout (see cmd/bench-pairs), e.g.
#   make bench-pairs BASE=2bc7fe7 W=reconfig-200k N=10 SEEDS="11 12 13"
# The clone, its build cache and every result file go to PAIRS_DIR;
# nothing under benchmarks/ is written.
N ?= 10
PAIRS_DIR ?= /tmp/ds2-bench-pairs
bench-pairs:
	$(GO) run ./cmd/bench-pairs -base "$(BASE)" -workload "$(W)" -n $(N) -seeds "$(SEEDS)" -dir "$(PAIRS_DIR)"

# The line counts a PR reports: Go lines outside benchmarks/, non-test
# and test, of every file git tracks or would add. With BASE=<commit>
# also what changed since then, `git diff --numstat` summed the same way
# (stage new files first — an untracked file is in no diff).
loc:
	@git ls-files -co --exclude-standard --deduplicate '*.go' ':!benchmarks' | awk '\
		{ n = 0; while ((getline line < $$0) > 0) n++; close($$0); \
		  if ($$0 ~ /_test\.go$$/) test += n; else code += n } \
		END { printf "go lines outside benchmarks/: non-test %d, test %d\n", code, test }'
ifdef BASE
	@git diff --numstat $(BASE) -- '*.go' ':!benchmarks' | awk '\
		$$3 ~ /_test\.go$$/ { ta += $$1; tr += $$2; next } { ca += $$1; cr += $$2 } \
		END { printf "since $(BASE): non-test +%d -%d = %+d, test +%d -%d = %+d\n", ca, cr, ca - cr, ta, tr, ta - tr }'
endif

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
