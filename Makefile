# Repo checks. `make check` is the full gate: vet + build + tests plus the
# race detector over the concurrency-heavy packages (live transport, the
# network simulator, telemetry, the playout scheduler, the wire codecs and
# buffer pooling of the media path, and both control-plane endpoints —
# internal/server includes a connect/disconnect churn stress that drives
# the sharded session state, dedup rings and timer wheels from concurrent
# goroutines, and a shared-flow churn stress that hammers the flow
# registry's join/split/pause/reload surface while the flows pump); the
# allocation regression tests in internal/server ride along in `test`.
# `make chaos` runs the fault-injection suite on its own, with the pinned
# seed and the race detector. `make bench-dataplane` measures the server
# media data plane (with -benchmem allocation reporting) and writes
# BENCH_dataplane.json, including the shared-flow fan-out sweep (encodes
# flat across 1→64 viewers of one hot document while deliveries scale). `make bench-controlplane` measures session
# establishment under duplicate-fire connect storms, heartbeat throughput
# and the timer-wheel sweep cost at 1k/10k/100k resident sessions, writes
# BENCH_controlplane.json, and fails if the per-tick sweep cost is not
# sublinear in resident sessions (the gate lives in
# internal/experiments/ctrlbench.go). `make bench-cluster` runs the
# federated-cluster load/chaos harness (flash-crowd redirects, signed
# cross-server handoffs, a mid-lesson shard kill) and writes
# BENCH_cluster.json, failing unless every session on the killed server
# recovers onto a replica. `make bench-verify` re-validates the
# committed BENCH_*.json artifacts against their schemas and gates (paced
# lock/alloc invariants, span-overhead ceiling, sweep sublinearity, the
# cluster zero-lost-sessions invariant) without re-running the benchmarks,
# so `make check` catches a stale or hand-mangled artifact
# deterministically. `make bench-check` vets and tests the end-to-end
# benchmark under bench/, a module of its own that `./...` does not reach, so
# an exported-API change that breaks its build fails here (<1 s).

GO ?= go

.PHONY: check vet build test race chaos bench-dataplane bench-controlplane bench-cluster bench-netsim bench-verify bench-check

check: vet build test race bench-verify bench-check

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/clock/... ./internal/transport/... ./internal/netsim/... ./internal/obs/... ./internal/playout/... ./internal/client/... ./internal/server/... ./internal/media/... ./internal/rtp/... ./internal/cluster/...

chaos:
	$(GO) test -race -count=1 ./internal/chaos/...

bench-dataplane:
	$(GO) test -bench BenchmarkDataPlane -benchmem -run '^$$' ./internal/server/
	$(GO) run ./cmd/experiments -dataplane BENCH_dataplane.json

bench-controlplane:
	$(GO) test -bench BenchmarkControlPlane -benchmem -benchtime 1x -run '^$$' ./internal/server/
	$(GO) run ./cmd/experiments -controlplane BENCH_controlplane.json

bench-cluster:
	$(GO) run ./cmd/experiments -cluster BENCH_cluster.json

bench-netsim:
	$(GO) test -bench BenchmarkVirtualRun -benchmem -run '^$$' ./internal/clock/
	$(GO) run ./cmd/experiments -netsim BENCH_netsim.json

bench-verify:
	$(GO) run ./cmd/experiments -verify-bench .

bench-check:
	$(GO) vet -C bench ./... && $(GO) test -C bench ./...
