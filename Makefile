GO ?= go

.PHONY: check fmt vet build test race fuzz bench-check digests size ledger

# The full gate: everything below except size and ledger.
check: fmt vet build test race fuzz bench-check digests

# Fails, listing the files, when anything is not gofmt-clean, and fails when gofmt itself does (a file that does not parse, a missing path).
fmt:
	@out=$$(gofmt -l cmd internal examples bench) || { echo "gofmt -l failed"; exit 1; }; test -z "$$out" || { echo "gofmt -l:"; echo "$$out"; exit 1; }

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# Includes the allocation regression tests in internal/server. Shuffled, so a test that leans on another's leftovers fails here.
test:
	$(GO) test -shuffle=on ./...

# Race detector over the concurrent packages: simulator, transport, telemetry and its metric instruments, the control codec's pool, the user database every server of a cluster shares, both endpoints and their churn stresses, the QoS monitor and grader behind their locks, the media path with its buffer pool, the determinism/cluster-replay tests in experiments, the fault-injection suite on its pinned seed, and the live binaries' bodies in internal/hermes with ./cmd/..., whose wall-clock test runs a server and a browser over sockets in one process.
race:
	$(GO) test -race ./internal/clock/... ./internal/transport/... ./internal/netsim/... ./internal/obs/... ./internal/stats/... ./internal/playout/... ./internal/protocol/... ./internal/auth/... ./internal/client/... ./internal/server/... ./internal/media/... ./internal/rtp/... ./internal/qos/... ./internal/buffer/... ./internal/cluster/... ./internal/experiments/... ./internal/chaos/... ./internal/hermes/... ./cmd/...

# The fuzz smoke: 10 s of each Fuzz target, one line per target (go test fuzzes one target per run), with minimizing a new input bounded at 100 runs so the budget goes to fuzzing. A crasher is written under the package's testdata/fuzz and committed, so plain go test replays it from then on.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshal$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/rtp/
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalControl$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/rtp/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBody$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/protocol/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeReq$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/protocol/
	$(GO) test -run '^$$' -fuzz '^FuzzTicketVerify$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/protocol/
	$(GO) test -run '^$$' -fuzz '^FuzzSchedulerOrder$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/clock/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/transport/
	$(GO) test -run '^$$' -fuzz '^FuzzParseFrameHeader$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/media/
	$(GO) test -run '^$$' -fuzz '^FuzzPayloadWriter$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/media/
	$(GO) test -run '^$$' -fuzz '^FuzzHMLRoundTrip$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/hml/
	$(GO) test -run '^$$' -fuzz '^FuzzLogRoundTrip$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/obs/
	$(GO) test -run '^$$' -fuzz '^FuzzClientMedia$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/client/
	$(GO) test -run '^$$' -fuzz '^FuzzLinkPlan$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/netsim/

# Vets and tests the end-to-end benchmark under bench/, a module of its own that ./... does not reach.
bench-check:
	$(GO) vet -C bench ./... && $(GO) test -C bench ./...

# The replay check: every workload's seed-1 sim_digest, which no refactor may move. A PR that changes event order on purpose edits this list and says why. About 30 s on a 2-core host.
DIGESTS = lecture_private=22a0c99ebb3f4597 lecture_shared=238c2b692a0fdb16 connect_storm=68ee81c0d7abfeb8 flash_failover=c4f6257d21043f20
digests:
	@for wd in $(DIGESTS); do w=$${wd%=*}; d=$${wd#*=}; \
		out=$$(bash bench/run.sh --workload $$w --seed 1 --seconds 1 --trace 0) || { echo "$$out"; exit 1; }; \
		echo "$$out" | grep -q "sim_digest $$d identical in all" || { echo "$$w: want sim_digest $$d identical in all, got:"; echo "$$out" | grep digest; exit 1; }; \
		echo "$$w: sim_digest $$d identical in all"; \
	done

# Rewrites the byte ledger (TestByteLedger's four worlds, by owner) and prints how much of it moved; a PR that claims bytes shows its claim as this diff. It rewrites a pinned file, so it is not part of check.
ledger:
	$(GO) test ./internal/core -run TestByteLedger -count=1 -update
	@git diff --stat -- internal/core/testdata/ledger.txt

# The three sizes every ROADMAP re-anchor quotes: non-test Go lines outside bench/, test lines, lines under bench/.
OUTSIDE_BENCH = -not -path './bench/*' -not -path './.bench_build/*'
size:
	@printf 'non-test Go lines outside bench/: '; find . -name '*.go' -not -name '*_test.go' $(OUTSIDE_BENCH) | xargs cat | wc -l
	@printf 'test lines outside bench/:        '; find . -name '*_test.go' $(OUTSIDE_BENCH) | xargs cat | wc -l
	@printf 'lines under bench/:               '; find bench -name '*.go' | xargs cat | wc -l
