GO ?= go

# Pinned external linters, run through `go run` so no tool binaries are
# vendored; bumping a version is a one-line diff. Both need the network
# on first run, so lint-extra skips them (loudly) when the module proxy
# is unreachable — offline dev boxes still get the analyzer wall, CI gets
# all three.
STATICCHECK_VERSION ?= honnef.co/go/tools/cmd/staticcheck@2025.1.1
GOVULNCHECK_VERSION ?= golang.org/x/vuln/cmd/govulncheck@v1.1.4

.PHONY: all build loc test race fuzz chaos vet fmt lint lint-wall lint-extra ci ci-test bench bench-go bench-go-smoke bench-smoke

all: build

build:
	$(GO) build ./...

# loc prints the non-test Go line count under internal/ + cmd/: the figure
# ROADMAP's deletion ledger and every CHANGES.md entry quote.
loc:
	@find internal cmd -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l | tr -d ' '

test:
	$(GO) test ./...

# race is CI's race job: the whole suite once, then the three packages whose
# concurrency is the sweep lifecycle — Run's wait racing a landing, a Cancel
# or a Close, and a client hanging up on a running /v1/runs (the CLI's tests
# hang up on a real coordinator) — the session gate's tests, whose units
# wait on and hand over slots across goroutines, and the unit-state reuse
# test (TestReusedUnitMatchesFresh), whose concurrent units take and keep
# the session's kept states, and the dispatcher's, whose
# model races a hedge's backend call against its primary's and lands probe
# verdicts on their own goroutines, five times more.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=5 ./internal/sim/sweep ./cmd/simd ./cmd/rebalance-bench
	$(GO) test -race -count=5 -run 'Gate|TestReusedUnitMatchesFresh' ./internal/sim
	$(GO) test -race -count=5 ./internal/sim/dispatch

# fuzz runs the wire- and disk-surface fuzzers and the eight differentials
# — the one-pass shard record decode against the two-level one it replaced
# (FuzzDecodeShard), the record scanner against StrictUnmarshal of the old
# wire structs (FuzzDecodeRecord), the appended sc2-/tr1- keys against json.Marshal's
# (FuzzShardCacheKey), the lane consumers against their per-instruction
# models, (in FuzzDecodeDeliver) the trr1 lane decoder against its
# instruction model, TAGE and Tournament over random geometries against
# their reference models (FuzzTAGEMatchesReference,
# FuzzTournamentMatchesReference), and TAGE's AVX2 stage against its Go
# stage and the reference folds and hashes (FuzzTAGEStage) — for a short
# budget (CI's fuzz job runs this target, so a new fuzzer is added here
# only); FUZZTIME=5m for a longer local session.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/sim -run '^$$' -fuzz '^FuzzDecodeSpec$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim -run '^$$' -fuzz '^FuzzDecodeShardResult$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim -run '^$$' -fuzz '^FuzzDecodeShard$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim -run '^$$' -fuzz '^FuzzDecodeRecord$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim -run '^$$' -fuzz '^FuzzShardCacheKey$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim/dispatch -run '^$$' -fuzz '^FuzzDecodeAnswer$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim -run '^$$' -fuzz '^FuzzLaneMatchesPerInstruction$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tiercache -run '^$$' -fuzz '^FuzzDiskEntryCorruption$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim/shardcache -run '^$$' -fuzz '^FuzzDiskEntryCorruption$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace/replay -run '^$$' -fuzz '^FuzzTraceDiskCorruption$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace/replay -run '^$$' -fuzz '^FuzzDecodeDeliver$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/bpred -run '^$$' -fuzz '^FuzzTAGEMatchesReference$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/bpred -run '^$$' -fuzz '^FuzzTournamentMatchesReference$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/bpred -run '^$$' -fuzz '^FuzzTAGEStage$$' -fuzztime $(FUZZTIME)

# chaos runs the seeded fault-injection soak suite race-instrumented: the
# golden grid through a 3-backend dispatcher under transient faults must
# be bit-identical to the committed golden, a poisoned grid under
# -allow-partial must degrade to exactly the expected survivors, and a
# corrupted disk tier of the dispatching session's result cache must heal
# by recompute. Deterministic by construction — a failure is a bug, not
# noise. None of these tests has a skip gate, so CI's race job (make race)
# already runs them; this target is the shortcut to run them alone.
chaos:
	$(GO) test -race -v -run '^TestSoak' ./internal/sim/dispatch/chaos
	$(GO) test -race -run 'TestWall|Corrupt' ./internal/tiercache ./internal/sim/dispatch/chaos

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# lint is the static-analysis wall (DESIGN.md "Static-analysis wall"):
# the in-repo analyzer suite plus pinned staticcheck and govulncheck.
# Any diagnostic fails the target.
lint: lint-wall lint-extra

# The repo's own analyzers (internal/lint/checks) have one driver, a
# tier-1 test: `make test` already runs it, this target runs it alone.
lint-wall:
	$(GO) test -run '^TestRepoClean$$' ./internal/lint/checks

lint-extra:
	@for tool in "$(STATICCHECK_VERSION)" "$(GOVULNCHECK_VERSION)"; do \
		echo "$(GO) run $$tool ./..."; \
		out=$$($(GO) run $$tool ./... 2>&1); code=$$?; \
		if [ $$code -ne 0 ]; then \
			if echo "$$out" | grep -qiE 'no such host|dial tcp|connection refused|i/o timeout|network is unreachable|proxyconnect|tls handshake timeout|server misbehaving'; then \
				echo "SKIP $$tool: module proxy unreachable (offline); run with network to enforce"; \
			else \
				echo "$$out"; exit 1; \
			fi; \
		elif [ -n "$$out" ]; then \
			echo "$$out"; \
		fi; \
	done

# ci-test is the workflow's test job, the one list of its steps: gofmt,
# vet and build; the non-amd64 fallback compiles (TAGE's Go stage without
# the AVX2 kernel; on amd64, vet's asmdecl checks the kernel); the suite
# on a 32-bit host (a request's geometry and a record's int fields must be
# refused, not wrapped, past 32 bits; 386 runs natively on an x86-64 host,
# and elsewhere vet type-checks the suite for it instead); the
# non-test line count ROADMAP's deletion ledger quotes; the grid path, the
# fleet and the CLI on one P (a grid-wide lead set, a dispatcher-only
# in-flight bound, cmd/simd's TestFleet and the CLI hanging up on a running
# sweep need no second P to make progress); the full suite twice in one
# process (no test may leave process-global state behind); every Go
# micro-benchmark once; and the bench harness smoke.
ci-test: fmt vet build
	GOARCH=arm64 $(GO) vet ./... && GOARCH=arm64 $(GO) build ./...
	if [ "$$($(GO) env GOHOSTARCH)" = amd64 ]; then GOARCH=386 $(GO) test ./...; \
	else GOARCH=386 $(GO) vet ./...; fi
	@$(MAKE) --no-print-directory loc
	GOMAXPROCS=1 $(GO) test ./internal/sim/... ./cmd/simd ./cmd/rebalance-bench
	$(GO) test -count=2 ./...
	@$(MAKE) --no-print-directory bench-go-smoke bench-smoke

# ci runs what the workflow's test and lint jobs run, so a local pass means
# a CI pass. The suite runs the analyzer wall, so ci adds only the external
# linters to the test job.
ci: ci-test lint-extra

# bench runs the repository benchmark declared in BENCHMARK.json: the
# bench/ harness's five sweep workloads, end to end and layer by layer.
# bench-go prints the Go micro-benchmarks for the hot paths; bench-go-smoke
# runs each for one iteration (seconds in all), so CI notices one that no
# longer builds or fails — the numbers of a single iteration mean nothing.
bench:
	$(GO) run ./bench

bench-go:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/...

bench-go-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/...

# bench-smoke runs the real harness for a second per workload: every
# sweep's report digest is checked against bench/golden.json at the
# default seed, so a plan, fusion or lane-consumer bug that moves a
# simulated counter — or, on mixed9-replay-cold, a record -> deliver round
# trip that changes one instruction — fails here, not only in a local
# bench run. mixed9-replay-warm is the workload whose nine observers all
# ride one scanned lane per batch; mixed9-cached-rerun serves every shard
# from a warm memory tier (key, decoded record, copied artifact);
# coord-dispatch-small is the one workload whose counters cross the wire
# and the coordinator. The last stdout line of a run is its summary, which
# must say correct, no failed shard and at least one attempted.
bench-smoke:
	@for w in fig5-generate mixed9-replay-warm mixed9-replay-cold mixed9-cached-rerun coord-dispatch-small; do \
		out=$$($(GO) run ./bench -workload $$w -seconds 1) || exit 1; \
		echo "$$out" | tail -n 1 | python3 -c 'import json, sys; s = json.load(sys.stdin); \
assert s["correct"] is True, s; assert s["failed"] == 0 and s["attempted"] > 0, s; \
print("bench harness smoke ok:", sys.argv[1], s["attempted"], "shards, digests match")' $$w || exit 1; \
	done
