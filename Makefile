GO ?= go

# Pinned external linters, run through `go run` so no tool binaries are
# vendored; bumping a version is a one-line diff. Both need the network
# on first run, so lint-extra skips them (loudly) when the module proxy
# is unreachable — offline dev boxes still get the analyzer wall, CI gets
# all three.
STATICCHECK_VERSION ?= honnef.co/go/tools/cmd/staticcheck@2025.1.1
GOVULNCHECK_VERSION ?= golang.org/x/vuln/cmd/govulncheck@v1.1.4

.PHONY: all build loc test race fuzz chaos vet fmt lint lint-wall lint-extra ci bench bench-go bench-go-smoke

all: build

build:
	$(GO) build ./...

# loc prints the non-test Go line count under internal/ + cmd/: the figure
# ROADMAP's deletion ledger and every CHANGES.md entry quote.
loc:
	@find internal cmd -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l | tr -d ' '

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fuzz runs the wire- and disk-surface fuzzers and the seven differentials
# — the one-pass shard record decode against the two-level one it replaced
# (FuzzDecodeShard), the appended sc2-/tr1- keys against json.Marshal's
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
	$(GO) test ./internal/sim -run '^$$' -fuzz '^FuzzShardCacheKey$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim/dispatch -run '^$$' -fuzz '^FuzzDecodeAnswer$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim -run '^$$' -fuzz '^FuzzLaneMatchesPerInstruction$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tiercache -run '^$$' -fuzz '^FuzzDiskEntryCorruption$$' -fuzztime $(FUZZTIME)
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

# ci runs what the workflow's test job runs, so a local pass means a CI
# pass: the arm64 fallback (TAGE's Go stage without the AVX2 kernel), the
# grid path and the fleet on one P, and the full suite twice in one
# process. The suite runs the analyzer wall, so ci adds only the external
# linters to it.
ci: fmt vet lint-extra build bench-go-smoke
	GOARCH=arm64 $(GO) vet ./... && GOARCH=arm64 $(GO) build ./...
	GOMAXPROCS=1 $(GO) test ./internal/sim/... ./cmd/simd
	$(GO) test -count=2 ./...

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
