# TECO reproduction — common targets.

GO ?= go

.PHONY: all build vet test test-short bench check experiments golden cover soak loc

all: build vet test

# Full verification gate: vet, race-enabled tests over the whole tree (the
# training hot loops and the sweep runner are concurrent now, so the race
# detector must see the long numeric runs too, not just -short), vet + tests
# of the benchmark module (its own go.mod, so ./... does not reach it), the
# fabric kill-one-port timing proofs, the trainer fork and planned-run
# forest tests (concurrent branches share one dataset, so the race detector
# shows nothing writes to it), short native fuzz runs over the CXL
# packet decoder, the checkpoint snapshot decoder, the result-cache entry
# decoder and the daemon's request decoding, the kernel and ADAM oracles
# (-race does not instrument their assembly, only the Go around it), the
# goldens with amd64's FMA math.Exp path switched off, a one-iteration
# smoke of the numeric and replay benchmarks, and — when the tools are
# installed — staticcheck and govulncheck (CI always runs them; locally
# they are skipped if absent).
check:
	$(GO) vet ./...
	$(GO) test -race -timeout 40m ./...
	$(GO) vet -C bench ./... && $(GO) test -C bench ./...
	$(GO) test -race -count=1 -run 'TestStepFabricKill' ./internal/core
	$(GO) test -race -count=1 -run 'TestForkMatchesFreshRun|TestForestMatchesFreshRuns' ./internal/realtrain ./internal/experiments
	$(GO) test -fuzz='FuzzDecode$$' -fuzztime=10s ./internal/cxl
	$(GO) test -fuzz='FuzzDecodeFramed$$' -fuzztime=10s ./internal/cxl
	$(GO) test -fuzz='FuzzDecodeSnapshot$$' -fuzztime=10s ./internal/checkpoint
	$(GO) test -run '^$$' -fuzz='FuzzDecodeEntry$$' -fuzztime=10s ./internal/diskcache
	$(GO) test -run '^$$' -fuzz='FuzzParseRequest$$' -fuzztime=10s ./internal/server
	$(GO) test -race -count=1 -run 'TestKernelBitIdentity|TestKernelShortOperandsPanic|TestArenaReuse|TestAdamLanesMatchScalar' ./internal/kernels ./internal/optim
	GODEBUG=cpu.fma=off $(GO) test -count=1 -run 'TestGolden$$' ./internal/conformance
	$(GO) test -run xxx -bench 'TrainStep|Kernels|AdamStep|FusedAdamScan|GlobalNorm|BaselineStep|Replay' -benchtime=1x ./internal/kernels ./internal/optim ./internal/realtrain ./internal/zero ./internal/core
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping (CI runs it)"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "govulncheck not installed; skipping (CI runs it)"; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./... 2>&1 | tee test_output.txt

test-short:
	$(GO) test -short ./...

# The repository's one benchmark (bench/, a module of its own): every
# workload once, results appended to bench/out/results.jsonl. Compare two
# sets of runs with `go run -C bench . -compare A.jsonl B.jsonl`.
bench:
	$(GO) run -C bench .

# Chaos soak: SIGKILL the real tecosimd daemon in a loop under cache fault
# injection (bit flips, truncations, short writes, transient errors) and
# verify every response against the seed-42 conformance references, then
# repeat the fabric kill-one-port timing proofs under the race detector.
# SOAK_SECS bounds the daemon half; the in-process chaos harness in
# internal/server runs unconditionally under plain `make test`.
SOAK_SECS ?= 30
soak:
	SOAK_SECS=$(SOAK_SECS) $(GO) test -count=1 -v -run 'TestDaemonChaosSoak' ./internal/server
	$(GO) test -race -count=3 -run 'TestStepFabricKill' ./internal/core

# Regenerate every paper table/figure (plus the extension experiments) as
# markdown on stdout.
experiments:
	$(GO) run ./cmd/tecosim -markdown all
	$(GO) run ./cmd/tecosim -markdown tune-act
	$(GO) run ./cmd/tecosim -markdown ablation-dpu
	$(GO) run ./cmd/tecosim -markdown time-to-loss
	$(GO) run ./cmd/tecosim -markdown linkspeed
	$(GO) run ./cmd/tecosim -markdown -degrade faults
	$(GO) run ./cmd/tecosim -markdown recovery
	$(GO) run ./cmd/tecosim -markdown fabric
	$(GO) run ./cmd/tecosim -markdown fabric-faults
	$(GO) run ./cmd/tecosim -markdown layers
	$(GO) run ./cmd/tecosim -markdown layers-policy
	$(GO) run ./cmd/tecosim -markdown tiering
	$(GO) run ./cmd/tecosim -markdown tiering-policy

# Re-pin the conformance goldens: regenerate every paper-figure table at
# the canonical seed into internal/conformance/testdata/golden, the render
# golden, and the harvested fuzz seed corpora — then verify the tree is
# self-consistent. Run after an intentional model change; CI fails when the
# checked-in tree is stale against the generators.
golden:
	$(GO) test ./internal/conformance -run 'TestGolden$$|TestRenderGolden|TestFuzzCorpus' -update
	$(GO) test ./internal/conformance

# Coverage with a floor: the suite currently sits at ~85% of statements;
# the gate fails below COVER_FLOOR so coverage can only be spent down
# deliberately (raise the floor when it rises). Writes cover.out (published
# as a CI artifact).
COVER_FLOOR ?= 83.0
cover:
	$(GO) test -coverprofile=cover.out -coverpkg=./... ./...
	@total=$$($(GO) tool cover -func=cover.out | tail -1 | awk '{gsub(/%/,"",$$NF); print $$NF}'); \
	awk -v t=$$total -v f=$(COVER_FLOOR) 'BEGIN { \
		if (t+0 < f+0) { printf "total coverage %.1f%% is below the %.1f%% floor\n", t, f; exit 1 } \
		printf "total coverage %.1f%% (floor %.1f%%)\n", t, f }'

# Go line counts per package, non-test and test lines apart, then the
# totals. The bench/ module is its own program and is left out.
loc:
	@find . -path ./bench -prune -o -name '*.go' -print | xargs wc -l | grep -v ' total$$' | \
	awk '{ d = $$2; sub(/\/[^\/]*$$/, "", d); sub(/^\.\/?/, "", d); if (d == "") d = "teco"; \
		pkgs[d] = 1; if ($$2 ~ /_test\.go$$/) { t[d] += $$1; tt += $$1 } else { s[d] += $$1; st += $$1 } } \
	END { printf "%-34s %9s %6s\n", "package", "non-test", "test"; \
		for (d in pkgs) printf "%-34s %9d %6d\n", d, s[d], t[d] | "sort"; close("sort"); \
		printf "%-34s %9d %6d\n", "total", st, tt }'
