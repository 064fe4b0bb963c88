# Convenience targets; everything is plain `go` underneath.

GO ?= go
FUZZTIME ?= 10s
BENCHTIME ?= 1x

.PHONY: all test race fuzz vet bench bench-diff experiments chaos govern domains heal observe revive examples cover clean

all: test

test:
	$(GO) build ./... && $(GO) vet ./... && $(GO) test ./...

# The experiment harnesses fan replications out across goroutines
# (internal/runner); the race detector is part of the default verify
# path so a data race in that layer can never land silently.
race:
	$(GO) test -race ./...

# Short fuzz smoke over the committed corpora (internal/*/testdata/fuzz).
# `go test` only fuzzes one target per invocation, so run them in turn.
fuzz:
	$(GO) test ./internal/core -run='^$$' -fuzz=FuzzSchedulerInvariants -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core -run='^$$' -fuzz=FuzzDeterminism -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core -run='^$$' -fuzz=FuzzChaosInvariants -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core -run='^$$' -fuzz=FuzzGovernorInvariants -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core -run='^$$' -fuzz=FuzzDomainInvariants -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core -run='^$$' -fuzz=FuzzRecoveryInvariants -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core -run='^$$' -fuzz=FuzzRegistryMatchesOracle -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/telemetry/blame -run='^$$' -fuzz=FuzzBlameInvariants -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/telemetry/blame -run='^$$' -fuzz=FuzzHTMLMatchesOracle -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/telemetry/blame -run='^$$' -fuzz=FuzzAppendFixedMatchesStrconv -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/telemetry/trace -run='^$$' -fuzz=FuzzChromeMatchesOracle -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/persist -run='^$$' -fuzz=FuzzJournalDecode -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/persist -run='^$$' -fuzz=FuzzSnapshotRoundTrip -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/machine -run='^$$' -fuzz=FuzzMachineIncremental -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/cache -run='^$$' -fuzz=FuzzCacheMatchesOracle -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/profiler -run='^$$' -fuzz=FuzzWindowsMatchesOracle -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/memtrace -run='^$$' -fuzz=FuzzPhasedStreamMatchesOracle -fuzztime=$(FUZZTIME)

# Full benchmark sweep, converted by scripts/benchjson into the
# machine-readable BENCH_10.json artifact (and schema-checked). Raise
# BENCHTIME (e.g. BENCHTIME=1s) for stable numbers; the default 1x
# keeps the target fast enough for CI.
bench:
	$(GO) test -run='^$$' -bench=. -benchmem -benchtime=$(BENCHTIME) ./... > /tmp/rda-bench.txt
	cat /tmp/rda-bench.txt
	$(GO) run ./scripts/benchjson -o BENCH_10.json < /tmp/rda-bench.txt
	$(GO) run ./scripts/benchjson -check BENCH_10.json

# Regression gate: rerun the sweep and compare ns/op against the
# committed BENCH_8.json baseline; exits non-zero past a 10% slowdown
# on any shared benchmark. 1x benchtime numbers are noisy — use
# BENCHTIME=1s before trusting a failure.
bench-diff: bench
	$(GO) run ./scripts/benchjson -diff BENCH_8.json BENCH_10.json

experiments:
	$(GO) run ./cmd/experiments -all

# E4: fault-injected admission (quick, shape-preserving scale).
chaos:
	$(GO) run ./cmd/experiments -experiment e4 -scale 0.2

# E5: adaptive admission governor vs static policies under overload.
govern:
	$(GO) run ./cmd/experiments -experiment e5 -scale 0.2

# E6: multi-domain demand-aware placement vs one global domain.
domains:
	$(GO) run ./cmd/experiments -experiment e6 -scale 0.2

# E7: domain failure injection — governed evacuation vs stall/drop.
heal:
	$(GO) run ./cmd/experiments -experiment e7 -scale 0.2

# E8: causal wait attribution — blame matrix, critical path, SLO burn
# rate — plus one self-contained HTML report per policy, validated.
observe:
	$(GO) run ./cmd/experiments -experiment e8 -scale 0.2 -obs-dir /tmp/rda-obs
	$(GO) run ./scripts/jsoncheck /tmp/rda-obs/*.html

# E9: crash-restart revival — kill, restore from journal+snapshot,
# resume byte-identical to the unkilled run.
revive:
	$(GO) run ./cmd/experiments -experiment e9 -scale 0.2

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/blasmix
	$(GO) run ./examples/splash
	$(GO) run ./examples/profiler
	$(GO) run ./examples/partition

cover:
	$(GO) test -cover ./...

clean:
	$(GO) clean ./...
