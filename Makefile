# Collabnet build/test entry points. `make check` (build, vet, fmt-check,
# test) is the gate CI runs; the test suite includes a run of the
# collabserve daemon binary through ingest, SIGTERM drain + snapshot and a
# warm restart. The repo's one benchmark is `go run ./benchmark` (see
# benchmark/README.md); BENCH_1…10.json are the frozen records of an older
# ns/op regime, kept as history.
#
# CI: .github/workflows/ci.yml runs on every push/PR with a pinned Go
# toolchain and module/build caching. Job "check" runs `make check` plus a
# non-blocking coverage report (`make cover`, threshold on the hot-path
# packages); job "race-and-fuzz" runs the stress schedules and the suite
# under the race detector, vets and tests the 32-bit platform, and runs
# `make fuzz-smoke`; job "figure-smoke" renders all figures at quick scale
# through the cold and warm sweep paths and uploads the CSVs as build
# artifacts.

GO ?= go

.PHONY: build test vet fmt-check check cover fuzz-smoke race-stress \
	figure-smoke scenario-smoke clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

check: build vet fmt-check test

# cover prints a function-level coverage summary and enforces COVER_MIN% on
# the packages the voting/simulation hot path lives in. The suite runs once;
# the per-package floors are parsed from that run's "coverage: N%" lines. CI
# runs it as a non-blocking report step; run it locally before recording a
# PR.
COVER_MIN  ?= 80
COVER_PKGS ?= ./internal/articles ./internal/sim ./internal/reputation ./internal/wire
cover:
	@$(GO) test -coverprofile=cover.out ./... > cover.txt 2>&1 || { cat cover.txt; exit 1; }
	@cat cover.txt
	@$(GO) tool cover -func=cover.out | tail -1
	@fail=0; \
	for pkg in $(COVER_PKGS); do \
		name=$$($(GO) list $$pkg); \
		pct=$$(awk -v p="$$name" '$$1 == "ok" && $$2 == p' cover.txt \
			| sed -nE 's/.*coverage: ([0-9.]+)% of statements.*/\1/p'); \
		echo "$$pkg coverage: $$pct% (floor $(COVER_MIN)%)"; \
		ok=$$(awk -v p="$$pct" -v m="$(COVER_MIN)" 'BEGIN { print (p+0 >= m+0) ? 1 : 0 }'); \
		if [ "$$ok" != 1 ]; then echo "cover: $$pkg below $(COVER_MIN)%"; fail=1; fi; \
	done; \
	exit $$fail

# race-stress drives the concurrent trust store's randomized mixed
# schedules (parallel writers, lock-free readers, churn, refreshes) and the
# serving path's replay-equivalence, admission-atomicity and paced-refresh
# tests under the race detector, repeated RACE_COUNT times for
# interleaving diversity.
# The -timeout doubles as the deadlock gate: a publisher that never sees
# its spare buffer drain, or a reader stuck behind a lock that should not
# exist, turns into a test-binary panic with full goroutine dumps instead
# of a silently hung CI job.
RACE_COUNT   ?= 3
RACE_TIMEOUT ?= 300s
race-stress:
	$(GO) test -race -run 'Concurrent' -count=$(RACE_COUNT) \
		-timeout $(RACE_TIMEOUT) ./internal/reputation/ ./internal/incentive/
	$(GO) test -race -run 'E2E|Admission|Concurrent|Backpressure|Paced' -count=$(RACE_COUNT) \
		-timeout $(RACE_TIMEOUT) ./internal/serve/

# fuzz-smoke runs every fuzz target for FUZZTIME as a quick corpus-driven
# smoke (CI pairs it with -race to shake out data races in the parallel
# sweep paths). Targets are discovered by scanning test files, so new
# Fuzz* functions join the smoke automatically.
FUZZTIME ?= 20s
fuzz-smoke:
	@found=0; \
	for pkg in $$($(GO) list ./...); do \
		dir=$$($(GO) list -f '{{.Dir}}' $$pkg); \
		targets=$$(grep -hoE 'func Fuzz[A-Za-z0-9_]+' $$dir/*_test.go 2>/dev/null \
			| sed 's/^func //' | sort -u); \
		for t in $$targets; do \
			found=1; \
			echo "fuzz-smoke: $$pkg $$t ($(FUZZTIME))"; \
			$(GO) test -run '^$$' -fuzz "^$$t$$" -fuzztime=$(FUZZTIME) $$pkg || exit 1; \
		done; \
	done; \
	if [ "$$found" = 0 ]; then echo "fuzz-smoke: no fuzz targets found"; exit 1; fi

# figure-smoke renders every figure and ablation at quick scale, writing
# the CSV series under FIGURE_OUT. The cold pass (full retraining, the
# reference) covers everything; the warm pass (snapshot + burn-in chains)
# re-renders only the surfaces that actually run on the chain scheduler —
# the Figure 4-7 sweeps and the chained ablations. Figures 1-2 are
# analytic, and fig 3 / the histogram ablation are single-point experiments
# with no chain to warm, so they appear only under cold. CI uploads the
# directory as a build artifact; any rendering error fails the job, so the
# warm path cannot silently rot.
FIGURE_OUT ?= figures
figure-smoke:
	@rm -rf $(FIGURE_OUT)
	@for fig in 1 2 3 4 5 6 7; do \
		echo "figure-smoke: fig $$fig (cold)"; \
		$(GO) run ./cmd/collabsim -fig $$fig -scale quick \
			-csv $(FIGURE_OUT)/cold > /dev/null || exit 1; \
	done
	@for ab in shape temperature voting punishment scheme histogram attack; do \
		echo "figure-smoke: ablation $$ab (cold)"; \
		$(GO) run ./cmd/collabsim -ablation $$ab -scale quick \
			-csv $(FIGURE_OUT)/cold > /dev/null || exit 1; \
	done
	@for fig in 4 5 6 7; do \
		echo "figure-smoke: fig $$fig (warm)"; \
		$(GO) run ./cmd/collabsim -fig $$fig -scale quick -warm \
			-csv $(FIGURE_OUT)/warm > /dev/null || exit 1; \
	done
	@for ab in shape temperature voting punishment scheme attack; do \
		echo "figure-smoke: ablation $$ab (warm)"; \
		$(GO) run ./cmd/collabsim -ablation $$ab -scale quick -warm \
			-csv $(FIGURE_OUT)/warm > /dev/null || exit 1; \
	done
	@echo "figure-smoke: CSVs under $(FIGURE_OUT)/"

# scenario-smoke runs every built-in adversarial scenario (fixed seeds, so
# the reports are the pinned ones the scenario tests assert on) and renders
# the scheme-robustness ablation through the warm-start chain path, writing
# its CSV under FIGURE_OUT. CI runs it in the figure-smoke job; any scenario
# failure or rendering error fails the target.
scenario-smoke:
	$(GO) run ./cmd/collabsim -scenario all
	@echo "scenario-smoke: ablation attack (warm)"
	@$(GO) run ./cmd/collabsim -ablation attack -scale quick -warm \
		-csv $(FIGURE_OUT)/scenario > /dev/null
	@echo "scenario-smoke: ok"

# clean removes scratch output only; the BENCH_*.json history stays.
clean:
	rm -f cover.out cover.txt
	rm -rf figures
