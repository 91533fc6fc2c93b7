# Collabnet build/test/bench entry points. `make check` is the gate CI
# runs; `make bench` records the benchmark trajectory file BENCH_<n>.json
# (bump BENCH_N per PR to keep history), and `make bench-diff` gates the
# two newest trajectory files against each other.
#
# CI: .github/workflows/ci.yml runs on every push/PR with a pinned Go
# toolchain and module/build caching. Job "check" re-records the newest
# bench slot on CI hardware (after `bench-guard` verifies the PR committed
# one) and then runs `make check`; job "race-and-fuzz" runs the suite under
# the race detector plus `make fuzz-smoke`; job "figure-smoke" renders all
# figures at quick scale through the cold and warm sweep paths and uploads
# the CSVs as build artifacts; `make cover` reports function coverage
# (non-blocking in CI, threshold on the hot-path packages).

GO      ?= go
BENCH_N ?= 10

.PHONY: build test vet fmt-check check bench bench-diff bench-guard \
	cover fuzz-smoke race-stress figure-smoke scenario-smoke \
	serve-smoke serve-bench clean

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

check: build vet fmt-check test bench-diff

# bench runs every benchmark with allocation stats and converts the raw
# output into BENCH_$(BENCH_N).json for cross-PR comparison. BENCH_COUNT>1
# records repeated samples per benchmark; bench-diff collapses them to
# min-of-runs, which sheds scheduler noise on busy machines.
BENCH_COUNT ?= 1
bench:
	$(GO) test -run '^$$' -bench . -benchmem -count=$(BENCH_COUNT) . > bench.out
	@cat bench.out
	$(GO) run ./cmd/collabsim -benchparse bench.out -benchjson BENCH_$(BENCH_N).json

# bench-diff compares the two newest BENCH_*.json trajectory files and
# fails on a >20% ns/op regression in any benchmark they share. With fewer
# than two record files it reports and passes, so `make check` works on a
# fresh checkout before the first `make bench` of a new PR. The records
# compare wall-clock, so they are only meaningful when recorded on
# comparable hardware — the intended flow is that each PR runs
# `make bench BENCH_N=<pr>` in the same CI environment as its predecessor
# to record the current tree before `make check` gates it. bench-guard
# (below) closes the loophole where a PR that records nothing sees its
# predecessor's files silently compared instead.
bench-diff:
	@files=$$(ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n); \
	new=$$(echo "$$files" | tail -1); \
	old=$$(echo "$$files" | tail -2 | head -1); \
	if [ -z "$$new" ] || [ "$$new" = "$$old" ]; then \
		echo "bench-diff: fewer than two BENCH_*.json files, nothing to compare"; \
	else \
		$(GO) run ./cmd/collabsim -benchbase $$old -benchdiff $$new; \
	fi

# bench-guard fails when the current PR's trajectory record is missing, so
# a PR that skips `make bench BENCH_N=$(BENCH_N)` cannot slip past the
# bench-diff gate unrecorded. It also requires a record for every benchmark
# name prefix listed in bench-required.txt (one per line), so a trajectory
# that later PRs compare against cannot silently drop out of the file:
# ServeLoadgen* are merged in by `make serve-bench`, the rest come from
# `make bench`.
# CI additionally checks that a BENCH_*.json file actually changed in the
# PR's diff (the Makefile cannot know the merge base).
bench-guard:
	@if [ ! -f BENCH_$(BENCH_N).json ]; then \
		echo "bench-guard: BENCH_$(BENCH_N).json missing —" \
			"run 'make bench BENCH_N=$(BENCH_N)' and commit the record"; \
		exit 1; \
	fi; \
	while read -r name; do \
		if [ -n "$$name" ] && ! grep -q "$$name" BENCH_$(BENCH_N).json; then \
			echo "bench-guard: BENCH_$(BENCH_N).json has no $$name records" \
				"(required by bench-required.txt) — run 'make bench BENCH_N=$(BENCH_N)'," \
				"then 'make serve-bench BENCH_N=$(BENCH_N)' for ServeLoadgen"; \
			exit 1; \
		fi; \
	done < bench-required.txt; \
	echo "bench-guard: BENCH_$(BENCH_N).json present"

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

# serve-smoke is the serving-path CI gate: boot collabserve, drive it with
# a short mixed loadgen burst whose -verify flag proves replay equivalence
# (the server's canonical edge dump equals a serial LogGraph replay of the
# accepted events), SIGTERM the server so it drains and snapshots, then
# warm-restart from the snapshot and require the restored store to still
# hold the data (loadgen -check). Any step failing — including an unclean
# shutdown or a missing snapshot — fails the target.
SERVE_PORT ?= 18987
SERVE_DIR  ?= /tmp/collabnet-serve-smoke
serve-smoke:
	@rm -rf $(SERVE_DIR) && mkdir -p $(SERVE_DIR)
	@$(GO) build -o $(SERVE_DIR)/collabserve ./cmd/collabserve
	@$(GO) build -o $(SERVE_DIR)/loadgen ./cmd/loadgen
	@set -e; \
	$(SERVE_DIR)/collabserve -addr 127.0.0.1:$(SERVE_PORT) -peers 256 \
		-refresh 100ms -snapshot $(SERVE_DIR)/state.snap & \
	pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	sleep 1; \
	$(SERVE_DIR)/loadgen -url http://127.0.0.1:$(SERVE_PORT) -peers 256 \
		-duration 3s -workers 4 -writemix 0.8 -verify; \
	echo "serve-smoke: SIGTERM -> drain + snapshot"; \
	kill -TERM $$pid; wait $$pid; \
	test -f $(SERVE_DIR)/state.snap || { echo "serve-smoke: no snapshot written"; exit 1; }; \
	echo "serve-smoke: warm restart"; \
	$(SERVE_DIR)/collabserve -addr 127.0.0.1:$(SERVE_PORT) -peers 256 \
		-snapshot $(SERVE_DIR)/state.snap & \
	pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	sleep 1; \
	$(SERVE_DIR)/loadgen -url http://127.0.0.1:$(SERVE_PORT) -peers 256 -check; \
	kill -TERM $$pid; wait $$pid; \
	trap - EXIT; \
	echo "serve-smoke: ok"

# serve-bench records the serving path's latency/throughput records into
# the current trajectory slot: a closed-loop mixed burst against a locally
# booted server, verified for replay equivalence, merged into
# BENCH_$(BENCH_N).json alongside the `make bench` records (same schema,
# ns-per-op convention, so bench-diff gates them too).
SERVE_BENCH_DURATION ?= 5s
serve-bench:
	@rm -rf $(SERVE_DIR) && mkdir -p $(SERVE_DIR)
	@$(GO) build -o $(SERVE_DIR)/collabserve ./cmd/collabserve
	@$(GO) build -o $(SERVE_DIR)/loadgen ./cmd/loadgen
	@set -e; \
	$(SERVE_DIR)/collabserve -addr 127.0.0.1:$(SERVE_PORT) -peers 1000 \
		-refresh 200ms & \
	pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	sleep 1; \
	$(SERVE_DIR)/loadgen -url http://127.0.0.1:$(SERVE_PORT) -peers 1000 \
		-duration $(SERVE_BENCH_DURATION) -writemix 0.9 -verify \
		-benchjson BENCH_$(BENCH_N).json; \
	kill -TERM $$pid; wait $$pid; \
	trap - EXIT; \
	echo "serve-bench: records merged into BENCH_$(BENCH_N).json"

# clean removes scratch output only: BENCH_*.json are version-controlled
# trajectory records the bench-diff gate depends on, so they stay.
clean:
	rm -f bench.out cover.out cover.txt
	rm -rf figures
