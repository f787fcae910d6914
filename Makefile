# Mirrors .github/workflows/ci.yml: `make ci` runs exactly what CI runs.

GO ?= go

BENCH_SMOKE := PipelineEndToEnd|ParseConcurrent|ClassifyAll|Expand|Snapshot|GroupCount|Select
SERVE_ADDR ?= 127.0.0.1:18080
LOAD_ADDR ?= 127.0.0.1:18081
LOAD_DURATION ?= 10s
BENCH_DATE := $(shell date +%F)
FUZZ_TIME ?= 10s

.PHONY: build vet test race lint fuzz bench bench-json fmt serve load-smoke proxy-smoke ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# avbench is a nested module that `./...` at the root skips; vet and test
# it too, so an internal API change cannot break the benchmark unnoticed.
test:
	$(GO) test ./...
	cd avbench && $(GO) vet ./... && $(GO) test ./...

# The race job covers every package: a hand-maintained list let newly added
# concurrent packages silently escape race coverage.
race:
	$(GO) test -race ./...

# Build the analyzer suite once, run it over the whole repository, and
# fold the per-analyzer wall times into the day's BENCH artifact so the
# lint cost is tracked like any other perf trajectory. See DESIGN.md
# systems #21, #25, and #26 for what each analyzer enforces. The fold
# runs only when the tree is clean — a lint failure fails the target
# first.
lint:
	$(GO) build -o bin/avlint ./cmd/avlint
	$(GO) build -o bin/benchjson ./cmd/benchjson
	./bin/avlint -timings lint-timings.json ./...
	./bin/benchjson -merge BENCH_$(BENCH_DATE).json -flat lint-timings.json \
		-o BENCH_$(BENCH_DATE).json < /dev/null
	@echo "folded lint timings into BENCH_$(BENCH_DATE).json"

# Short fuzz smoke over the snapshot reader: arbitrary bytes must yield a
# typed error or a valid view, never a panic and never a fault on a mapped
# page.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzSnapshot2Read$$' -fuzztime $(FUZZ_TIME) ./internal/snapshot2

bench:
	$(GO) test -bench '$(BENCH_SMOKE)' -benchtime 1x -run '^$$' ./...

# Machine-readable benchmark artifact: the smoke benchmarks (including the
# snapshot load-vs-rebuild pair) rendered as name -> ns/op JSON. CI uploads
# the resulting BENCH_<date>.json.
bench-json:
	$(GO) test -bench '$(BENCH_SMOKE)' -benchtime 1x -run '^$$' ./... \
		| $(GO) run ./cmd/benchjson -o BENCH_$(BENCH_DATE).json
	@echo "wrote BENCH_$(BENCH_DATE).json"

# Build avserve and smoke-test it: start on SERVE_ADDR, poll /healthz until
# it answers, then shut the server down. Fails if the probe never succeeds.
serve:
	$(GO) build -o bin/avserve ./cmd/avserve
	@./bin/avserve -addr $(SERVE_ADDR) & pid=$$!; \
	ok=0; \
	for i in $$(seq 1 50); do \
		if curl -fsS "http://$(SERVE_ADDR)/healthz" >/dev/null 2>&1; then ok=1; break; fi; \
		sleep 0.2; \
	done; \
	kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	if [ "$$ok" != 1 ]; then echo "avserve never answered /healthz" >&2; exit 1; fi; \
	echo "avserve healthy on $(SERVE_ADDR)"

# End-to-end serving benchmark (the load-smoke CI job): validate the query
# mix offline, boot a self-terminating avserve, drive it with avload for
# LOAD_DURATION with -fail-on-errors (any transport failure or non-2xx
# fails the target), then fold the avload/1 report and the smoke
# micro-benchmarks into one BENCH_<date>.json perf-trajectory artifact.
# avload's warmup retries through connection refusals and study builds, so
# no separate /healthz poll is needed; avserve's -duration is a backstop
# that bounds the run even if avload dies without the kill below.
load-smoke:
	$(GO) build -o bin/avserve ./cmd/avserve
	$(GO) build -o bin/avload ./cmd/avload
	$(GO) build -o bin/benchjson ./cmd/benchjson
	./bin/avload -n 0 -print-mix
	@./bin/avserve -addr $(LOAD_ADDR) -duration 300s & pid=$$!; \
	status=0; \
	./bin/avload -url "http://$(LOAD_ADDR)" -duration $(LOAD_DURATION) -c 4 \
		-seeds 1,2 -warmup 240s -json -fail-on-errors -o load-report.json \
		|| status=$$?; \
	kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	exit $$status
	$(GO) test -bench '$(BENCH_SMOKE)' -benchtime 1x -run '^$$' ./... \
		| ./bin/benchjson -load load-report.json -o BENCH_$(BENCH_DATE).json
	@echo "wrote BENCH_$(BENCH_DATE).json"

# Sharded serving smoke (the proxy-smoke CI job): 1 avserve -proxy over 2
# backends, the second peered to the first for snapshot pull-through. The
# script proves shard routing, 304 revalidation through the proxy,
# byte-identical answers from either backend, and a zero-build peer
# warm-start (see scripts/proxy_smoke.sh for the full checklist), then the
# two avload reports are folded into BENCH_<date>.json next to whatever
# keys it already carries.
proxy-smoke:
	$(GO) build -o bin/avserve ./cmd/avserve
	$(GO) build -o bin/avload ./cmd/avload
	$(GO) build -o bin/benchjson ./cmd/benchjson
	sh scripts/proxy_smoke.sh
	./bin/benchjson -merge BENCH_$(BENCH_DATE).json \
		-load ServeDirect=proxy-single-report.json \
		-load ProxyLoad=proxy-report.json \
		-o BENCH_$(BENCH_DATE).json < /dev/null
	@echo "wrote BENCH_$(BENCH_DATE).json"

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "unformatted files:" >&2; echo "$$out" >&2; exit 1; \
	fi

ci: build vet test race lint fuzz fmt bench
