GO ?= go

.PHONY: build test race vet serve bench bench-spine bench-paper bench-serve bench-join fuzz smoke smoke-serve clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# serve builds sidrd and runs it against DATA (default: ./datasets).
DATA ?= ./datasets
serve:
	$(GO) run ./cmd/sidrd -data $(DATA)

bench:
	$(GO) test -bench=. -benchtime=1x ./...

# bench-spine runs the repo's one measurement harness (BENCHMARK.json):
# five named workloads, end-to-end metrics plus per-layer attribution.
bench-spine:
	bash bench/run.sh

# bench-paper runs every sidrbench experiment (paper figures, chaos,
# churn, prune, serve, join) and emits the all-sections perf snapshot.
BENCH_OUT ?= BENCH_PAPER.json
bench-paper:
	$(GO) run ./cmd/sidrbench -json $(BENCH_OUT)

# bench-serve drives the serving tier with >=1000 concurrent streaming
# clients (zipf mix + identical-query burst) and emits the cross-PR perf
# snapshot with cold/cached/collapsed latency percentiles.
SERVE_OUT ?= BENCH_PR8.json
SERVE_CLIENTS ?= 1000
bench-serve:
	$(GO) run ./cmd/sidrbench -serveclients $(SERVE_CLIENTS) -json $(SERVE_OUT)

# bench-join runs the structural-join skew experiment (zipf-skewed side
# B, re-tiling on vs off) and emits the cross-PR perf snapshot with
# reduce wall-clock and keyblock skew statistics. JOIN_SCALE scales the
# input extents (CI uses a reduced scale).
JOIN_OUT ?= BENCH_PR9.json
JOIN_SCALE ?= 1.0
bench-join:
	$(GO) run ./cmd/sidrbench -exp join -joinscale $(JOIN_SCALE) -json $(JOIN_OUT)

# fuzz exercises the untrusted-bytes decoders briefly (CI runs the same
# targets; crashers land in testdata/fuzz).
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzReadSpill -fuzztime=$(FUZZTIME) ./internal/kv/
	$(GO) test -run=^$$ -fuzz=FuzzReadIndex -fuzztime=$(FUZZTIME) ./internal/sidx/
	$(GO) test -run=^$$ -fuzz=FuzzIndexCRC -fuzztime=$(FUZZTIME) ./internal/sidx/
	$(GO) test -run=^$$ -fuzz=FuzzParseJoin -fuzztime=$(FUZZTIME) ./internal/query/

# smoke runs the multi-process cluster smoke test (sidrd + 2 workers).
smoke:
	scripts/cluster_smoke.sh

# smoke-serve checks the serving tier end to end over real HTTP: repeat
# query is a recorded byte-identical cache hit, gzip decodes to identity
# bytes, tenant quota breaches 429.
smoke-serve:
	scripts/serve_smoke.sh

clean:
	$(GO) clean ./...
