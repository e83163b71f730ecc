GO ?= go

.PHONY: build test race flake vet serve bench bench-kv bench-map bench-reduce bench-plan bench-serve bench-spine bench-paper fuzz smoke smoke-serve clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# flake is the "green on every run, not most runs" gate for the packages
# whose tests schedule: the job loop, the pipelines chained on it, the
# cluster runtime, and the job manager and server above them (collapse,
# cancel, notify hooks, streams).
# The Map kernel's differential matrix and fuzz seeds are deterministic —
# they run once; everything that schedules runs 20 times, then 5 under
# the race detector.
FLAKY = ./internal/mapreduce ./internal/pipeline ./internal/cluster ./internal/jobs ./internal/server
flake:
	$(GO) test -count=1 -run=MapKernel ./internal/mapreduce
	$(GO) test -count=20 -skip=MapKernel $(FLAKY)
	$(GO) test -race -count=5 $(FLAKY)

vet:
	$(GO) vet ./...

# serve builds sidrd and runs it against DATA (default: ./datasets).
DATA ?= ./datasets
serve:
	$(GO) run ./cmd/sidrd -data $(DATA)

bench:
	$(GO) test -bench=. -benchtime=1x ./...

# bench-kv runs every micro-benchmark of the shuffle's codec layer once
# (CI does the same), so the shapes they measure — spill
# encode/decode/verify per block kind, the merged list kv.MergeSorted
# collects from the Reduce's key walk — cannot rot unnoticed.
bench-kv:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./internal/kv

# bench-map runs the Map kernel's micro-benchmarks once (CI does the
# same). There is one kernel (internal/mapkernel) and these are its two
# clients: a single-input Map task over one prune_filter-shaped split —
# avg, median and filter_gt at about 26 and 128 survivors a key — and a
# join Map task on one join_zipf-shaped split per side, dense and mostly
# missing; then the finish a median or percentile Map runs per
# split-local key (ops.Finisher): a median of 16, 64, 65 and 1 024
# samples and percentile 90 of 64. Allocations are reported.
bench-map:
	$(GO) test -run='^$$' -bench='^BenchmarkExecMap$$' -benchtime=1x ./internal/mapreduce
	$(GO) test -run='^$$' -bench='^BenchmarkJoinExecMap$$' -benchtime=1x ./internal/join
	$(GO) test -run='^$$' -bench='^BenchmarkFinisher$$' -benchtime=1x ./internal/ops

# bench-reduce runs the Reduce task body's micro-benchmark once (CI does
# the same): the key walk and the operator per key over a shuffle_median-
# shaped keyblock, every key in every stream — median, avg and filter_gt
# — and over a scan_avg-shaped one, every key in one stream and read in
# place — avg and filter_gt; then the join Reduce over a join_zipf-shaped
# jcorr keyblock, a dense stream against a mostly missing one.
# Allocations are reported.
bench-reduce:
	$(GO) test -run='^$$' -bench='^BenchmarkExecReduce$$' -benchtime=1x ./internal/mapreduce

# bench-plan runs the planner's micro-benchmarks once (CI does the
# same): the dependency graph's Build over scan_avg-, shuffle_median- and
# prune_filter-shaped single-input plans; then, at join_zipf's shape, the
# join's Build — plan-time sampling of both sides and the re-tiling — and
# its BuildGraph, with allocations reported.
bench-plan:
	$(GO) test -run='^$$' -bench='^BenchmarkBuild$$' -benchtime=1x ./internal/depgraph
	$(GO) test -run='^$$' -bench='^BenchmarkJoinBuild(Graph)?$$' -benchtime=1x ./internal/join

# bench-serve runs the serving tier's micro-benchmarks once (CI does the
# same): a result-cache hit sent from the entry's cached bytes and the
# executed job's stream encoded live, identity and gzip; then the wire
# codec on serve_mix-shaped results — avg, median and filter_gt — encoding
# a stream's tails and decoding its lines, with allocations reported.
bench-serve:
	$(GO) test -run='^$$' -bench='^BenchmarkStream' -benchtime=1x ./internal/server
	$(GO) test -run='^$$' -bench='^Benchmark(StreamDecode|EventTail)$$' -benchtime=1x ./internal/wire

# bench-spine runs the repo's one measurement harness (BENCHMARK.json):
# five named workloads, end-to-end metrics plus per-layer attribution.
bench-spine:
	bash bench/run.sh

# bench-paper prints the paper's figures and tables (Fig. 9-13, Tables
# 2-3, the failure study) from internal/experiments.
bench-paper:
	$(GO) run ./cmd/sidrbench

# fuzz exercises the untrusted-bytes decoders, the one Map kernel
# against its two differential oracles (single-input and join), the
# dependency graph's oracle, a filter's fold-time survivor selection and
# partition in source order, the direct slab read, the holistic operators'
# selection oracle, partition+'s live-mask invariants and the wire's dense
# row codec
# against encoding/json briefly (CI runs the same targets; crashers land
# in testdata/fuzz).
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzReadSpill -fuzztime=$(FUZZTIME) ./internal/kv/
	$(GO) test -run=^$$ -fuzz=FuzzParseJoin -fuzztime=$(FUZZTIME) ./internal/query/
	$(GO) test -run=^$$ -fuzz=FuzzMapKernel -fuzztime=$(FUZZTIME) ./internal/mapreduce/
	$(GO) test -run=^$$ -fuzz=FuzzFilterSurvivors -fuzztime=$(FUZZTIME) ./internal/ops/
	$(GO) test -run=^$$ -fuzz=FuzzReadSlab -fuzztime=$(FUZZTIME) ./internal/ncfile/
	$(GO) test -run=^$$ -fuzz=FuzzJoinMapKernel -fuzztime=$(FUZZTIME) ./internal/join/
	$(GO) test -run=^$$ -fuzz=FuzzSelect -fuzztime=$(FUZZTIME) ./internal/ops/
	$(GO) test -run=^$$ -fuzz=FuzzPartitionPlusLive -fuzztime=$(FUZZTIME) ./internal/partition/
	$(GO) test -run=^$$ -fuzz=FuzzDependencyGraph -fuzztime=$(FUZZTIME) ./internal/depgraph/
	$(GO) test -run=^$$ -fuzz=FuzzWireRows -fuzztime=$(FUZZTIME) ./internal/wire/

# smoke runs the multi-process cluster smoke test (sidrd + 2 workers).
smoke:
	scripts/cluster_smoke.sh

# smoke-serve checks the serving tier end to end over real HTTP: repeat
# query is a recorded byte-identical cache hit whose stream — identity and
# one hand-assembled gzip member — is the cold run's, gzip decodes to
# identity bytes, tenant quota breaches 429.
smoke-serve:
	scripts/serve_smoke.sh

clean:
	$(GO) clean ./...
