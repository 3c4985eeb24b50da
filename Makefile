.PHONY: all build check test bench-serve bench-pairs fuzz-smoke tune-smoke ci clean

all: build

build:
	dune build

check:
	dune build @check

test:
	dune runtest

# Daemon load generator: concurrent clients over a Unix socket against
# an in-process hlod, latency percentiles + throughput + cache/admission
# behaviour, written to _build/bench_serve.json so the committed
# BENCH_*.json records stay as they are (pass a path to write
# elsewhere).  Exits nonzero on any failed request, on rejections
# outside the saturation scenario, or unless saturation both queues a
# request and rejects one queue_full.
bench-serve:
	dune exec bench/bench_serve.exe

# Parent-vs-change timing: N alternating pairs of 35-s benchmark runs
# of WORKLOAD, the working tree against commit REV, with each side's
# median and quartiles and the change's win count (bench/pairs.sh).
REV ?= HEAD
WORKLOAD ?= spec-ref
N ?= 10
bench-pairs:
	bash bench/pairs.sh $(REV) $(WORKLOAD) $(N)

# Fixed-seed differential fuzz: corpus + random programs through the
# semantic oracle for ~30s, then a second campaign pinned to region
# mode (every case exercises the outline-then-inline path).  Nonzero
# exit on any mismatch or crash; repros (bucketed, reduced) land under
# _build/fuzz/.
fuzz-smoke:
	dune exec bin/hlo_fuzz.exe -- --seed 1 --iters 400 --time-budget 30 \
	  --out _build/fuzz
	dune exec bin/hlo_fuzz.exe -- --seed 2 --iters 200 --time-budget 30 \
	  --inline-mode region --out _build/fuzz-region

# Policy tuner smoke gate: tiny fixed-seed search on two benchmarks
# (train input), run twice; the JSON results must be bit-identical
# (the tuner's determinism contract), and every scored candidate is
# oracle-gated by construction.  Winning policies land under
# _build/tune_policies/ for hloc --policy.
tune-smoke:
	dune build bin/hlo_tune.exe
	_build/default/bin/hlo_tune.exe --bench 026.compress --bench 099.go \
	  --samples 4 --rounds 1 --mutations 2 --stale-rounds 1 --input train \
	  --json _build/tune_smoke_a.json --policies _build/tune_policies
	_build/default/bin/hlo_tune.exe --bench 026.compress --bench 099.go \
	  --samples 4 --rounds 1 --mutations 2 --stale-rounds 1 --input train \
	  --json _build/tune_smoke_b.json > /dev/null
	cmp _build/tune_smoke_a.json _build/tune_smoke_b.json

ci:
	./ci.sh

clean:
	dune clean
