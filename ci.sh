#!/usr/bin/env bash
# Local CI: everything the tree must pass before a merge.
#
#   ./ci.sh            (or: make ci)
#
# Steps: no library under test/, type-check, full build, test suite,
# the paper's tables and the simulator counters at the ref input
# against their goldens, then
# smoke runs of the hloc driver, the fuzzer, the telemetry path, the
# sampling profiler and the daemon, and last short benchmark runs compared against the
# committed baseline.
set -euo pipefail
cd "$(dirname "$0")"

echo "== no test-only libraries (dune files under test/) =="
# Binaries, benchmarks and lib/ link libraries by name; a library
# defined under test/ would let shipped code depend on test-only code.
if grep -rn --include=dune -E '\(library([[:space:]]|$)' test; then
  echo "a dune file under test/ defines a library; move it to lib/"
  exit 1
fi

echo "== dune build @check =="
dune build @check

echo "== dune build =="
dune build

echo "== dune runtest (HLO_JOBS=1) =="
HLO_JOBS=1 dune runtest

# Same suite again with a 4-domain pool.  Every test executable and
# every CLI golden rule picks the degree up from the environment, so a
# scheduling-dependent divergence shows up as an ordinary test failure
# or a golden-output diff.
echo "== dune runtest (HLO_JOBS=4) =="
HLO_JOBS=4 dune runtest --force

echo "== paper tables at the ref input (test/golden/experiments_ref.expected) =="
# Every table of `hlo-experiments all --input ref`, wall-clock columns
# zeroed; tier-1 checks the same generator at the train input.
dune build test/golden/experiments.exe
./_build/default/test/golden/experiments.exe ref \
  | diff -u test/golden/experiments_ref.expected -
echo "ref-input tables identical to the golden"

echo "== simulator counters at the ref input (test/golden/sim_metrics_ref.expected) =="
# Every Machine.Sim counter, output digest and trap of the workloads
# after default HLO at the ref input; tier-1 checks the same generator
# at the train input.
dune build test/golden/sim_metrics.exe
./_build/default/test/golden/sim_metrics.exe ref \
  | diff -u test/golden/sim_metrics_ref.expected -
echo "ref-input simulator counters identical to the golden"

echo "== parallel determinism smoke (hloc --jobs) =="
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
for j in 1 4; do
  dune exec bin/hloc.exe -- \
    examples/telemetry_util.mc examples/telemetry_main.mc \
    --dump-ir --stats --run interp > "$tmp/ir-jobs$j.txt" "--jobs=$j"
done
diff -u "$tmp/ir-jobs1.txt" "$tmp/ir-jobs4.txt"
echo "jobs 1 and jobs 4 outputs identical"
# A degree above Parallel.Pool.max_jobs is a usage error from the
# command line's converter: cmdliner's exit 124, no uncaught
# exception, and no compile started (the trace it asks for is never
# written), so no domain is spawned.
status=0
dune exec bin/hloc.exe -- examples/telemetry_util.mc examples/telemetry_main.mc \
  --trace "$tmp/jobs129.json" --jobs 129 > "$tmp/jobs129.out" 2> "$tmp/jobs129.err" \
  || status=$?
if [ "$status" -ne 124 ] || grep -q "Fatal error" "$tmp/jobs129.err" \
   || ! grep -q -- "--jobs" "$tmp/jobs129.err" || [ -e "$tmp/jobs129.json" ]; then
  echo "hloc --jobs 129: expected a usage error (124), got exit $status:"
  cat "$tmp/jobs129.err"
  exit 1
fi
echo "hloc --jobs 129 refused as a usage error"

echo "== isom separate compilation smoke (hloc -c / --link) =="
# Whole-program reference, then per-module isoms, then a link of the
# isoms: IR, stats and run output must be byte-identical.
dune exec bin/hloc.exe -- \
  examples/telemetry_util.mc examples/telemetry_main.mc \
  --dump-ir --stats --run interp > "$tmp/whole.txt"
dune exec bin/hloc.exe -- -c examples/telemetry_util.mc \
  -o "$tmp/telemetry_util.isom"
dune exec bin/hloc.exe -- -c examples/telemetry_main.mc \
  "$tmp/telemetry_util.isom" -o "$tmp/telemetry_main.isom"
dune exec bin/hloc.exe -- --link \
  "$tmp/telemetry_util.isom" "$tmp/telemetry_main.isom" \
  --dump-ir --stats --run interp > "$tmp/linked.txt"
diff -u "$tmp/whole.txt" "$tmp/linked.txt"
echo "separate compile + link identical to whole-program"

echo "== isom incremental smoke (hloc --incremental) =="
dune exec bin/hloc.exe -- --incremental \
  examples/telemetry_util.mc examples/telemetry_main.mc \
  --isom-dir "$tmp/isom" --dump-ir --stats --run interp > "$tmp/inc-cold.txt"
grep -q '\[isom\] reused=0 recompiled=2' "$tmp/inc-cold.txt"
dune exec bin/hloc.exe -- --incremental \
  examples/telemetry_util.mc examples/telemetry_main.mc \
  --isom-dir "$tmp/isom" --dump-ir --stats --run interp > "$tmp/inc-warm.txt"
grep -q '\[isom\] reused=2 recompiled=0' "$tmp/inc-warm.txt"
diff -u <(grep -v '^\[isom\]' "$tmp/inc-cold.txt") \
        <(grep -v '^\[isom\]' "$tmp/inc-warm.txt")
diff -u <(grep -v '^\[isom\]' "$tmp/inc-warm.txt") "$tmp/whole.txt"
echo "incremental warm rebuild reused everything, output identical"

echo "== corrupt isom smoke (graceful recompile) =="
truncate -s 40 "$tmp/isom/telemetry_main.isom"
dune exec bin/hloc.exe -- --incremental \
  examples/telemetry_util.mc examples/telemetry_main.mc \
  --isom-dir "$tmp/isom" --dump-ir --stats --run interp > "$tmp/inc-corrupt.txt"
grep -q '\[isom\] reused=1 recompiled=1' "$tmp/inc-corrupt.txt"
grep -q 'recompiled telemetry_main: unreadable' "$tmp/inc-corrupt.txt"
diff -u <(grep -v '^\[isom\]' "$tmp/inc-corrupt.txt") "$tmp/whole.txt"
echo "truncated isom recompiled transparently, output identical"

echo "== policy smoke (hloc --policy round trip, make tune-smoke) =="
# The dumped default policy fed back through --policy must change
# nothing; then the tiny fixed-seed tuner run (twice, bit-identical
# JSON) and a load of its winning policy into hloc.
dune exec bin/hloc.exe -- --dump-policy > "$tmp/default.policy"
dune exec bin/hloc.exe -- \
  examples/telemetry_util.mc examples/telemetry_main.mc \
  --dump-ir --stats --run interp --policy "$tmp/default.policy" \
  > "$tmp/policy-run.txt"
diff -u "$tmp/whole.txt" "$tmp/policy-run.txt"
make tune-smoke
dune exec bin/hloc.exe -- \
  --policy _build/tune_policies/specint92.policy --dump-policy > /dev/null
echo "policy round trip identical; tuner deterministic"

echo "== inline mode smoke (hloc --inline-mode) =="
# Whole spelled explicitly must be byte-identical to the default; the
# two modes must agree on the program's run output even at a budget
# starved enough to force region splitting.
dune exec bin/hloc.exe -- \
  examples/telemetry_util.mc examples/telemetry_main.mc \
  --dump-ir --stats --run interp --inline-mode whole > "$tmp/mode-whole.txt"
diff -u "$tmp/whole.txt" "$tmp/mode-whole.txt"
for mode in whole region; do
  dune exec bin/hloc.exe -- \
    examples/telemetry_util.mc examples/telemetry_main.mc \
    --run interp --inline-mode "$mode" --budget 5 > "$tmp/mode-run-$mode.txt"
done
diff -u "$tmp/mode-run-whole.txt" "$tmp/mode-run-region.txt"
echo "whole mode inert; both modes agree on run output"

echo "== differential fuzz smoke (make fuzz-smoke, fixed seeds) =="
# Corpus + random programs through the semantic oracle: a whole-mode
# campaign and a region-mode one (the outliner re-optimizes every
# routine there), ~30s each.  A nonzero exit means a real finding; the
# bucketed, reduced repros are left under _build/fuzz and
# _build/fuzz-region for inspection.
rm -rf _build/fuzz _build/fuzz-region
make fuzz-smoke

echo "== chaos validation (hlo_fuzz --chaos must catch each seeded bug) =="
# Arm each deliberate miscompilation in turn: the smoke budget must
# catch it (nonzero exit) and the reducer must shrink the repro.  The
# region-splitting bug only fires on the outline-then-inline path, so
# its campaign is pinned to region mode.
for bug in inline_swap_args inline_lost_retval clone_const_drift \
           prune_address_taken region_lost_cold_path; do
  extra=""
  [ "$bug" = region_lost_cold_path ] && extra="--inline-mode region"
  if dune exec bin/hlo_fuzz.exe -- --seed 1 --iters 120 --time-budget 60 \
       --chaos "$bug" $extra --out "$tmp/chaos-$bug" \
       > "$tmp/chaos-$bug.log" 2>&1; then
    echo "chaos bug $bug was NOT caught"
    cat "$tmp/chaos-$bug.log"
    exit 1
  fi
  grep -q 'reduced to' "$tmp/chaos-$bug.log"
  ls "$tmp/chaos-$bug"/*/reduced/repro.mc > /dev/null
  echo "caught and reduced: $bug"
done

echo "== telemetry smoke run (hloc --trace) =="
dune exec bin/hloc.exe -- \
  examples/telemetry_util.mc examples/telemetry_main.mc \
  --trace "$tmp/trace.json" --trace-format chrome --telemetry-summary \
  --run interp > "$tmp/out.txt"
grep -q '"traceEvents"' "$tmp/trace.json"
grep -q 'telemetry summary' "$tmp/out.txt"
dune exec bin/hloc.exe -- \
  examples/telemetry_util.mc examples/telemetry_main.mc \
  --trace "$tmp/trace.jsonl" --trace-format jsonl --run none > /dev/null
grep -q '"type":"decision"' "$tmp/trace.jsonl"
echo "trace ok: $(wc -c < "$tmp/trace.json") bytes (chrome), $(wc -l < "$tmp/trace.jsonl") events (jsonl)"

echo "== sampling profiler smoke (bench/hot.exe scale 1) =="
# The SIGPROF sampler must still run HLO and name its functions: the
# header line, and at least one row charged to an Hlo module.
dune exec bench/hot.exe -- scale 1 > "$tmp/hot.txt"
grep -q '^scale: 1 HLO runs of 3 programs, .* CPU s, [0-9]* samples$' "$tmp/hot.txt"
grep -qE '^ +[0-9.]+ +[0-9.]+  Hlo__' "$tmp/hot.txt"
echo "sampler ok: $(grep -c '  Hlo__' "$tmp/hot.txt") Hlo rows"

echo "== daemon smoke (hlod / hlo_client / hloc --daemon) =="
# A fresh daemon serves the same compile twice through hloc --daemon
# require: the first request is a miss, the second an artifact-store hit
# that never reaches admission (the stats document counts one insertion
# and one memory hit), both byte-identical to in-process hloc.  Then a
# graceful shutdown drains and removes the socket.  The daemon section
# runs the built binaries directly: a backgrounded `dune exec` would
# keep the build lock alive in the daemon and deadlock every later dune
# invocation.
dune build bin/hloc.exe bin/hlod.exe bin/hlo_client.exe
hloc=_build/default/bin/hloc.exe
hlod=_build/default/bin/hlod.exe
hlo_client=_build/default/bin/hlo_client.exe
sock="$tmp/hlod.sock"
"$hloc" examples/telemetry_util.mc examples/telemetry_main.mc \
  --dump-ir --stats --dump-journal --run interp > "$tmp/serve-ref.txt"
"$hlod" --socket "$sock" --artifact-dir "$tmp/artifacts" \
  --verbose 2> "$tmp/hlod.log" &
hlod_pid=$!
for _ in $(seq 1 100); do
  if "$hlo_client" ping --socket "$sock" > /dev/null 2>&1; then break; fi
  sleep 0.1
done
"$hloc" examples/telemetry_util.mc examples/telemetry_main.mc \
  --dump-ir --stats --dump-journal --run interp \
  --daemon require --daemon-socket "$sock" > "$tmp/serve-1.txt"
"$hloc" examples/telemetry_util.mc examples/telemetry_main.mc \
  --dump-ir --stats --dump-journal --run interp \
  --daemon require --daemon-socket "$sock" > "$tmp/serve-2.txt"
diff -u "$tmp/serve-ref.txt" "$tmp/serve-1.txt"
diff -u "$tmp/serve-ref.txt" "$tmp/serve-2.txt"
"$hlo_client" stats --socket "$sock" > "$tmp/serve-stats.json"
grep -q '"insertions":1' "$tmp/serve-stats.json"   # compiled exactly once
grep -q '"memory_hits":1' "$tmp/serve-stats.json"
"$hloc" examples/telemetry_util.mc examples/telemetry_main.mc \
  --dump-ir --stats --dump-journal --run interp \
  --daemon require --daemon-socket "$sock" > "$tmp/serve-hloc.txt"
diff -u "$tmp/serve-ref.txt" "$tmp/serve-hloc.txt"
# Every knob rides the wire, --region-cold-fraction included.
region_flags=(--inline-mode region --region-cold-fraction 0.3 --budget 5)
"$hloc" examples/telemetry_util.mc examples/telemetry_main.mc \
  --dump-ir --stats --dump-journal --run interp "${region_flags[@]}" \
  > "$tmp/serve-region-ref.txt"
"$hloc" examples/telemetry_util.mc examples/telemetry_main.mc \
  --dump-ir --stats --dump-journal --run interp "${region_flags[@]}" \
  --daemon require --daemon-socket "$sock" > "$tmp/serve-region.txt"
diff -u "$tmp/serve-region-ref.txt" "$tmp/serve-region.txt"
# A run-time trap fails the same way in-process and through the
# daemon: same stdout, same exit status, same stderr.  Base scope
# skips training, so the trap fires in the run, after the [hlo] line.
printf 'func main() { print_int(7); abort(); return 0; }\n' > "$tmp/trapping.mc"
trap_flags=(--scope base --run interp --stats)
set +e
"$hloc" "$tmp/trapping.mc" "${trap_flags[@]}" \
  > "$tmp/trap-ref.out" 2> "$tmp/trap-ref.err"
trap_ref_status=$?
"$hloc" "$tmp/trapping.mc" "${trap_flags[@]}" \
  --daemon require --daemon-socket "$sock" \
  > "$tmp/trap-daemon.out" 2> "$tmp/trap-daemon.err"
trap_daemon_status=$?
set -e
test "$trap_ref_status" -ne 0
test "$trap_ref_status" -eq "$trap_daemon_status"
grep -q '^\[hlo\]' "$tmp/trap-ref.out"
grep -q 'trap in main' "$tmp/trap-ref.err"
diff -u "$tmp/trap-ref.out" "$tmp/trap-daemon.out"
diff -u "$tmp/trap-ref.err" "$tmp/trap-daemon.err"
"$hlo_client" shutdown --socket "$sock"
wait "$hlod_pid"
grep -q 'shut down' "$tmp/hlod.log"
test ! -e "$sock"
echo "daemon served twice (one compile), output and trap identical, clean shutdown"

echo "== daemon signal smoke (hlod exits on SIGTERM) =="
# An idle daemon must drain and exit within 5 s of SIGTERM and remove
# its socket.
"$hlod" --socket "$sock" 2> "$tmp/hlod-term.log" &
hlod_pid=$!
for _ in $(seq 1 100); do
  if "$hlo_client" ping --socket "$sock" > /dev/null 2>&1; then break; fi
  sleep 0.1
done
kill -TERM "$hlod_pid"
for _ in $(seq 1 50); do
  kill -0 "$hlod_pid" 2> /dev/null || break
  sleep 0.1
done
if kill -0 "$hlod_pid" 2> /dev/null; then
  kill -KILL "$hlod_pid"
  echo "hlod ignored SIGTERM"
  exit 1
fi
wait "$hlod_pid"
test ! -e "$sock"
echo "SIGTERM drained hlod and removed its socket"

echo "== serve load smoke (make bench-serve, --smoke) =="
# Concurrent clients over a real socket; the binary exits nonzero if
# any non-saturation scenario failed or rejected a request, or unless
# the saturation scenario both queued a request and rejected one
# queue_full.
dune exec bench/bench_serve.exe -- --smoke "$tmp/bench_serve.json"
grep -q '"pr7-serve-load"' "$tmp/bench_serve.json"

echo "== bench drift (hlo_bench spec-ref and scale vs hlobench/baseline.json) =="
# Short seeded runs judged against the committed baseline: spec-ref,
# the paper's workload, and scale, where HLO and the scalar optimizer
# take most of the time, so an HLO-speed regression shows there first.
# compare prints a verdict per end-to-end metric and exits nonzero only
# on a `worse` verdict or a higher fail_frac.
bench=./_build/default/hlobench/hlo_bench.exe
dune build hlobench/hlo_bench.exe
for workload in spec-ref scale; do
  "$bench" run --workload "$workload" --seed 1 --seconds 10 --trace 0 \
    --out "$tmp/bench-$workload.json" > "$tmp/bench-$workload.log"
  tail -n 1 "$tmp/bench-$workload.log"
done
"$bench" compare hlobench/baseline.json "$tmp/bench-spec-ref.json"
"$bench" compare hlobench/baseline.json "$tmp/bench-scale.json"

echo "CI OK"
