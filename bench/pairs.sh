#!/usr/bin/env bash
# Parent-vs-change timing in alternating pairs:
#
#   bash bench/pairs.sh REV WORKLOAD N      (or: make bench-pairs)
#
# Builds hlobench/hlo_bench.exe twice: from commit REV, exported into
# _build/pairs/rev, and from the working tree.  Both binaries are
# copied to _build/pairs/ first, so a later `dune build` cannot swap
# the one under test.  Then runs N pairs of `hlo_bench run --workload
# WORKLOAD --seconds 35 --trace 0`, pair i with seed i, alternating
# which side runs first, and prints for every end-to-end metric each
# side's median and quartiles and the number of pairs the change won
# (lower is better for all of them; ties count for neither side).
# Quartiles use the method of hlobench/stats.ml.  Then five traced
# passes per side (`--trace 1 --seconds 1`, seeds N+1..N+5, which no
# pair used, alternating which side runs first) show where a difference
# sits: every per-layer metric as each side's median and quartiles over
# the five passes.  One traced pass is one wall-clock sample per layer,
# too few to place a difference.  Run from anywhere;
# the runs execute at the repository root, where hlo_bench reads
# BENCHMARK.json.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ $# -ne 3 ]; then
  echo "usage: bash bench/pairs.sh REV WORKLOAD N" >&2
  exit 2
fi
rev=$1 workload=$2 n=$3
command -v dune >/dev/null || eval "$(opam env 2>/dev/null)"
export DUNE_CACHE=disabled
out=_build/pairs
src=$out/rev
rm -rf "$src"
mkdir -p "$src"
git archive "$rev" | tar -x -C "$src"
(cd "$src" && dune build --root . --display quiet hlobench/hlo_bench.exe)
dune build --root . --display quiet hlobench/hlo_bench.exe
cp -f "$src/_build/default/hlobench/hlo_bench.exe" "$out/parent.exe"
cp -f _build/default/hlobench/hlo_bench.exe "$out/change.exe"
echo "parent: $(git rev-parse --short "$rev"); change: working tree" >&2

metrics="e2e_s compile_s setup_s peak_rss_mb cycles_geomean size_geomean"

# The value of metric $2 in the result line (the last line) of log $1.
value() {
  tail -n 1 "$1" | sed -n "s/.*\"$2\":{\"value\":\([^,}]*\).*/\1/p"
}

run_side() {
  local side=$1 i=$2
  "$out/$side.exe" run --workload "$workload" --seed "$i" --seconds 35 \
    --trace 0 --out "$out/$side-$i.json" > "$out/$side-$i.log" \
    || { echo "$side run $i failed; see $out/$side-$i.log" >&2; exit 1; }
}

for i in $(seq 1 "$n"); do
  if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
  for side in $order; do run_side "$side" "$i"; done
  line="pair $i ($order):"
  for m in $metrics; do
    line="$line $m $(value "$out/parent-$i.log" "$m") -> $(value "$out/change-$i.log" "$m")"
  done
  echo "$line"
done

# Median and quartiles of the numbers on stdin, as hlobench/stats.ml.
quartiles() {
  sort -g | awk '
    { a[NR] = $1 }
    END {
      if (NR == 1) { printf "%.6g q1 %.6g q3 %.6g", a[1], a[1], a[1]; exit }
      m = NR + 1
      for (i = 1; i <= 3; i++) {
        j = int(i * m / 4); if (j < 1) j = 1; if (j > NR - 1) j = NR - 1
        d = i * m - j * 4
        q[i] = (a[j] * (4 - d) + a[j + 1] * d) / 4
      }
      printf "%.6g q1 %.6g q3 %.6g", q[2], q[1], q[3]
    }'
}

echo
echo "$workload, $n pairs: median (quartiles) parent -> change, change wins"
for m in $metrics; do
  parent=$(for i in $(seq 1 "$n"); do value "$out/parent-$i.log" "$m"; done)
  change=$(for i in $(seq 1 "$n"); do value "$out/change-$i.log" "$m"; done)
  wins=$(paste <(echo "$parent") <(echo "$change") | awk '$2 < $1 { w++ } END { print w + 0 }')
  printf '%-15s %s -> %s  wins %d/%d\n' "$m" \
    "$(echo "$parent" | quartiles)" "$(echo "$change" | quartiles)" "$wins" "$n"
done

# Five traced passes per side on unused seeds, alternating which side
# goes first: the per-layer table.
traced=5
seeds=$(seq $((n + 1)) $((n + traced)))
for s in $seeds; do
  if [ $((s % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
  for side in $order; do
    "$out/$side.exe" run --workload "$workload" --seed "$s" --seconds 1 \
      --trace 1 --out "$out/$side-trace-$s.json" > "$out/$side-trace-$s.log" \
      || { echo "$side traced run $s failed; see $out/$side-trace-$s.log" >&2; exit 1; }
  done
done
echo
echo "$workload, $traced traced passes (seeds $((n + 1))-$((n + traced))):" \
  "per-layer median (quartiles) parent -> change"
layers=$(tail -n 1 "$out/parent-trace-$((n + 1)).log" | grep -o '"[a-z_.]*":{"value"' | cut -d'"' -f2)
for m in $layers; do
  parent=$(for s in $seeds; do value "$out/parent-trace-$s.log" "$m"; done)
  change=$(for s in $seeds; do value "$out/change-trace-$s.log" "$m"; done)
  printf '%-32s %s -> %s\n' "$m" \
    "$(echo "$parent" | quartiles)" "$(echo "$change" | quartiles)"
done
