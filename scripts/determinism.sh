#!/bin/sh
# Determinism check for one `reproduce` selector: runs it at threads 1,
# 1, 2, 3 and 8 and fails unless every BENCH_*.json and every CSV of each
# run is byte-identical to the first run's. Simulated results must be a
# pure function of the seed, never of a rerun or the worker count. When
# benches/baselines/BENCH_<selector>.json exists, the first run's BENCH
# file must also match that committed baseline byte for byte.
#
#   scripts/determinism.sh <selector>
#
# Expects a release build (`cargo build --release`). The first run's
# files stay in target/determinism/<selector>/t1a.
set -eu

sel=${1:?usage: scripts/determinism.sh <selector>}
out=target/determinism/$sel
rm -rf "$out"
for run in t1a:1 t1b:1 t2:2 t3:3 t8:8; do
    dir=$out/${run%:*}
    mkdir -p "$dir"
    target/release/reproduce "$sel" --threads "${run#*:}" --bench-dir "$dir" --csv "$dir" > /dev/null
done

first=$(ls "$out"/t1a/BENCH_*.json "$out"/t1a/*.csv)
for f in $first; do
    for dir in t1b t2 t3 t8; do
        cmp "$f" "$out/$dir/$(basename "$f")"
    done
done
baseline=benches/baselines/BENCH_$sel.json
if [ -f "$baseline" ]; then
    cmp "$baseline" "$out/t1a/BENCH_$sel.json"
fi
echo "$sel OK: BENCH and CSV files byte-identical across threads 1, 1, 2, 3, 8"
