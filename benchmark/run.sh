#!/usr/bin/env bash
# The repository benchmark: host throughput of the Avatar simulator, end to
# end and per layer. See benchmark/README.md.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
#
# With --trace, runs one workload in one mode and prints its result JSON as
# the last line of standard output:
#   --trace 0  untraced build (probes compiled out): end-to-end metrics;
#   --trace 1  traced build (probes on): per-layer metrics. A short untraced
#              run of the same workload and seed goes first, as the
#              reference for the tracing overhead and the digest check.
# Without --trace, runs both modes on the named workload (default: all),
# prints one table and writes target/avatar-benchmark/result.json.
#
# Both variants are built from source first (offline; nothing to download).
# CARGO_TARGET_DIR, when set, holds the two builds.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
workloads="quick_grid tlb_miss_sweep oversub_sweep paper_cell"
workload=""
seed=7
seconds=20
trace=""

usage() {
    sed -n '5p' "$0" | sed 's/^# *//' >&2
    exit 2
}

while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case "$1" in
        --workload) workload="$2" ;;
        --seed) seed="$2" ;;
        --seconds) seconds="$2" ;;
        --trace) trace="$2" ;;
        *) usage ;;
    esac
    shift 2
done
case "$trace" in "" | 0 | 1) ;; *) usage ;; esac

build_dir="${CARGO_TARGET_DIR:-$root/target/avatar-benchmark/build}"
out="$root/target/avatar-benchmark"
mkdir -p "$out"

# Each variant gets its own target directory, so neither build can leave
# the other's binary in place.
build() { # <variant> [cargo flags...]
    local variant="$1"
    shift
    cargo build --offline --quiet --release --manifest-path "$here/Cargo.toml" \
        --target-dir "$build_dir/$variant" "$@" >&2
}
build untraced --no-default-features
build traced
untraced="$build_dir/untraced/release/avatar_benchmark"
traced="$build_dir/traced/release/avatar_benchmark"

run_untraced() { # <workload> <seconds>
    rm -f "$out/$1.untraced.json"
    "$untraced" --workload "$1" --seed "$seed" --seconds "$2" --trace 0 --out "$out"
}
run_traced() { # <workload>
    "$traced" --workload "$1" --seed "$seed" --seconds "$seconds" --trace 1 \
        --reference "$out/$1.untraced.json" --out "$out"
}

case "$trace" in
    0) exec "$untraced" --workload "${workload:?--trace needs --workload}" --seed "$seed" \
        --seconds "$seconds" --trace 0 --out "$out" ;;
    1)
        # A failed cell in the reference run is the traced run's to report.
        run_untraced "${workload:?--trace needs --workload}" 1 >&2 || true
        run_traced "$workload"
        ;;
    *)
        list="${workload:-$workloads}"
        status=0
        for w in $list; do
            run_untraced "$w" "$seconds" || status=1
            run_traced "$w" || status=1
        done
        echo
        "$untraced" --report "${list// /,}" --out "$out" || status=1
        exit "$status"
        ;;
esac
