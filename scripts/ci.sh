#!/usr/bin/env bash
# Tier-1 verification + a quick throughput smoke run with a regression gate.
#
# Fails if the build breaks, clippy reports any warning under the default,
# all-features or no-default-features build (the root clippy.toml bans the
# std hash collections, the clock types and the hash-map iteration
# methods; the [workspace.lints] table of the root Cargo.toml requires docs
# and a reason on every #[allow]; sim and core warn on unwrap and the panic
# family), any test fails (including the probes-off build, the
# checked-mode `--features invariants` suite, and the repository
# benchmark's own tests built against this workspace), a host-side
# variation of a run (chunked stepping, an attached probe sink) changes
# any simulated statistic in a release build (the equivalence matrix),
# the latency breakdown loses a cycle (observability conservation), the
# fig15 or fig19_oversub grid diverges between the default, invariants,
# or probes-compiled-out builds (build features a runtime matrix cannot
# toggle; the invariants build also salts every hash, so this is where a
# hash-map iteration-order leak shows), the policy_sweep harness drops a
# default-set policy or its GMEAN row, the result cache fails its
# warm-sweep gate (a repeat fig15
# run into a fresh cache directory must replay every cell, match the
# cold pass byte-for-byte modulo the cache section, and beat the
# AVATAR_CACHE_SPEEDUP_MIN floor, default 5x),
# a scenario cell panics during the throughput grid (the harness exits
# non-zero on a failed cell, and on any thread-count digest divergence),
# or single-thread events/sec — measured with probes compiled out, the
# shipping hot path — regresses more than AVATAR_TP_TOLERANCE percent
# (default 2) below the checked-in BENCH_throughput.json baseline.
#
# The per-site escape for a lint is #[allow(clippy::<lint>, reason = "...")]
# on the smallest enclosing item; clippy itself checks that the reason is
# there. No variable downgrades a rule.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release

echo "== clippy (deny warnings; default, all and no default features) =="
# Clippy sees only compiled code: the all-features pass reaches the
# `invariants` audits, the no-default-features pass the probes-off stubs.
cargo clippy --workspace --all-targets -- -D warnings
cargo clippy --workspace --all-targets --all-features -- -D warnings
cargo clippy --workspace --all-targets --no-default-features -- -D warnings

echo "== tests (workspace: probes on via avatar-bench default) =="
cargo test --workspace -q

echo "== tests with probes compiled out (sim + core, shipping hot path) =="
cargo test -q -p avatar-sim -p avatar-core

echo "== checked-mode invariants (audits + negative tests) =="
cargo test -q -p avatar-sim --features invariants
cargo test -q -p avatar-sim --features invariants,probes
# CoLT and SnakeByte keep the default chunk-wide fill reach, so the L2
# TLB overflow drain re-runs more of their queued lookups; checked mode
# checks every drain for them too.
cargo test -q -p avatar-baselines --features invariants
# The only suite that sends every registry policy through the L2 TLB
# overflow drain (a two-entry MSHR file, digests pinned).
cargo test -q -p avatar-core --features invariants --test tlb_overflow

echo "== repository benchmark builds and tests against the workspace =="
# benchmark/ reads Stats fields by name and drives the Engine API; a
# break there would otherwise surface only when the benchmark runs.
# --locked keeps benchmark/Cargo.lock unchanged.
cargo test -q --offline --locked --manifest-path benchmark/Cargo.toml

echo "== equivalence matrix + observability conservation (release) =="
# Every host-side variation of a run (run_steps chunking, an attached
# probe sink) must reproduce a plain run's statistics for every registry
# policy plus avatar+dead (crates/core/tests/equivalence.rs), and the
# per-phase latency breakdown must attribute every sector cycle exactly
# once (crates/core/tests/observability.rs). Both already ran inside the
# workspace test pass above; this release re-run guards against
# opt-level-dependent divergence.
cargo test --release -q -p avatar-core --features probes --test equivalence --test observability

echo "== invariants/probes builds must not perturb results (fig15 + fig19 byte-diff) =="
# The differential gates run with --no-cache: replaying one build's cached
# results under another build's label would defeat the exact divergence
# these byte-diffs exist to catch. fig15 --quick never evicts, so fig19
# --quick carries the differential to chunk eviction and shootdowns,
# where the UVM and shootdown-waiter hash maps live.
work=$(mktemp -d /tmp/avatar-ci.XXXXXX)
trap 'rm -rf "$work"' EXIT
fig_cold="$work/fig15-cold.json"
fig_warm="$work/fig15-warm.json"
sweep_json="$work/policy-sweep.json"
cache_dir="$work/cache"
tp_json="$work/throughput.json"
for fig in fig15_performance fig19_oversub; do
    cargo run --release -q -p avatar-bench --bin "$fig" -- --quick --no-cache --json "$work/$fig-default.json"
    cargo run --release -q -p avatar-bench --features invariants --bin "$fig" -- --quick --no-cache --json "$work/$fig-checked.json"
    cargo run --release -q -p avatar-bench --no-default-features --bin "$fig" -- --quick --no-cache --json "$work/$fig-noprobes.json"
    if ! diff -q "$work/$fig-default.json" "$work/$fig-checked.json"; then
        echo "INVARIANTS DIVERGENCE: $fig JSON differs between default and --features invariants builds (checked builds also salt the hasher: a hash-map iteration-order leak shows here)" >&2
        exit 1
    fi
    if ! diff -q "$work/$fig-default.json" "$work/$fig-noprobes.json"; then
        echo "PROBES DIVERGENCE: $fig JSON differs between probes-on (default) and probes-compiled-out builds" >&2
        exit 1
    fi
done

echo "== policy_sweep smoke (cross-policy comparison, Revelator + dead-entry) =="
# The cross-policy harness must run its full default set — the paper
# baselines plus the post-paper Revelator and dead-entry designs — and
# emit a row per workload plus the GMEAN row. Exercises the registry's
# novel-policy builds end to end (no byte-reference: these columns are
# new in this harness).
cargo run --release -q -p avatar-bench --bin policy_sweep -- --quick --no-cache --json "$sweep_json"
for p in baseline colt snakebyte avatar revelator "avatar+dead"; do
    if ! grep -q "\"policy\": \"$p\"" "$sweep_json"; then
        echo "POLICY SWEEP GATE: policy '$p' missing from the sweep dump" >&2
        exit 1
    fi
done
grep -q '"workload": "GMEAN"' "$sweep_json" || {
    echo "POLICY SWEEP GATE: GMEAN row missing from the sweep dump" >&2
    exit 1
}

echo "== result-cache warm-sweep gate (fig15 cold vs warm) =="
# The same sweep into a fresh cache directory, twice. The warm pass must
# (a) replay every cell — zero misses — and come in at least
# AVATAR_CACHE_SPEEDUP_MIN times faster (default 5; the paper-scale win
# is far larger, --quick pays proportionally more process overhead), and
# (b) produce byte-identical rows. Only the trailing "section": "cache"
# object may differ between the passes (hits vs misses), so both dumps
# are compared with it stripped.
t0=$(date +%s%N)
cargo run --release -q -p avatar-bench --bin fig15_performance -- --quick --cache "$cache_dir" --json "$fig_cold"
t1=$(date +%s%N)
cargo run --release -q -p avatar-bench --bin fig15_performance -- --quick --cache "$cache_dir" --json "$fig_warm"
t2=$(date +%s%N)
if ! grep -q '"cache_misses": 0' "$fig_warm"; then
    echo "CACHE GATE: warm fig15 pass re-ran cells (expected zero misses)" >&2
    grep -A5 '"section": "cache"' "$fig_warm" >&2 || true
    exit 1
fi
# The cache section is the last array element; strip from its marker to
# EOF in both dumps and byte-diff the remaining rows.
strip_cache_section() { sed '/"section": "cache"/,$d' "$1"; }
if ! diff -q <(strip_cache_section "$fig_cold") <(strip_cache_section "$fig_warm"); then
    echo "CACHE DIVERGENCE: warm fig15 rows differ from the cold pass" >&2
    exit 1
fi
awk -v cold="$((t1 - t0))" -v warm="$((t2 - t1))" \
    -v min="${AVATAR_CACHE_SPEEDUP_MIN:-5}" 'BEGIN {
    ratio = cold / warm;
    printf "cache warm-sweep: cold %.2fs, warm %.2fs, speedup %.1fx (floor %sx)\n",
           cold / 1e9, warm / 1e9, ratio, min;
    if (ratio < min) {
        print "CACHE GATE: warm sweep below the speedup floor" > "/dev/stderr";
        exit 1;
    }
}'

echo "== throughput smoke + regression gate (--quick, probes compiled out) =="
# The gate measures the shipping hot path: probes erased at compile time.
# This is also what pins the tentpole's zero-overhead-when-off promise —
# the baseline predates the probe layer, so a slowdown here means the
# instrumentation leaked into the off path.
# --no-cache is belt-and-braces here: the throughput bin already pins the
# result cache off (a timing harness must never replay), and this makes
# the intent visible in the gate itself.
cargo run --release -p avatar-bench --no-default-features --bin throughput -- --quick --no-cache --json "$tp_json"

# events/sec is measured on the serial pass; select the first JSON entry
# whose "threads" field is 1 rather than trusting entry order. Widen for
# noisy shared runners with AVATAR_TP_TOLERANCE=<pct>.
extract_eps() {
    awk -F': ' '
        /"threads"/ { v = $2; gsub(/,/, "", v); serial = (v == 1) }
        serial && /"events_per_sec"/ { gsub(/,/, "", $2); print $2; exit }
    ' "$1"
}
baseline_eps=$(extract_eps BENCH_throughput.json)
current_eps=$(extract_eps "$tp_json")
tolerance="${AVATAR_TP_TOLERANCE:-2}"
awk -v base="$baseline_eps" -v cur="$current_eps" -v tol="$tolerance" 'BEGIN {
    floor = base * (1 - tol / 100);
    printf "events/sec: current %.0f vs baseline %.0f (floor %.0f at -%s%%)\n",
           cur, base, floor, tol;
    if (cur < floor) {
        print "THROUGHPUT REGRESSION: below floor" > "/dev/stderr";
        exit 1;
    }
}'

echo "== OK =="
