#!/usr/bin/env bash
# Tier-1 verification + a quick throughput smoke run with a regression gate.
#
# Fails if the build breaks, avatar-lint reports any deny finding (local
# rules plus the workspace-semantic rules: shard-reachability and
# map-iteration determinism), clippy reports any warning, any test fails
# (including the probes-off build, the checked-mode `--features
# invariants` suite, and the repository benchmark's own tests built
# against this workspace), a host-side variation of a run (chunked
# stepping, an attached probe sink) changes any simulated statistic in
# a release build (the equivalence matrix), the
# latency breakdown loses a cycle (observability conservation), the
# fig15 grid diverges between the default, invariants, or
# probes-compiled-out builds (build features a runtime matrix cannot
# toggle), the policy_sweep harness drops a default-set policy or its
# GMEAN row, the result cache fails its warm-sweep gate (a repeat fig15
# run into a fresh cache directory must replay every cell, match the
# cold pass byte-for-byte modulo the cache section, and beat the
# AVATAR_CACHE_SPEEDUP_MIN floor, default 5x),
# a scenario cell panics during the throughput grid (the harness exits
# non-zero on a failed cell, and on any thread-count digest divergence),
# or single-thread events/sec — measured with probes compiled out, the
# shipping hot path — regresses more than AVATAR_TP_TOLERANCE percent
# (default 2) below the checked-in BENCH_throughput.json baseline.
#
# To iterate locally with a known-noisy rule, downgrade it instead of
# editing the gate: AVATAR_LINT_ALLOW=<rule,rule> scripts/ci.sh
# (`lint:allow(<rule>)` comments are the per-site escape; the env var is
# deliberately not set here so CI always runs the full rule set).

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release

echo "== avatar-lint (semantic deny gate) =="
# The JSON report (per-rule counts + wall time) is archived next to the
# throughput baseline so a CI failure leaves a machine-readable artifact
# (exit is non-zero on any deny finding; `allowed` sites are still
# listed in the report).
cargo run --release -q -p avatar-lint -- --json BENCH_lint.json --show-allowed

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

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

echo "== invariants/probes builds must not perturb results (fig15 byte-diff) =="
# The differential gates run with --no-cache: replaying one build's cached
# results under another build's label would defeat the exact divergence
# these byte-diffs exist to catch.
fig_default=$(mktemp /tmp/avatar-fig15-default.XXXXXX.json)
fig_checked=$(mktemp /tmp/avatar-fig15-checked.XXXXXX.json)
fig_noprobes=$(mktemp /tmp/avatar-fig15-noprobes.XXXXXX.json)
fig_cold=$(mktemp /tmp/avatar-fig15-cold.XXXXXX.json)
fig_warm=$(mktemp /tmp/avatar-fig15-warm.XXXXXX.json)
sweep_json=$(mktemp /tmp/avatar-policy-sweep.XXXXXX.json)
cache_dir=$(mktemp -d /tmp/avatar-cache-gate.XXXXXX)
tp_json=$(mktemp /tmp/avatar-throughput.XXXXXX.json)
trap 'rm -f "$fig_default" "$fig_checked" "$fig_noprobes" "$fig_cold" "$fig_warm" "$sweep_json" "$tp_json"; rm -rf "$cache_dir"' EXIT
cargo run --release -q -p avatar-bench --bin fig15_performance -- --quick --no-cache --json "$fig_default"
cargo run --release -q -p avatar-bench --features invariants --bin fig15_performance -- --quick --no-cache --json "$fig_checked"
cargo run --release -q -p avatar-bench --no-default-features --bin fig15_performance -- --quick --no-cache --json "$fig_noprobes"
if ! diff -q "$fig_default" "$fig_checked"; then
    echo "INVARIANTS DIVERGENCE: fig15 JSON differs between default and --features invariants builds" >&2
    exit 1
fi
if ! diff -q "$fig_default" "$fig_noprobes"; then
    echo "PROBES DIVERGENCE: fig15 JSON differs between probes-on (default) and probes-compiled-out builds" >&2
    exit 1
fi

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
