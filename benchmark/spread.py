#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Records runs:
    python3 benchmark/spread.py record OUT.jsonl --seeds 7,99 --repeat 10 [--workload NAME ...]
runs `benchmark/run.sh --trace 0` once per (repeat, seed, workload), in
that nesting, and appends one JSON line per run: workload, seed, CPU
count, build, the run's result line, its elapsed time, its per-pass walls
as measured, host slowdowns and times at nominal host speed, and its
sim_digest. `--seeds` takes a list (`7,99`) or a range (`1-10`).

Summarizes recordings:
    python3 benchmark/spread.py summary A.jsonl [B.jsonl]
groups each workload's runs by seed and prints, per end-to-end metric,
the median and the spread: the distance between the first and third
quartiles (`statistics.quantiles(values, n=4)`) as a share of the median.
Beside nominal_wall_s it prints the same for the median pass wall as
measured, before the host-speed calibration.
  * Seeds recorded several times give the same-seed spread, which is
    host noise alone, and the bound it implies: max(3%, 3 x spread).
    sim_avatar_speedup and sim_digest must repeat exactly for a seed.
  * Seeds recorded once each give the spread over seeds, which is what a
    set of runs with different seeds sees.
With B, it also prints how far B's median is from A's for each group,
signed so that a positive share is worse. It exits 1 when a spread other
than setup_s's, or a shift of medians, is above the bound in
BENCHMARK.json, or when a deterministic output differs between repeats.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DETERMINISTIC = "sim_avatar_speedup"


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def record(args):
    bench = declared()
    names = args.workload or [w["name"] for w in bench["workloads"]]
    with open(args.out, "a") as out:
        for _ in range(args.repeat):
            for seed in seeds(args.seeds):
                for name in names:
                    cmd = ["bash", os.path.join(ROOT, "benchmark", "run.sh"), "--workload", name,
                           "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
                    start = time.monotonic()
                    run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                    elapsed = time.monotonic() - start
                    if run.returncode != 0:
                        sys.exit(f"{name} seed {seed} failed ({run.returncode}):\n{run.stderr[-2000:]}")
                    result = json.loads(run.stdout.strip().splitlines()[-1])
                    path = os.path.join(ROOT, "target", "avatar-benchmark", f"{name}.untraced.json")
                    with open(path) as f:
                        detail = json.load(f)
                    row = {"workload": name, "seed": seed, "cpus": os.cpu_count(),
                           "build": detail["host"]["build"], "result": result, "elapsed_s": elapsed,
                           "cold_wall_s": detail["cold_wall_s"], "pass_wall_s": detail["pass_wall_s"],
                           "pass_slowdown": detail["pass_slowdown"],
                           "pass_nominal_s": detail["pass_nominal_s"],
                           "sim_digest": detail["sim_digest"]}
                    out.write(json.dumps(row) + "\n")
                    out.flush()
                    print(name, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()})


def load(path):
    """{workload: {seed: [row, ...]}}, in recording order."""
    runs = {}
    with open(path) as f:
        for line in f:
            row = json.loads(line)
            runs.setdefault(row["workload"], {}).setdefault(row["seed"], []).append(row)
    return runs


def groups(by_seed):
    """(label, rows) to take spreads over: each repeated seed on its own,
    or all seeds together when each was recorded once."""
    if all(len(rows) == 1 for rows in by_seed.values()):
        return [(f"{len(by_seed)} seeds", [rows[0] for rows in by_seed.values()])]
    return [(f"seed {seed} x{len(rows)}", rows) for seed, rows in by_seed.items()]


def values(rows, metric):
    return [r["result"]["metrics"][metric]["value"] for r in rows]


def spread(vals):
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / statistics.median(vals)


def summary(args):
    metrics = declared()["end_to_end"]
    a = load(args.a)
    b = load(args.b) if args.b else {}
    ok = True
    for name, by_seed in a.items():
        b_groups = dict(groups(b[name])) if name in b else {}
        for label, rows in groups(by_seed):
            correct = all(r["result"]["correct"] and r["result"]["failed"] == 0 for r in rows)
            print(f"{name} {label}: all correct: {correct}")
            ok &= correct
            if label.startswith("seed "):
                digests = {r["sim_digest"] for r in rows}
                speedups = set(values(rows, DETERMINISTIC))
                repeat = len(digests) == 1 and len(speedups) == 1
                print(f"  sim_digest and {DETERMINISTIC} identical across repeats: {repeat}")
                ok &= repeat
            for m in metrics:
                va = values(rows, m["name"])
                s = spread(va)
                line = (f"  {m['name']:20} median {statistics.median(va):12.6g} {m['unit']:8}"
                        f" spread {s:7.4f} (3x: {max(0.03, 3 * s):.3f}) bound {m['bound']:.3f}")
                if m["name"] != "setup_s" and s > m["bound"]:
                    line += "  SPREAD ABOVE BOUND"
                    ok = False
                if label in b_groups:
                    vb = values(b_groups[label], m["name"])
                    ma, mb = statistics.median(va), statistics.median(vb)
                    worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
                    line += f" | B median {mb:12.6g} worse by {worse:+.4f}"
                    if worse > m["bound"]:
                        line += "  MEDIANS APART"
                        ok = False
                print(line)
            raw = [statistics.median(r["pass_wall_s"]) for r in rows]
            print(f"  {'wall_s as measured':20} median {statistics.median(raw):12.6g} {'s':8}"
                  f" spread {spread(raw):7.4f}")
    sys.exit(0 if ok else 1)


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("record")
    r.add_argument("out")
    r.add_argument("--seeds", default="7")
    r.add_argument("--repeat", type=int, default=1)
    r.add_argument("--workload", action="append")
    s = sub.add_parser("summary")
    s.add_argument("a")
    s.add_argument("b", nargs="?")
    args = p.parse_args()
    record(args) if args.cmd == "record" else summary(args)


if __name__ == "__main__":
    main()
