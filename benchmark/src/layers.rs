//! The traced run: per-layer metrics.
//!
//! One cold pass and spanned passes with spans around every call into
//! the simulator, the per-layer counters read from `Stats`, the layer
//! replays of [`crate::replay`], and result-cache store/load timings.
//! Layer names are the repository's modules.

use crate::e2e;
use crate::measure::{run_pass, simulate, CellRun, Ledger, Pass};
use crate::replay::{self, Cost, Replays, TLB_FAMILIES};
use crate::report::{self, Metric, Outcome, Reference};
use crate::spans::{self, Tracer};
use crate::stats;
use crate::workloads::{BenchWorkload, Cell};
use avatar_bench::cache::{cell_key, ResultCache};
use avatar_bench::obj;
use avatar_core::policy::TlbKind;
use avatar_core::system::gpu_config_for;
use avatar_sim::probe::Phase;
use avatar_sim::Stats;
use std::path::Path;
// Host wall time of cache calls, never simulated state. lint:allow(nondeterminism)
use std::time::Instant;

/// Layer spans whose self time counts toward `span_coverage`.
const LAYER_SPANS: [&str; 5] = ["config", "assemble", "run_steps", "finish", "digest"];

/// Lowest acceptable share of a pass covered by layer spans.
const MIN_SPAN_COVERAGE: f64 = 0.98;

/// Phases reported per sector of the Avatar cells.
const PHASES: [Phase; 6] = [
    Phase::Issue,
    Phase::Coalesce,
    Phase::Tlb,
    Phase::Walk,
    Phase::Fetch,
    Phase::Validate,
];

/// Runs the traced measurement; writes `<workload>.traced.json` and
/// `<workload>.spans.json`. `reference` is the untraced run of the same
/// workload and seed.
pub fn measure(
    w: &BenchWorkload,
    cells: &[Cell],
    seed: u64,
    seconds: f64,
    reference: Option<&Reference>,
    out: &Path,
) -> Result<Outcome, String> {
    reset_peak_rss();
    let mut tr = Tracer::new(true);
    let mut ledger = Ledger::new(cells.len());
    let cold = run_pass(cells, &mut tr, simulate);
    ledger.check(cells, &cold);
    // Spanned passes: at least one, then as many as a quarter of the
    // budget allows (`run.sh` spends most of the rest on the untraced
    // reference run).
    let mut passes: Vec<(usize, Pass)> = Vec::new();
    let mut spent = 0.0;
    while passes.is_empty() || spent + spent / passes.len() as f64 <= seconds / 4.0 {
        let root = tr.spans().len();
        let p = run_pass(cells, &mut tr, simulate);
        ledger.check(cells, &p);
        spent += p.wall_s;
        passes.push((root, p));
    }
    // Before the replays allocate their own structures.
    let rss = peak_rss_mb()?;

    let mut o = Outcome {
        attempted: ledger.attempted,
        failed: ledger.failed,
        failures: ledger.failures.clone(),
        ..Outcome::default()
    };
    let untraced_wall = match reference {
        Some(r) if r.workload == w.name && r.seed == seed => {
            for (i, (c, mine)) in cells.iter().zip(&ledger.digests).enumerate() {
                let theirs = r.digests.get(i).copied().flatten();
                if mine.is_none() || *mine != theirs {
                    o.failures.push(format!(
                        "{}: traced digest {mine:016x?} differs from the untraced build's {theirs:016x?}",
                        c.label()
                    ));
                }
            }
            Some(r.wall_s)
        }
        Some(r) => {
            return Err(format!(
                "reference is {} seed {}, not {} seed {seed}",
                r.workload, r.seed, w.name
            ))
        }
        None => {
            o.notes
                .push("no untraced reference: bench.trace.overhead_pct is 0".into());
            None
        }
    };

    let opts = &cells[0].opts;
    let replays = replay::run(w.abbrs, w.sms, w.warps, w.scale, |wl| {
        replay::cell_config(wl, "avatar", opts)
    });
    let (store_ms, load_ms) = cache_timings(cells, &cold, out)?;

    let measured: Vec<&Pass> = passes.iter().map(|(_, p)| p).collect();
    // Counters come from the cold pass: every later pass reproduced its
    // digests, so they are the same there.
    let done: Vec<(&Cell, &Stats)> = cells
        .iter()
        .zip(&cold.cells)
        .filter_map(|(c, r)| r.as_ref().ok().map(|r| (c, &r.stats)))
        .collect();
    let mut m = vec![Metric::one("bench.process.peak_rss_mb", "MB", rss)];
    runner_metrics(&mut m, &mut o.notes, &measured);
    m.push(Metric::median_of("bench.cache.store_ms", "ms", &store_ms));
    m.push(Metric::median_of("bench.cache.load_ms", "ms", &load_ms));
    m.push(Metric::median_of(
        "core.system.assemble_ms",
        "ms",
        &cell_samples(&measured, |c| vec![c.assemble_s * 1e3]),
    ));
    m.push(Metric::one(
        "core.system.footprint_ms",
        "ms",
        cold.ok().map(|c| c.config_s).sum::<f64>() * 1e3,
    ));
    m.push(Metric::median_of(
        "workloads.trace.build_ms",
        "ms",
        &replays.build_ms,
    ));
    m.push(Metric::one(
        "workloads.trace.next_op_ns",
        "ns",
        replays.next_op.per_op(),
    ));
    engine_metrics(&mut m, &mut o.notes, &measured, &done);
    m.push(Metric::one(
        "sim.event.schedule_pop_ns",
        "ns",
        replays.calendar.per_op(),
    ));
    layer_counters(&mut m, &done, &replays);
    note_replay_ratios(&mut o.notes, &done, &replays);

    // Tracing's own accounting.
    let traced_wall = stats::median(&measured.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let overhead = untraced_wall.map_or(0.0, |u| (traced_wall / u - 1.0) * 100.0);
    m.push(Metric::one("bench.trace.overhead_pct", "%", overhead));
    let coverage: Vec<f64> = passes
        .iter()
        .map(|(root, _)| span_coverage(tr.spans(), *root))
        .collect();
    let cov = Metric::median_of("bench.trace.span_coverage", "ratio", &coverage);
    if cov.value < MIN_SPAN_COVERAGE {
        o.notes.push(format!(
            "span coverage {:.4} is below {MIN_SPAN_COVERAGE}: spans miss part of the pass",
            cov.value
        ));
    }
    m.push(cov);
    let run_steps_s = stats::median(
        &measured
            .iter()
            .map(|p| p.ok().flat_map(|c| &c.chunk_s).sum::<f64>())
            .collect::<Vec<_>>(),
    );
    m.push(Metric::one(
        "bench.trace.replay_coverage",
        "ratio",
        replay_estimate_s(&done, &replays) / run_steps_s,
    ));
    o.metrics = m;
    o.notes.push(format!(
        "traced pass {traced_wall:.3} s vs untraced {}, {} spanned passes, {} spans",
        untraced_wall.map_or("-".to_string(), |u| format!("{u:.3} s")),
        passes.len(),
        tr.spans().len()
    ));

    let digest = e2e::sim_digest(&ledger.digests);
    let doc = obj! {
        "workload": w.name,
        "seed": seed,
        "correct": o.correct(),
        "host": report::host_json(),
        "passes": passes.len(),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "fail_frac": ledger.fail_frac(),
        "failures": o.failures.clone(),
        "sim_digest": format!("{digest:016x}"),
        "notes": o.notes.clone(),
        "metrics": o.metrics_json(),
    };
    report::write(&out.join(format!("{}.traced.json", w.name)), &doc)?;
    report::write(
        &out.join(format!("{}.spans.json", w.name)),
        &spans::to_json(w.name, tr.spans()),
    )?;
    Ok(o)
}

/// Per-cell samples over every completed cell of the given passes.
fn cell_samples(passes: &[&Pass], f: impl Fn(&CellRun) -> Vec<f64>) -> Vec<f64> {
    passes.iter().flat_map(|p| p.ok().flat_map(&f)).collect()
}

fn runner_metrics(m: &mut Vec<Metric>, notes: &mut Vec<String>, passes: &[&Pass]) {
    let overhead: Vec<f64> = passes
        .iter()
        .map(|p| (p.wall_s - p.ok().map(|c| c.wall_s).sum::<f64>()) * 1e3)
        .collect();
    let cell_ms = cell_samples(passes, |c| vec![c.wall_s * 1e3]);
    let tail = stats::tail(&cell_ms);
    notes.push(format!(
        "bench.runner.cell_ms_tail is p{} of {} cells{}",
        tail.percentile,
        tail.n,
        if tail.qualified {
            ""
        } else {
            " (fewer than 20: the median stands in)"
        }
    ));
    m.push(Metric::median_of(
        "bench.runner.overhead_ms",
        "ms",
        &overhead,
    ));
    m.push(Metric::one(
        "bench.runner.cell_ms_p50",
        "ms",
        stats::median(&cell_ms),
    ));
    m.push(Metric::one("bench.runner.cell_ms_tail", "ms", tail.value));
    m.push(Metric::median_of(
        "bench.runner.cells_per_s",
        "1/s",
        &passes
            .iter()
            .map(|p| p.cells.len() as f64 / p.wall_s)
            .collect::<Vec<_>>(),
    ));
}

fn engine_metrics(
    m: &mut Vec<Metric>,
    notes: &mut Vec<String>,
    passes: &[&Pass],
    stats: &[(&Cell, &Stats)],
) {
    let events = sum(stats, |s| s.events_processed);
    let insts = sum(stats, |s| s.instructions);
    // ns per event over each run_steps chunk. Every chunk but a cell's
    // last holds at least CHUNK_EVENTS events (run_steps rounds up to a
    // barrier window), so those use the nominal count; the last holds
    // the remainder.
    let per_event = cell_samples(passes, |c| {
        let n = c.chunk_s.len();
        let full = crate::measure::CHUNK_EVENTS;
        let last = c
            .stats
            .events_processed
            .saturating_sub(full * (n as u64 - 1))
            .max(1);
        c.chunk_s
            .iter()
            .enumerate()
            .map(|(i, s)| s * 1e9 / if i + 1 == n { last } else { full } as f64)
            .collect()
    });
    let tail = stats::tail(&per_event);
    notes.push(format!(
        "sim.engine.ns_per_event_tail is p{} of {} run_steps chunks",
        tail.percentile, tail.n
    ));
    m.push(Metric::one("sim.engine.events", "count", events as f64));
    m.push(Metric::median_of(
        "sim.engine.events_per_s",
        "1/s",
        &passes
            .iter()
            .map(|p| p.ok().map(|c| c.stats.events_processed).sum::<u64>() as f64 / p.wall_s)
            .collect::<Vec<_>>(),
    ));
    m.push(Metric::one(
        "sim.engine.events_per_inst",
        "ratio",
        ratio(events, insts),
    ));
    m.push(Metric::one(
        "sim.engine.ns_per_event_p50",
        "ns",
        stats::median(&per_event),
    ));
    m.push(Metric::one(
        "sim.engine.ns_per_event_tail",
        "ns",
        tail.value,
    ));
    m.push(Metric::median_of(
        "sim.engine.finish_ms",
        "ms",
        &cell_samples(passes, |c| vec![c.finish_s * 1e3]),
    ));
    m.push(Metric::one(
        "sim.engine.idle_skip_frac",
        "ratio",
        ratio(
            sum(stats, |s| s.idle_cycles_skipped),
            sum(stats, |s| s.cycles),
        ),
    ));
    m.push(Metric::one(
        "sim.engine.barriers",
        "count",
        sum(stats, |s| s.horizon_barriers) as f64,
    ));
}

/// Counters and hit ratios read from `Stats`, next to each layer's
/// replayed cost per operation.
fn layer_counters(m: &mut Vec<Metric>, stats: &[(&Cell, &Stats)], r: &Replays) {
    let s = |f: fn(&Stats) -> u64| sum(stats, f);
    let count = |name: &str, v: u64| Metric::one(name, "count", v as f64);
    let frac = |name: &str, a: u64, b: u64| Metric::one(name, "ratio", ratio(a, b));
    let ns = |name: &str, c: Cost| Metric::one(name, "ns", c.per_op());
    let mem_insts = s(|x| x.loads) + s(|x| x.stores);
    let sm_cycles: u64 = stats
        .iter()
        .map(|(c, x)| x.cycles * c.opts.sms.unwrap_or(1) as u64)
        .sum();

    m.push(frac(
        "sim.sm.fast_path_frac",
        s(|x| x.fast_path_sectors),
        s(|x| x.sector_requests),
    ));
    m.push(frac(
        "sim.sm.sectors_per_inst",
        s(|x| x.sector_requests),
        mem_insts,
    ));
    m.push(frac("sim.sm.stall_frac", s(|x| x.stall_cycles), sm_cycles));
    m.push(ns("sim.sm.coalesce_ns", r.coalesce));

    m.push(count("sim.tlb.l1_lookups", s(|x| x.l1_tlb_lookups)));
    m.push(frac(
        "sim.tlb.l1_hit_frac",
        s(|x| x.l1_tlb_hits),
        s(|x| x.l1_tlb_lookups),
    ));
    m.push(count("sim.tlb.l2_lookups", s(|x| x.l2_tlb_lookups)));
    m.push(frac(
        "sim.tlb.l2_hit_frac",
        s(|x| x.l2_tlb_hits),
        s(|x| x.l2_tlb_lookups),
    ));
    m.push(count(
        "sim.tlb.mshr_full",
        s(|x| x.l1_tlb_mshr_full) + s(|x| x.l2_tlb_mshr_full),
    ));
    for (family, c) in TLB_FAMILIES.iter().zip(r.tlb_lookup) {
        m.push(ns(&format!("sim.tlb.lookup_ns.{family}"), c));
    }
    m.push(ns("sim.tlb.fill_ns", r.tlb_fill));

    m.push(count("sim.cache.l1d_lookups", s(|x| x.l1d_lookups)));
    m.push(frac(
        "sim.cache.l1d_hit_frac",
        s(|x| x.l1d_hits),
        s(|x| x.l1d_lookups),
    ));
    m.push(count("sim.cache.l2_lookups", s(|x| x.l2_lookups)));
    m.push(frac(
        "sim.cache.l2_hit_frac",
        s(|x| x.l2_hits),
        s(|x| x.l2_lookups),
    ));
    m.push(count("sim.cache.mshr_full", s(|x| x.cache_mshr_full)));
    m.push(ns("sim.cache.probe_ns.l1d", r.l1d_probe));
    m.push(ns("sim.cache.probe_ns.l2", r.l2_probe));
    m.push(ns("sim.cache.fill_ns", r.cache_fill));

    m.push(count("sim.walker.walks", s(|x| x.page_walks)));
    m.push(count("sim.walker.merges", s(|x| x.walk_merges)));
    m.push(count(
        "sim.walker.mem_accesses",
        s(|x| x.walk_memory_accesses),
    ));
    m.push(count("sim.walker.buffer_full", s(|x| x.pw_buffer_full)));
    m.push(ns("sim.walker.walk_ns", r.walk));
    m.push(ns("sim.page_table.translate_ns", r.translate));

    let mb = |b: u64| b as f64 / (1024.0 * 1024.0);
    m.push(Metric::one(
        "sim.dram.read_mb",
        "MB",
        mb(s(|x| x.dram_read_bytes)),
    ));
    m.push(Metric::one(
        "sim.dram.write_mb",
        "MB",
        mb(s(|x| x.dram_write_bytes)),
    ));
    m.push(frac(
        "sim.dram.row_hit_frac",
        s(|x| x.dram_row_hits),
        s(|x| x.dram_row_hits) + s(|x| x.dram_row_misses),
    ));
    m.push(ns("sim.dram.access_ns", r.dram));

    m.push(count("sim.uvm.faults", s(|x| x.page_faults)));
    m.push(count("sim.uvm.pages_migrated", s(|x| x.pages_migrated)));
    m.push(count("sim.uvm.chunks_evicted", s(|x| x.chunks_evicted)));
    m.push(count("sim.uvm.shootdowns", s(|x| x.tlb_shootdowns)));
    m.push(ns("sim.uvm.touch_ns", r.touch));
    m.push(ns("sim.uvm.evict_ns", r.evict));

    // Compressibility as the speculative fetches observed it (the
    // simulator never counts `Stats::migrate_sectors`).
    m.push(count(
        "workloads.content.spec_fetches",
        s(|x| x.spec_fetches),
    ));
    m.push(frac(
        "workloads.content.compressed_frac",
        s(|x| x.spec_compressed),
        s(|x| x.spec_fetches),
    ));
    m.push(ns("bpc.size_ns", r.bpc_size));

    m.push(count("core.policy.speculations", s(|x| x.speculations)));
    m.push(frac(
        "core.policy.spec_correct_frac",
        s(|x| x.spec_correct),
        s(|x| x.speculations),
    ));
    m.push(count(
        "core.policy.rapid_validations",
        s(|x| x.rapid_validations),
    ));
    m.push(count(
        "core.policy.cava_mismatches",
        s(|x| x.cava_mismatches),
    ));
    m.push(ns("core.policy.mod_predict_ns", r.mod_predict));
    m.push(ns("core.policy.mod_train_ns", r.mod_train));

    // Latency phases per sector over the Avatar cells.
    let avatar: Vec<(&Cell, &Stats)> = stats
        .iter()
        .copied()
        .filter(|(c, _)| c.policy.name() == "avatar")
        .collect();
    let sectors = sum(&avatar, |x| x.latency_breakdown.sectors);
    for p in PHASES {
        let cyc = sum(&avatar, |x| x.latency_breakdown.of(p));
        m.push(Metric::one(
            format!("sim.phase.{}_cyc_per_sector", p.label()),
            "cyc",
            ratio(cyc, sectors),
        ));
    }
}

fn note_replay_ratios(notes: &mut Vec<String>, stats: &[(&Cell, &Stats)], r: &Replays) {
    let s = |f: fn(&Stats) -> u64| sum(stats, f);
    for (what, replayed, a, b) in [
        (
            "L1 TLB hit",
            r.l1_tlb_hits.frac(),
            s(|x| x.l1_tlb_hits),
            s(|x| x.l1_tlb_lookups),
        ),
        (
            "L1D hit",
            r.l1d_hits.frac(),
            s(|x| x.l1d_hits),
            s(|x| x.l1d_lookups),
        ),
        (
            "L2 hit",
            r.l2_hits.frac(),
            s(|x| x.l2_hits),
            s(|x| x.l2_lookups),
        ),
        (
            "DRAM row hit",
            r.dram_rows.frac(),
            s(|x| x.dram_row_hits),
            s(|x| x.dram_row_hits) + s(|x| x.dram_row_misses),
        ),
        (
            "compressible",
            r.bpc_fits.frac(),
            s(|x| x.spec_compressed),
            s(|x| x.spec_fetches),
        ),
    ] {
        notes.push(format!(
            "replayed {what} ratio {replayed:.3} vs in-run {:.3}",
            ratio(a, b)
        ));
    }
}

/// Σ over cells of in-run operation counts × replayed cost per
/// operation, in seconds: an estimate of the host time the replayed
/// layers account for inside `run_steps`.
fn replay_estimate_s(stats: &[(&Cell, &Stats)], r: &Replays) -> f64 {
    let mut ns = 0.0;
    for &(c, s) in stats {
        let tlb = match c.policy.def.tlb {
            TlbKind::Base => r.tlb_lookup[0],
            TlbKind::Colt => r.tlb_lookup[1],
            TlbKind::SnakeByte => r.tlb_lookup[2],
        }
        .per_op();
        let n = |v: u64| v as f64;
        let l1d_miss = s.l1d_lookups - s.l1d_hits;
        let l2_miss = s.l2_lookups - s.l2_hits;
        ns += n(s.events_processed) * r.calendar.per_op()
            + n(s.loads + s.stores) * r.coalesce.per_op()
            + n(s.l1_tlb_lookups + s.l2_tlb_lookups) * tlb
            + n(s.l1_tlb_lookups - s.l1_tlb_hits + s.l2_tlb_lookups - s.l2_tlb_hits)
                * r.tlb_fill.per_op()
            + n(s.l1d_lookups) * r.l1d_probe.per_op()
            + n(s.l2_lookups) * r.l2_probe.per_op()
            + n(l1d_miss + l2_miss) * r.cache_fill.per_op()
            + n(s.page_walks) * (r.walk.per_op() + r.touch.per_op())
            + n(l2_miss) * r.dram.per_op()
            + n(s.chunks_evicted) * r.evict.per_op()
            + n(s.spec_fetches) * r.bpc_size.per_op()
            + n(s.speculations) * (r.mod_predict.per_op() + r.mod_train.per_op());
    }
    ns / 1e9
}

/// Share of a pass's wall time covered by the self time of its layer
/// spans.
fn span_coverage(all: &[spans::Span], root: usize) -> f64 {
    let own = spans::self_times_ns(all);
    let covered: u64 = spans::subtree(all, root)
        .into_iter()
        .filter(|&i| LAYER_SPANS.contains(&all[i].name))
        .map(|i| own[i])
        .sum();
    covered as f64 / all[root].dur_ns().max(1) as f64
}

/// Per-cell `ResultCache::store` and `load` times (ms) for the cold
/// pass's results, in a scratch directory removed afterwards.
fn cache_timings(cells: &[Cell], cold: &Pass, out: &Path) -> Result<(Vec<f64>, Vec<f64>), String> {
    let dir = out.join("cache-replay");
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ResultCache::new(&dir);
    let (mut store, mut load) = (Vec::new(), Vec::new());
    for (c, run) in cells.iter().zip(&cold.cells) {
        let Ok(run) = run else { continue };
        let key = cell_key(
            &c.workload,
            c.policy,
            &c.opts,
            &gpu_config_for(&c.workload, c.policy, &c.opts),
        );
        let t = Instant::now(); // lint:allow(nondeterminism)
        cache.store(key, &run.stats, run.wall_s)?;
        store.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now(); // lint:allow(nondeterminism)
        let hit = cache.load(key)?;
        load.push(t.elapsed().as_secs_f64() * 1e3);
        if hit.map(|h| h.stats.digest()) != Some(run.digest) {
            return Err(format!(
                "{}: result cache did not round-trip the cell",
                c.label()
            ));
        }
    }
    std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok((store, load))
}

/// Resets the peak-RSS high-water mark, so `VmHWM` covers what follows.
/// Best effort: without the reset the mark covers the whole process.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size (`VmHWM`) in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak_rss_mb: /proc/self/status unreadable: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("peak_rss_mb: no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn sum(stats: &[(&Cell, &Stats)], f: impl Fn(&Stats) -> u64) -> u64 {
    stats.iter().map(|(_, s)| f(s)).sum()
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}
