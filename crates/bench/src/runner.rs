//! Parallel scenario runner for the figure/table harnesses.
//!
//! Every paper artifact is a grid of *independent* `(PolicySelection ×
//! Workload)` simulations, so the harnesses fan their cells across a
//! scoped `std::thread` pool (no external crates). Three properties are
//! load-bearing:
//!
//! * **Determinism** — results come back keyed by cell index, in
//!   submission order, regardless of completion order or thread count.
//!   Each simulation is itself deterministic, so `--threads 1` and
//!   `--threads 8` produce byte-identical rows (a tested invariant).
//! * **Panic isolation** — a diverging cell reports as a failed row
//!   (`Err` with the panic message) instead of killing the whole figure;
//!   so does a run that lost requests (see [`Scenario::run`]). Each
//!   failed cell also prints one `failed cell:` line on stderr naming
//!   its workload, label and reason, so a table's `ERR` never hides why.
//! * **Wall-time capture** — each cell records its own execution time, so
//!   the throughput harness can report cells/sec without re-running.
//!
//! [`run_scenarios`] additionally plans each sweep against the result
//! cache ([`crate::cache`]): cells whose content-address has a valid
//! on-disk entry replay instead of running, duplicate cells within one
//! sweep run once and memoize (even with the disk cache disabled), and
//! fresh results are stored back. Cells with a trace destination bypass
//! both paths — trace files are a side effect a replay would not
//! reproduce. A cache entry whose recorded digest fails re-verification
//! aborts the sweep: silent reuse of a corrupt result is never an option.

use avatar_core::policy::PolicySelection;
use avatar_core::system::{gpu_config_for, run_policy_with, RunOptions};
use avatar_sim::config::GpuConfig;
use avatar_sim::fxhash::FxHashMap;
use avatar_sim::Stats;
use avatar_workloads::Workload;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
#[allow(clippy::disallowed_types, reason = "wall time of harness cells, never simulated state")]
use std::time::{Duration, Instant};

/// Pads shared per-cell state to its own cache-line pair so worker threads
/// taking adjacent jobs (or storing adjacent results) never false-share.
/// 128 bytes covers the adjacent-line prefetch granularity of current x86
/// parts, not just the 64-byte line itself.
#[repr(align(128))]
struct Padded<T>(T);

/// Outcome of one cell: the closure's result (or the panic message that
/// killed it) plus its wall time.
#[derive(Debug)]
pub struct Cell<T> {
    /// Index of the job in the submitted vector.
    pub index: usize,
    /// `Ok` result, or `Err(panic message)` if the cell panicked.
    pub outcome: Result<T, String>,
    /// Wall time the cell took on its worker thread.
    pub wall: Duration,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic (non-string payload)".to_string()
    }
}

/// Runs `jobs` across `threads` workers, returning results in submission
/// order. `threads` is clamped to at least 1; with one thread the jobs run
/// inline on the calling thread (no pool, easier profiling).
pub fn run_cells<T, F>(threads: usize, jobs: Vec<F>) -> Vec<Cell<T>>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let threads = threads.max(1).min(jobs.len().max(1));
    let run_one = |index: usize, job: F| {
        #[allow(clippy::disallowed_types, reason = "wall time of a harness cell")]
        let start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(job)).map_err(panic_message);
        Cell { index, outcome, wall: start.elapsed() }
    };
    if threads == 1 {
        return jobs.into_iter().enumerate().map(|(i, j)| run_one(i, j)).collect();
    }
    let slots: Vec<Padded<Mutex<Option<F>>>> =
        jobs.into_iter().map(|j| Padded(Mutex::new(Some(j)))).collect();
    let results: Vec<Padded<Mutex<Option<Cell<T>>>>> =
        (0..slots.len()).map(|_| Padded(Mutex::new(None))).collect();
    let next = Padded(AtomicUsize::new(0));
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.0.fetch_add(1, Ordering::Relaxed);
                if i >= slots.len() {
                    break;
                }
                let job = slots[i].0.lock().expect("job slot").take().expect("job taken twice");
                let cell = run_one(i, job);
                *results[i].0.lock().expect("result slot") = Some(cell);
            });
        }
    });
    results
        .into_iter()
        .map(|m| m.0.into_inner().expect("result lock").expect("worker died before storing"))
        .collect()
}

/// A [`GpuConfig`] adjustment applied after assembly (ablation knob).
pub type ConfigTweak = Box<dyn Fn(&mut GpuConfig) + Send + Sync>;

/// One simulation cell of a figure grid: a workload on a translation
/// policy with run options, plus an optional [`GpuConfig`] tweak for
/// ablation/sensitivity studies.
pub struct Scenario {
    /// Human-readable cell label, carried into the result (figure row/column).
    pub label: String,
    /// The workload to run, shared (not deep-cloned) across the cells of a
    /// grid: every row of a figure references the same `Arc`.
    pub workload: Arc<Workload>,
    /// The translation policy to run it on.
    pub policy: PolicySelection,
    /// Scale/SMs/oversubscription/etc.
    pub opts: RunOptions,
    /// Optional config tweak applied after assembly (ablations).
    pub tweak: Option<ConfigTweak>,
}

impl Scenario {
    /// A plain cell: workload × policy × options. Accepts a
    /// [`PolicySelection`] or a registry row (`policy::AVATAR`).
    pub fn new(
        label: impl Into<String>,
        workload: &Workload,
        policy: impl Into<PolicySelection>,
        opts: RunOptions,
    ) -> Self {
        Self::shared(label, Arc::new(workload.clone()), policy, opts)
    }

    /// Like [`new`](Self::new) but shares an already-`Arc`d workload —
    /// grids that build many cells over the same workload pay one clone
    /// total instead of one per cell.
    pub fn shared(
        label: impl Into<String>,
        workload: Arc<Workload>,
        policy: impl Into<PolicySelection>,
        opts: RunOptions,
    ) -> Self {
        Self { label: label.into(), workload, policy: policy.into(), opts, tweak: None }
    }

    /// Attaches a [`GpuConfig`] tweak (ablation/sensitivity knob).
    pub fn with_tweak(mut self, tweak: impl Fn(&mut GpuConfig) + Send + Sync + 'static) -> Self {
        self.tweak = Some(Box::new(tweak));
        self
    }

    /// The cell's content-address for the result cache, or `None` when
    /// the cell writes a trace — a side effect a cache replay would not
    /// reproduce, so traced cells always run (and are never memoized).
    pub fn cache_key(&self) -> Option<u64> {
        if self.opts.trace_out.is_some() {
            return None;
        }
        let mut cfg = gpu_config_for(&self.workload, self.policy, &self.opts);
        if let Some(t) = &self.tweak {
            t(&mut cfg);
        }
        Some(crate::cache::cell_key(&self.workload, self.policy, &self.opts, &cfg))
    }

    /// Runs the cell synchronously. When a trace destination is set but
    /// untagged, workload + cell label become the tag, so every cell of
    /// a grid sharing one `--trace-out` writes its own file. A run that
    /// lost requests (the cycle cap stopped it, or an event went
    /// missing) fails the cell: its statistics describe a partial run.
    pub fn run(&self) -> Result<Stats, String> {
        let mut opts = self.opts.clone();
        if opts.trace_out.is_some() && opts.trace_tag.is_none() {
            opts.trace_tag = Some(format!("{} {}", self.workload.abbr, self.label));
        }
        complete_run(match &self.tweak {
            Some(t) => run_policy_with(&self.workload, self.policy, &opts, |c| t(c)),
            None => run_policy_with(&self.workload, self.policy, &opts, |_| {}),
        })
    }
}

/// `stats`, or an error when the run lost requests, so a partial run
/// prints `ERR` in figure tables instead of reporting fewer loads.
fn complete_run(stats: Stats) -> Result<Stats, String> {
    match stats.lost_requests {
        0 => Ok(stats),
        n => Err(format!("{n} lost requests (cycle cap reached, or a lost event)")),
    }
}

/// Result of one [`Scenario`] cell.
#[derive(Debug)]
pub struct ScenarioResult {
    /// The scenario's label.
    pub label: String,
    /// Simulation statistics, or the panic message if the cell diverged.
    pub stats: Result<Stats, String>,
    /// Wall time of the cell.
    pub wall: Duration,
}

impl ScenarioResult {
    /// The statistics, panicking with the cell label on a failed cell.
    /// Figure binaries that cannot render partial grids use this.
    pub fn expect_stats(&self) -> &Stats {
        match &self.stats {
            Ok(s) => s,
            Err(e) => panic!("cell '{}' failed: {e}", self.label),
        }
    }
}

/// Speedup of `other` over `base`, or `None` if either cell failed —
/// figure binaries render failed cells as `ERR` rows instead of dying.
pub fn speedup_cell(base: &ScenarioResult, other: &ScenarioResult) -> Option<f64> {
    match (&base.stats, &other.stats) {
        (Ok(b), Ok(o)) => Some(avatar_core::system::speedup(b, o)),
        _ => None,
    }
}

/// Formats an optional metric for a table cell (`ERR` for failed cells).
pub fn fmt_cell(v: Option<f64>, digits: usize) -> String {
    match v {
        Some(x) => format!("{x:.digits$}"),
        None => "ERR".to_string(),
    }
}

/// How one submitted cell will be satisfied, planned before any worker
/// thread spawns.
enum Plan {
    /// Run for real; payload is the index into the spawned job list.
    Run(usize),
    /// Identical to an earlier cell of this sweep (by content-address);
    /// payload is that cell's submission index. Replayed by cloning.
    Memo(usize),
    /// Replayed from a digest-verified on-disk entry (boxed: `Stats`
    /// is large and `Run`/`Memo` are a single word).
    Hit(Box<crate::cache::CachedCell>),
}

/// Fans `scenarios` across `threads` workers; results are in submission
/// order regardless of thread count or completion order. Every failed
/// cell prints one `failed cell: <workload> <label>: <reason>` line on
/// stderr.
///
/// Before spawning, the sweep is planned against the result cache:
/// disk hits and in-sweep duplicates replay instead of running (see the
/// module docs). A cache entry that fails digest re-verification
/// panics — a sweep must never silently mix verified and unverifiable
/// results.
pub fn run_scenarios(threads: usize, scenarios: Vec<Scenario>) -> Vec<ScenarioResult> {
    // Labels are split off up front: workers return bare `Stats`, and a
    // panicked cell still reports under its real label instead of an
    // anonymous index.
    let labels: Vec<String> = scenarios.iter().map(|s| s.label.clone()).collect();
    let abbrs: Vec<&str> = scenarios.iter().map(|s| s.workload.abbr).collect();
    let keys: Vec<Option<u64>> = scenarios.iter().map(|s| s.cache_key()).collect();
    let cache = crate::cache::global();

    // Plan each cell: first occurrence of a key checks the disk cache;
    // later occurrences memoize the first regardless of disk state.
    let mut first_of: FxHashMap<u64, usize> = FxHashMap::default();
    let mut plans: Vec<Plan> = Vec::with_capacity(scenarios.len());
    let mut jobs: Vec<Scenario> = Vec::new();
    let mut job_keys: Vec<Option<u64>> = Vec::new();
    for (i, s) in scenarios.into_iter().enumerate() {
        let key = keys[i];
        if let Some(k) = key {
            if let Some(&orig) = first_of.get(&k) {
                plans.push(Plan::Memo(orig));
                continue;
            }
            first_of.insert(k, i);
            if let Some(c) = cache {
                match c.load(k) {
                    Ok(Some(cell)) => {
                        crate::cache::note_hit(cell.wall_s);
                        plans.push(Plan::Hit(Box::new(cell)));
                        continue;
                    }
                    Ok(None) => crate::cache::note_miss(),
                    // Hard stop: the entry exists, claims this address,
                    // and fails verification. Running the cell anyway
                    // would paper over a corrupt store.
                    Err(e) => panic!("result cache error for cell '{}': {e}", labels[i]),
                }
            }
        }
        plans.push(Plan::Run(jobs.len()));
        jobs.push(s);
        job_keys.push(key);
    }

    let closures: Vec<_> = jobs.into_iter().map(|s| move || s.run()).collect();
    let cells: Vec<Cell<Stats>> = run_cells(threads, closures)
        .into_iter()
        .map(|c| Cell { index: c.index, outcome: c.outcome.and_then(|run| run), wall: c.wall })
        .collect();

    // Store fresh results back (best-effort: a read-only cache directory
    // degrades to a warning, not a failed sweep).
    if let Some(c) = cache {
        for (cell, key) in cells.iter().zip(&job_keys) {
            if let (Ok(stats), Some(k)) = (&cell.outcome, key) {
                if let Err(e) = c.store(*k, stats, cell.wall.as_secs_f64()) {
                    eprintln!("warning: {e}");
                }
            }
        }
    }

    // Assemble in submission order. Memoized cells clone the resolved
    // result of their original (always an earlier index) and credit the
    // wall time that original spent — or recorded, if it was itself a
    // disk hit — as skipped.
    let mut ran: Vec<Option<Cell<Stats>>> = cells.into_iter().map(Some).collect();
    let mut results: Vec<ScenarioResult> = Vec::with_capacity(plans.len());
    let mut source_wall_s: Vec<f64> = Vec::with_capacity(plans.len());
    for ((plan, label), abbr) in plans.into_iter().zip(labels).zip(abbrs) {
        let (stats, wall, src_wall_s) = match plan {
            Plan::Run(j) => {
                let cell = ran[j].take().expect("each job index is consumed exactly once");
                let wall_s = cell.wall.as_secs_f64();
                (cell.outcome, cell.wall, wall_s)
            }
            Plan::Hit(cell) => (Ok(cell.stats), Duration::ZERO, cell.wall_s),
            Plan::Memo(orig) => {
                crate::cache::note_memoized(source_wall_s[orig]);
                (results[orig].stats.clone(), Duration::ZERO, source_wall_s[orig])
            }
        };
        if let Err(e) = &stats {
            eprintln!("failed cell: {abbr} {label}: {e}");
        }
        source_wall_s.push(src_wall_s);
        results.push(ScenarioResult { label, stats, wall });
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        // Later jobs sleep less, so completion order scrambles relative
        // to submission order; the runner must still hand each result
        // back at its submission index.
        let jobs: Vec<_> = (0..8usize)
            .map(|i| {
                move || {
                    std::thread::sleep(Duration::from_millis(2 * (8 - i) as u64));
                    i * 10
                }
            })
            .collect();
        let cells = run_cells(4, jobs);
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
            assert_eq!(c.outcome.as_ref().copied().unwrap(), i * 10);
        }
    }

    #[test]
    fn panics_become_failed_cells() {
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("cell diverged on purpose")),
            Box::new(|| 3),
        ];
        let cells = run_cells(2, jobs);
        assert_eq!(cells[0].outcome.as_ref().copied().unwrap(), 1);
        assert!(cells[1].outcome.as_ref().unwrap_err().contains("diverged on purpose"));
        assert_eq!(cells[2].outcome.as_ref().copied().unwrap(), 3);
    }

    #[test]
    fn runs_that_lost_requests_fail_their_cell() {
        assert!(complete_run(Stats::default()).is_ok());
        let partial = Stats { lost_requests: 3, ..Stats::default() };
        let err = complete_run(partial).expect_err("a run with lost requests must fail its cell");
        assert!(err.contains("3 lost requests"), "{err}");
    }

    #[test]
    fn single_thread_runs_inline() {
        let cells = run_cells(1, vec![|| 7]);
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].outcome.as_ref().copied().unwrap(), 7);
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        let jobs: Vec<_> = (0..3usize).map(|i| move || i).collect();
        let cells = run_cells(64, jobs);
        assert_eq!(cells.len(), 3);
    }

    #[test]
    fn zero_jobs_zero_cells() {
        let cells: Vec<Cell<u32>> = run_cells(4, Vec::<fn() -> u32>::new());
        assert!(cells.is_empty());
    }
}
