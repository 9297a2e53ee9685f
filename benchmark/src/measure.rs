//! Running cells and passes, and checking that their outputs are correct.
//!
//! A cell is driven through the same public entry points a harness
//! uses — `gpu_config_for`, `assemble_policy`, `Engine::{start,
//! run_steps, finish}` and `Stats::digest` — with a span around each
//! call. A pass runs every cell of a workload once, each behind
//! `catch_unwind`, so a panicking cell is counted as failed and the run
//! goes on.

use crate::spans::Tracer;
use crate::workloads::Cell;
use avatar_core::system::{assemble_policy, gpu_config_for};
use avatar_sim::{Engine, Stats};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Events per `run_steps` call: the granularity of the per-chunk
/// ns-per-event distribution. `run_steps` rounds each call up to a whole
/// barrier window, so a chunk holds at least this many events.
pub const CHUNK_EVENTS: u64 = 250_000;

/// Host timings and statistics of one simulated cell.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// The cell's simulation statistics.
    pub stats: Stats,
    /// `Stats::digest` of `stats`.
    pub digest: u64,
    /// `gpu_config_for` wall time.
    pub config_s: f64,
    /// `assemble_policy` plus `Engine::start` wall time.
    pub assemble_s: f64,
    /// Wall time of each `run_steps` call, in order.
    pub chunk_s: Vec<f64>,
    /// `Engine::finish` wall time.
    pub finish_s: f64,
    /// Wall time of the whole cell, set by [`run_pass`].
    pub wall_s: f64,
}

impl CellRun {
    /// Pre-simulation time: configuration plus assembly.
    pub fn setup_s(&self) -> f64 {
        self.config_s + self.assemble_s
    }
}

/// Sets one cell up (`id` is its index in the pass): its `GpuConfig`,
/// then the started engine. Returns the engine and both wall times.
pub fn setup(cell: &Cell, id: usize, tr: &mut Tracer) -> (Engine<'static>, f64, f64) {
    let s = tr.enter("config", Some(id));
    let cfg = gpu_config_for(&cell.workload, cell.policy, &cell.opts);
    let config_s = tr.exit(s);
    std::hint::black_box(&cfg);

    let s = tr.enter("assemble", Some(id));
    let mut engine = assemble_policy(&cell.workload, cell.policy, &cell.opts, |_| {});
    engine.start();
    (engine, config_s, tr.exit(s))
}

/// Simulates one cell (`id` is its index in the pass).
pub fn simulate(cell: &Cell, id: usize, tr: &mut Tracer) -> CellRun {
    simulate_between(cell, id, tr, CHUNK_EVENTS, || {})
}

/// [`simulate`] in `run_steps` chunks of `chunk_events`, calling `between`
/// after every chunk but the last.
pub fn simulate_between(
    cell: &Cell,
    id: usize,
    tr: &mut Tracer,
    chunk_events: u64,
    mut between: impl FnMut(),
) -> CellRun {
    let (mut engine, config_s, assemble_s) = setup(cell, id, tr);

    let mut chunk_s = Vec::new();
    loop {
        let s = tr.enter("run_steps", Some(id));
        let more = engine.run_steps(chunk_events);
        chunk_s.push(tr.exit(s));
        if !more {
            break;
        }
        between();
    }

    let s = tr.enter("finish", Some(id));
    let stats = engine.finish();
    let finish_s = tr.exit(s);

    let s = tr.enter("digest", Some(id));
    let digest = stats.digest();
    tr.exit(s);

    CellRun {
        stats,
        digest,
        config_s,
        assemble_s,
        chunk_s,
        finish_s,
        wall_s: 0.0,
    }
}

/// One pass over a workload's cells.
#[derive(Debug)]
pub struct Pass {
    /// Wall time of the pass.
    pub wall_s: f64,
    /// Each cell's run, or the message it panicked with.
    pub cells: Vec<Result<CellRun, String>>,
}

impl Pass {
    /// The cells that completed.
    pub fn ok(&self) -> impl Iterator<Item = &CellRun> {
        self.cells.iter().filter_map(|c| c.as_ref().ok())
    }

    /// Σ pre-simulation time over the completed cells.
    pub fn setup_s(&self) -> f64 {
        self.ok().map(CellRun::setup_s).sum()
    }

    /// Σ warp instructions simulated.
    pub fn instructions(&self) -> u64 {
        self.ok().map(|c| c.stats.instructions).sum()
    }
}

/// Runs every cell once through `sim`, each behind `catch_unwind`.
pub fn run_pass<F>(cells: &[Cell], tr: &mut Tracer, mut sim: F) -> Pass
where
    F: FnMut(&Cell, usize, &mut Tracer) -> CellRun,
{
    let p = tr.enter("pass", None);
    let mut out = Vec::with_capacity(cells.len());
    for (i, cell) in cells.iter().enumerate() {
        let c = tr.enter("cell", Some(i));
        let run = catch_unwind(AssertUnwindSafe(|| sim(cell, i, &mut *tr))).map_err(panic_message);
        let wall_s = tr.exit(c);
        out.push(run.map(|r| CellRun { wall_s, ..r }));
    }
    Pass {
        wall_s: tr.exit(p),
        cells: out,
    }
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

/// Counts attempted and failed cells over every pass of a run. A cell
/// fails if it panics, loses requests, breaks latency conservation
/// (probe builds), or digests differently from its first run.
#[derive(Debug)]
pub struct Ledger {
    /// Digest of each cell's first (cold) run; `None` until it succeeds.
    pub digests: Vec<Option<u64>>,
    /// Cell runs attempted.
    pub attempted: u64,
    /// Cell runs that failed.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Ledger {
    /// A ledger for `cells` cells.
    pub fn new(cells: usize) -> Self {
        Self {
            digests: vec![None; cells],
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Checks one pass. The first successful run of each cell fixes its
    /// digest; every later run must reproduce it.
    pub fn check(&mut self, cells: &[Cell], pass: &Pass) {
        for (i, (cell, run)) in cells.iter().zip(&pass.cells).enumerate() {
            self.attempted += 1;
            if let Err(why) = Self::verdict(run, self.digests[i]) {
                self.failed += 1;
                self.failures.push(format!("{}: {why}", cell.label()));
            } else if let Ok(r) = run {
                self.digests[i].get_or_insert(r.digest);
            }
        }
    }

    fn verdict(run: &Result<CellRun, String>, expect: Option<u64>) -> Result<(), String> {
        let r = run.as_ref().map_err(|msg| format!("panicked: {msg}"))?;
        let s = &r.stats;
        if s.lost_requests > 0 {
            return Err(format!("{} lost requests", s.lost_requests));
        }
        if let Some(d) = expect.filter(|&d| d != r.digest) {
            return Err(format!(
                "digest {:016x} differs from the first run's {d:016x}",
                r.digest
            ));
        }
        if cfg!(feature = "probes") {
            let b = &s.latency_breakdown;
            if b.total_cycles() != s.sector_latency.sum() || b.sectors != s.sector_requests {
                return Err(format!(
                    "latency breakdown {} cycles over {} sectors does not conserve sector \
                     latency {} cycles over {} sectors",
                    b.total_cycles(),
                    b.sectors,
                    s.sector_latency.sum(),
                    s.sector_requests
                ));
            }
        }
        Ok(())
    }

    /// Failed share of attempted cell runs.
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn a_panicking_cell_is_counted_not_fatal() {
        let mut cells = workloads::find("quick_grid").expect("workload").cells(7);
        cells.truncate(2);
        let mut tr = Tracer::new(true);
        let mut ledger = Ledger::new(cells.len());
        let pass = run_pass(&cells, &mut tr, |cell, id, tr| {
            if id == 1 {
                let _open = tr.enter("run_steps", Some(id));
                panic!("cell diverged on purpose");
            }
            simulate(cell, id, tr)
        });
        ledger.check(&cells, &pass);
        assert_eq!(ledger.attempted, 2);
        assert_eq!(ledger.failed, 1);
        assert!(ledger.fail_frac() > 0.0);
        assert!(
            ledger.failures[0].contains("diverged on purpose"),
            "{:?}",
            ledger.failures
        );
        assert!(pass.cells[0].is_ok(), "the healthy cell still ran");
        // The aborted cell's spans were closed by its cell span.
        assert!(tr.spans().iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn a_changed_digest_fails_the_later_run() {
        let mut cells = workloads::find("quick_grid").expect("workload").cells(7);
        cells.truncate(1);
        let mut tr = Tracer::new(false);
        let mut ledger = Ledger::new(1);
        let first = run_pass(&cells, &mut tr, simulate);
        ledger.check(&cells, &first);
        assert_eq!(ledger.failed, 0, "{:?}", ledger.failures);
        let mut second = run_pass(&cells, &mut tr, simulate);
        ledger.check(&cells, &second);
        assert_eq!(ledger.failed, 0, "a repeated cell reproduces its digest");
        if let Ok(r) = &mut second.cells[0] {
            r.digest ^= 1;
        }
        ledger.check(&cells, &second);
        assert_eq!(ledger.failed, 1);
        assert!(ledger.failures[0].contains("differs"));
    }
}
