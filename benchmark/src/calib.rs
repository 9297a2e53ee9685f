//! Host-speed calibration for the end-to-end timings.
//!
//! The benchmark runs on a few vCPUs of a shared host. Other tenants' load
//! changes how fast those vCPUs execute: on a 2-vCPU Xeon VM a fixed job
//! ran at between 0.83 and 1.65 times its usual fast time, in stretches
//! from a fraction of a second to longer than a whole run, so a pass's wall
//! time moves by 20% and more between runs of the same code, and neither
//! more passes nor the fastest pass averages that out. The process is not descheduled (its
//! CPU time stays within 2% of its wall time and the VM records almost no
//! steal); each instruction just takes longer.
//!
//! A [`Calibrator`] times a short, fixed reference job every
//! [`INTERVAL_S`] of simulation, between the simulator's `run_steps`
//! chunks. The job is a miniature of the simulator's own inner loop,
//! frozen here so that a change to the simulator cannot move it: a
//! set-associative tag array with LRU replacement, a hash-mapped page
//! table, and a binary-heap event queue, driven by a fixed address stream.
//! Its tables (about 80 KB) stay in the core's own caches: of the
//! reference jobs tried, a cache-resident one tracked the simulator's
//! slowdown best, and ones that miss to memory tracked it worst.
//! Its time over [`NOMINAL_SAMPLE_S`] is the host's slowdown at that
//! moment. Each stretch of simulation between two jobs is divided by the
//! mean slowdown of the jobs on either side, and the quotients add up to
//! the time the simulation would have taken on a host running at nominal
//! speed, which is what the end-to-end timings report.

use std::cmp::Reverse;
// std's hasher, not the simulator's, so the job stays frozen. lint:allow(default-collections)
use std::collections::{BinaryHeap, HashMap};
// Host wall time of the reference job, never simulated state. lint:allow(nondeterminism)
use std::time::Instant;

/// Time of one reference job at nominal host speed: its usual time on a
/// quiet 2-vCPU Xeon VM.
pub const NOMINAL_SAMPLE_S: f64 = 0.0005;
/// Least time between two reference jobs.
pub const INTERVAL_S: f64 = 0.01;

const SETS: usize = 256;
const WAYS: usize = 8;
const PAGES: u64 = 1 << 10;
const QUEUE_DEPTH: usize = 2048;
const STEPS: u64 = 10_000;

/// Wall time of a stretch of simulation, and the same at nominal speed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Measured {
    /// Wall time, reference jobs excluded.
    pub wall_s: f64,
    /// The same at nominal host speed.
    pub nominal_s: f64,
}

impl Measured {
    /// The host's mean slowdown over the stretch.
    pub fn slowdown(&self) -> f64 {
        self.wall_s / self.nominal_s
    }
}

/// Times the reference job between stretches of simulation.
pub struct Calibrator {
    tags: Vec<u64>,
    stamps: Vec<u64>,
    page_table: HashMap<u64, u64>, // lint:allow(default-collections)
    queue: BinaryHeap<Reverse<u64>>,
    checksum: Option<u64>,
    /// End of the last job since [`Calibrator::start`], and its slowdown.
    last: Option<(Instant, f64)>, // lint:allow(nondeterminism)
    measured: Measured,
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibrator {
    /// A calibrator with its page table built.
    pub fn new() -> Self {
        let mut x = 0x5eed;
        let page_table = (0..PAGES)
            .map(|vpn| (vpn, splitmix64(&mut x) >> 20))
            .collect();
        Self {
            tags: vec![u64::MAX; SETS * WAYS],
            stamps: vec![0; SETS * WAYS],
            page_table,
            queue: BinaryHeap::with_capacity(QUEUE_DEPTH + 1),
            checksum: None,
            last: None,
            measured: Measured::default(),
        }
    }

    /// Starts a measured stretch with a reference job.
    pub fn start(&mut self) {
        self.measured = Measured::default();
        self.last = None;
        self.sample();
    }

    /// Runs a reference job if [`INTERVAL_S`] has passed since the last
    /// one; does nothing outside a measured stretch.
    pub fn tick(&mut self) {
        if let Some((end, _)) = self.last {
            // lint:allow(nondeterminism)
            if end.elapsed().as_secs_f64() >= INTERVAL_S {
                self.sample();
            }
        }
    }

    /// Ends the measured stretch with a reference job.
    pub fn stop(&mut self) -> Measured {
        self.sample();
        self.last = None;
        self.measured
    }

    fn sample(&mut self) {
        let start = Instant::now(); // lint:allow(nondeterminism)
        let sum = std::hint::black_box(self.job());
        let end = Instant::now(); // lint:allow(nondeterminism)
        let checksum = *self.checksum.get_or_insert(sum);
        assert_eq!(sum, checksum, "the reference job is deterministic");
        let slowdown = end.duration_since(start).as_secs_f64() / NOMINAL_SAMPLE_S;
        if let Some((prev_end, prev)) = self.last {
            let wall = start.duration_since(prev_end).as_secs_f64();
            self.measured.wall_s += wall;
            self.measured.nominal_s += wall / ((prev + slowdown) / 2.0);
        }
        self.last = Some((end, slowdown));
    }

    fn job(&mut self) -> u64 {
        self.tags.fill(u64::MAX);
        self.stamps.fill(0);
        self.queue.clear();
        let mut x = 0x0ddba11;
        let mut stream = 0u64;
        let mut sum = 0u64;
        for now in 1..=STEPS {
            // Three accesses in four continue a sequential stream; the
            // fourth jumps anywhere in the footprint.
            let r = splitmix64(&mut x);
            stream = if r & 3 == 0 { r >> 8 } else { stream + 64 };
            let addr = stream % (PAGES << 12);
            let ppn = self.page_table[&(addr >> 12)];
            let line = (ppn << 6) | ((addr >> 6) & 63);
            let set = (line as usize % SETS) * WAYS;
            let ways = set..set + WAYS;
            let hit = ways.clone().find(|&i| self.tags[i] == line);
            let slot = hit.unwrap_or_else(|| {
                ways.min_by_key(|&i| self.stamps[i])
                    .expect("a set has ways")
            });
            self.tags[slot] = line;
            self.stamps[slot] = now;
            let latency = if hit.is_some() { 4 } else { 200 + (r >> 56) };
            self.queue.push(Reverse(now + latency));
            if self.queue.len() > QUEUE_DEPTH {
                let Reverse(t) = self.queue.pop().expect("non-empty");
                sum = sum.wrapping_mul(31).wrapping_add(t ^ line);
            }
        }
        sum
    }
}

fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_job_repeats_its_checksum() {
        let mut c = Calibrator::new();
        let a = c.job();
        assert_eq!(c.job(), a);
        assert_ne!(a, 0);
    }

    #[test]
    fn a_stretch_is_measured_between_its_first_and_last_job() {
        let mut c = Calibrator::new();
        c.tick();
        assert_eq!(c.measured, Measured::default(), "no job before start");
        c.start();
        std::hint::black_box((0..200_000u64).map(|i| i ^ (i >> 3)).sum::<u64>());
        let m = c.stop();
        assert!(m.wall_s > 0.0 && m.nominal_s > 0.0, "{m:?}");
        assert!(m.slowdown() > 0.0);
        c.tick();
        assert_eq!(c.measured, m, "no job after stop");
    }
}
