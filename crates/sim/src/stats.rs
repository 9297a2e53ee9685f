//! Simulation statistics: everything the paper's figures report.
//!
//! [`Stats`] is declared once, as the `stats_table!` below. Each row is
//! one counter, tagged `sim` (simulated behaviour, folded into
//! [`Stats::digest`]) or `host` (probe-fed attribution and
//! window-structure counters, kept out of the digest). The table also
//! generates [`Stats::visit`]/[`Stats::visit_mut`], one walk over every
//! `u64` word of every row in table order; the digest, [`Stats::merge`]
//! and the result-cache payload ([`Stats::to_words`]/[`Stats::from_words`])
//! are built on that walk, so no other list of the fields exists.

use crate::config::Cycle;
use crate::invariant::Fnv64;
use crate::probe::LatencyBreakdown;

/// Outcome classes for memory accesses that received a *correct*
/// speculative translation (paper Fig 16).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpecOutcome {
    /// Rapid validation succeeded (CAVA) — translation overhead eliminated.
    FastTranslation,
    /// Validation unavailable (raw sector); the background translation
    /// completed after the fetch and the original access hit the
    /// prefetched sector in the L1.
    L1dHit,
    /// Validation unavailable; the background translation completed before
    /// the fetch and the original access merged with the in-flight
    /// speculative fetch in the cache MSHR.
    L1dMerge,
    /// The speculatively fetched sector was evicted before the original
    /// access could use it — no benefit.
    L1dMiss,
}

/// Coverage buckets for TLB-entry reach (paper Fig 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoverageBucket {
    /// A single 4KB page.
    Pages4K,
    /// 8KB–32KB of reach.
    To32K,
    /// 64KB–256KB of reach.
    To256K,
    /// 512KB–1MB of reach.
    To1M,
    /// A full 2MB (or larger) region.
    From2M,
}

impl CoverageBucket {
    /// Buckets a coverage expressed in 4KB pages.
    pub fn of_pages(pages: u64) -> Self {
        match pages {
            0..=1 => CoverageBucket::Pages4K,
            2..=8 => CoverageBucket::To32K,
            9..=64 => CoverageBucket::To256K,
            65..=256 => CoverageBucket::To1M,
            _ => CoverageBucket::From2M,
        }
    }

    /// All buckets, smallest reach first.
    pub const ALL: [CoverageBucket; 5] = [
        CoverageBucket::Pages4K,
        CoverageBucket::To32K,
        CoverageBucket::To256K,
        CoverageBucket::To1M,
        CoverageBucket::From2M,
    ];

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            CoverageBucket::Pages4K => "4KB",
            CoverageBucket::To32K => "8-32KB",
            CoverageBucket::To256K => "64-256KB",
            CoverageBucket::To1M => "512KB-1MB",
            CoverageBucket::From2M => ">=2MB",
        }
    }
}

/// Running mean without storing samples. The accumulator is an integer
/// (all simulator samples are cycle counts), which keeps the digest
/// insensitive to accumulation order — integer addition commutes where
/// float addition does not.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mean {
    sum: u64,
    n: u64,
}

impl Mean {
    /// Adds a sample.
    pub fn add(&mut self, x: u64) {
        self.sum += x;
        self.n += 1;
    }

    /// Current mean (0 if empty).
    pub fn value(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum as f64 / self.n as f64
        }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sum of all samples (the latency-conservation checks compare
    /// this against per-phase attribution totals).
    pub fn sum(&self) -> u64 {
        self.sum
    }
}

/// A log2-bucketed latency histogram with percentile estimation.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    /// Bucket `i` counts samples in `[2^i, 2^(i+1))` cycles.
    buckets: [u64; 32],
    n: u64,
}

impl Histogram {
    /// Adds a latency sample.
    pub fn add(&mut self, cycles: u64) {
        let idx = (64 - cycles.max(1).leading_zeros() - 1).min(31) as usize;
        self.buckets[idx] += 1;
        self.n += 1;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Folds another histogram into this one, bucket by bucket.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.n += other.n;
    }

    /// Estimates percentile `p` (0.0–1.0) as the upper edge of the bucket
    /// containing it (conservative; resolution is a factor of two).
    pub fn percentile(&self, p: f64) -> u64 {
        if self.n == 0 {
            return 0;
        }
        let target = (p.clamp(0.0, 1.0) * self.n as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target.max(1) {
                return 1 << (i + 1);
            }
        }
        1 << 31
    }
}

/// Per-outcome counters for Fig 16.
#[derive(Debug, Clone, Copy, Default)]
pub struct OutcomeCounts {
    /// Rapid-validation successes.
    pub fast_translation: u64,
    /// Late-translation L1 hits on prefetched sectors.
    pub l1d_hit: u64,
    /// MSHR merges with in-flight speculative fetches.
    pub l1d_merge: u64,
    /// Speculative sectors evicted before use.
    pub l1d_miss: u64,
}

impl OutcomeCounts {
    /// Records one outcome.
    pub fn record(&mut self, o: SpecOutcome) {
        match o {
            SpecOutcome::FastTranslation => self.fast_translation += 1,
            SpecOutcome::L1dHit => self.l1d_hit += 1,
            SpecOutcome::L1dMerge => self.l1d_merge += 1,
            SpecOutcome::L1dMiss => self.l1d_miss += 1,
        }
    }

    /// Total recorded outcomes.
    pub fn total(&self) -> u64 {
        self.fast_translation + self.l1d_hit + self.l1d_merge + self.l1d_miss
    }

    /// Fraction of a given count over the total (0 if empty).
    pub fn fraction(&self, count: u64) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            count as f64 / t as f64
        }
    }
}

/// A row's part in the determinism contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Simulated behaviour: folded into [`Stats::digest`].
    Sim,
    /// Host-side attribution or calendar structure: kept out of the
    /// digest, so the `probes` feature and the window loop cannot
    /// shift it.
    Host,
}

/// A row's value as a fixed sequence of `u64` words, in digest order.
/// Implemented for the integer row types only, so a float row fails to
/// compile.
trait Words {
    fn words(&self) -> impl Iterator<Item = &u64>;
    fn words_mut(&mut self) -> impl Iterator<Item = &mut u64>;
}

impl Words for u64 {
    fn words(&self) -> impl Iterator<Item = &u64> {
        std::iter::once(self)
    }
    fn words_mut(&mut self) -> impl Iterator<Item = &mut u64> {
        std::iter::once(self)
    }
}

impl<const N: usize> Words for [u64; N] {
    fn words(&self) -> impl Iterator<Item = &u64> {
        self.iter()
    }
    fn words_mut(&mut self) -> impl Iterator<Item = &mut u64> {
        self.iter_mut()
    }
}

impl Words for Mean {
    fn words(&self) -> impl Iterator<Item = &u64> {
        [&self.sum, &self.n].into_iter()
    }
    fn words_mut(&mut self) -> impl Iterator<Item = &mut u64> {
        [&mut self.sum, &mut self.n].into_iter()
    }
}

impl Words for Histogram {
    fn words(&self) -> impl Iterator<Item = &u64> {
        self.buckets.iter().chain([&self.n])
    }
    fn words_mut(&mut self) -> impl Iterator<Item = &mut u64> {
        self.buckets.iter_mut().chain([&mut self.n])
    }
}

impl Words for OutcomeCounts {
    fn words(&self) -> impl Iterator<Item = &u64> {
        [&self.fast_translation, &self.l1d_hit, &self.l1d_merge, &self.l1d_miss].into_iter()
    }
    fn words_mut(&mut self) -> impl Iterator<Item = &mut u64> {
        [&mut self.fast_translation, &mut self.l1d_hit, &mut self.l1d_merge, &mut self.l1d_miss]
            .into_iter()
    }
}

impl Words for LatencyBreakdown {
    fn words(&self) -> impl Iterator<Item = &u64> {
        self.cycles.iter().chain([&self.sectors])
    }
    fn words_mut(&mut self) -> impl Iterator<Item = &mut u64> {
        self.cycles.iter_mut().chain([&mut self.sectors])
    }
}

/// Declares [`Stats`] and its word walk from rows of
/// `role name: Type,`, each under its doc comment.
macro_rules! stats_table {
    (@role sim) => { Role::Sim };
    (@role host) => { Role::Host };
    ($($(#[$doc:meta])* $role:ident $name:ident: $ty:ty,)*) => {
        /// All counters for one simulation run.
        ///
        /// To add a counter, add one row to the `stats_table!` in
        /// `stats.rs`, tagged `sim` if it describes the simulated GPU or
        /// `host` if it describes how the host ran the simulation. Row
        /// order is digest order: a new `sim` row changes every digest,
        /// so the pins in `crates/core/tests/tlb_overflow.rs` and
        /// `every_word_digest_pin` must then be re-recorded on purpose.
        #[derive(Debug, Clone, Default)]
        pub struct Stats {
            $($(#[$doc])* pub $name: $ty,)*
        }

        impl Stats {
            /// Walks every word of every row in table order, passing the
            /// row's name, its role and the word.
            pub fn visit(&self, mut f: impl FnMut(&'static str, Role, u64)) {
                $(for w in self.$name.words() {
                    f(stringify!($name), stats_table!(@role $role), *w);
                })*
            }

            /// [`visit`](Self::visit) with each word mutable.
            pub fn visit_mut(&mut self, mut f: impl FnMut(&'static str, Role, &mut u64)) {
                $(for w in self.$name.words_mut() {
                    f(stringify!($name), stats_table!(@role $role), w);
                })*
            }
        }
    };
}

stats_table! {
    /// Total simulated cycles.
    sim cycles: Cycle,
    /// Simulation events dispatched by the engine's calendar (a host-side
    /// throughput denominator: events per wall-second, not a GPU metric).
    sim events_processed: u64,
    /// Cycles in which neither engine domain processed an event, counted
    /// from the domains' merged processed-cycle lists at each barrier.
    /// The calendars jump over these cycles; they still count in
    /// `cycles`, so skipping them is invisible to every simulated metric.
    sim idle_cycles_skipped: u64,
    /// Warp instructions issued (loads + compute ops).
    sim instructions: u64,
    /// Warp load instructions issued.
    sim loads: u64,
    /// Warp store instructions issued.
    sim stores: u64,
    /// Dirty sectors written back from the L2 to DRAM.
    sim writebacks: u64,
    /// Coalesced sector requests issued to the memory system.
    sim sector_requests: u64,
    /// Warp memory instructions fully resolved on the inline hit fast
    /// path (every sector hit the L1 TLB and L1 cache with free ports, so
    /// no calendar events were scheduled).
    sim fast_path_hits: u64,
    /// Sector requests resolved on the inline hit fast path.
    sim fast_path_sectors: u64,
    /// Requests still incomplete when the run finished (always 0 in a
    /// healthy run; counted instead of panicking so checked-mode release
    /// builds surface lost-event bugs too).
    sim lost_requests: u64,
    /// Cycles during which an SM had warps but none ready (summed over SMs).
    sim stall_cycles: u64,

    /// L1 TLB lookups / hits.
    sim l1_tlb_lookups: u64,
    /// L1 TLB hits.
    sim l1_tlb_hits: u64,
    /// L2 TLB lookups.
    sim l2_tlb_lookups: u64,
    /// L2 TLB hits.
    sim l2_tlb_hits: u64,
    /// Completed page walks.
    sim page_walks: u64,
    /// Page walks aborted by EAF before completion.
    sim walks_aborted: u64,
    /// Walk requests satisfied by merging into a pending walk.
    sim walk_merges: u64,
    /// Memory accesses issued by page walkers.
    sim walk_memory_accesses: u64,
    /// TLB fills propagated to other SMs by EAF.
    sim eaf_cross_sm_fills: u64,
    /// TLB entries installed by EAF.
    sim eaf_fills: u64,
    /// Attempts that found the per-SM L1 TLB MSHR file full: the first
    /// attempt of a request and every retry of it from the overflow
    /// queue, so one request can count many times.
    sim l1_tlb_mshr_full: u64,
    /// Attempts that found the shared L2 TLB MSHR file full: the first
    /// lookup and every retry of it from the overflow queue, which is
    /// retried after each walk completion and each early or rapid fill.
    /// One lookup can count many times (37.6M counts for 94.5k L2 TLB
    /// lookups on the benchmark's paper-scale SSSP cells).
    sim l2_tlb_mshr_full: u64,
    /// Sector fetches that found a cache MSHR file full.
    sim cache_mshr_full: u64,
    /// Walk requests that found the page-walk buffer full.
    sim pw_buffer_full: u64,
    /// MSHR/PW-buffer entries released early by EAF.
    sim eaf_releases: u64,

    /// L1 data-cache sector lookups.
    sim l1d_lookups: u64,
    /// L1 data-cache sector hits.
    sim l1d_hits: u64,
    /// L2 cache sector lookups.
    sim l2_lookups: u64,
    /// L2 cache sector hits.
    sim l2_hits: u64,
    /// Bytes read from DRAM.
    sim dram_read_bytes: u64,
    /// Bytes written to DRAM.
    sim dram_write_bytes: u64,
    /// DRAM row-buffer hits.
    sim dram_row_hits: u64,
    /// DRAM row-buffer misses (activations).
    sim dram_row_misses: u64,

    /// Page faults taken (first-touch or refault after eviction).
    sim page_faults: u64,
    /// Pages migrated to GPU memory.
    sim pages_migrated: u64,
    /// Accesses served remotely from host memory (cold pages below the
    /// access-counter migration threshold).
    sim remote_accesses: u64,
    /// 2MB chunks evicted under oversubscription.
    sim chunks_evicted: u64,
    /// TLB shootdowns performed.
    sim tlb_shootdowns: u64,
    /// Chunks promoted to 2MB pages.
    sim promotions: u64,
    /// Promoted chunks splintered back to 4KB pages.
    sim splinters: u64,
    /// Extra page-table references charged for merging (SnakeByte).
    sim merge_memory_accesses: u64,

    /// Speculations attempted.
    sim speculations: u64,
    /// Speculations whose predicted PPN matched the real translation.
    sim spec_correct: u64,
    /// Speculations on pages not resident in GPU memory (false speculation).
    sim spec_false: u64,
    /// Speculative fetches that reached DRAM.
    sim spec_fetches: u64,
    /// Sectors fetched speculatively that were compressed (had page info).
    sim spec_compressed: u64,
    /// Mis-speculations detected by CAVA VPN mismatch.
    sim cava_mismatches: u64,
    /// Speculations confirmed early by the rapid validation-on-use check
    /// (Revelator-class policies), releasing walk resources before the
    /// background translation completes.
    sim rapid_validations: u64,
    /// Policy-private table entries installed (MOD/seed/dead-region
    /// tables), from [`TranslationPolicy::policy_counters`].
    ///
    /// [`TranslationPolicy::policy_counters`]: crate::hooks::TranslationPolicy::policy_counters
    sim policy_installs: u64,
    /// Policy-private table entries displaced by capacity or conflict.
    sim policy_evictions: u64,
    /// Policy-private table lookups that fed a prediction or hint.
    sim policy_hits: u64,
    /// Counts per speculation outcome class (correct speculations only).
    sim outcomes: OutcomeCounts,

    /// TLB-hit coverage histogram (counts per bucket).
    sim coverage_hits: [u64; 5],

    /// Mean end-to-end latency of warp load instructions.
    sim load_latency: Mean,
    /// Mean latency of sector requests (issue to data-usable).
    sim sector_latency: Mean,
    /// Mean page-walk latency.
    sim walk_latency: Mean,
    /// Log2 histogram of sector-request latencies (for percentiles).
    sim sector_latency_hist: Histogram,

    /// Sectors considered at migration.
    sim migrate_sectors: u64,
    /// Sectors that compressed below the 22B budget at migration.
    sim migrate_compressed: u64,

    // --- Probe-fed observability rows (DESIGN.md §10) ----------------
    // Filled only when the `probes` cargo feature is on; always present
    // so consumers need no cfg.
    /// Per-phase latency attribution over all completed sector requests
    /// (`probes` feature; zeroes otherwise). The conservation invariant
    /// `latency_breakdown.total_cycles() == sector_latency.sum()` is
    /// test- and fig20-enforced. Host row: zero unless the probes
    /// feature is on, so folding it would let the feature shift the
    /// digest.
    host latency_breakdown: LatencyBreakdown,
    /// Log2 histogram of completed page-walk latencies, enqueue to
    /// done (`probes` feature; empty otherwise). Host row: probe-fed.
    host walk_latency_hist: Histogram,
    /// Log2 histogram of rapid-validation windows: speculative fetch
    /// registration to CAVA verdict (`probes` feature; empty otherwise).
    /// Host row: probe-fed.
    host validation_latency_hist: Histogram,
    /// Log2 histogram of queueing waits: TLB/cache port-grant delays
    /// plus walk-buffer residency before a walker picks the walk up
    /// (`probes` feature; empty otherwise). Host row: probe-fed.
    host queue_latency_hist: Histogram,
    /// Log2 histogram of DRAM service times, arrival to data return
    /// (`probes` feature; empty otherwise). Host row: probe-fed.
    host dram_service_hist: Histogram,

    // --- Window-structure counters (DESIGN.md §11) -------------------
    // Host rows: they count how the host advanced the two calendars,
    // not what the simulated GPU did.
    /// Horizon barriers taken by the window loop.
    host horizon_barriers: u64,
    /// Cross-domain events pushed into an outbox.
    host exchange_enqueued: u64,
    /// Outbox events delivered at horizon barriers.
    host exchange_dequeued: u64,
}

impl Stats {
    /// Speculation accuracy: correct / attempted (paper Fig 18).
    pub fn spec_accuracy(&self) -> f64 {
        if self.speculations == 0 {
            0.0
        } else {
            self.spec_correct as f64 / self.speculations as f64
        }
    }

    /// Speculation coverage: correct speculations over all L1 TLB misses
    /// (paper Fig 18).
    pub fn spec_coverage(&self) -> f64 {
        let misses = self.l1_tlb_lookups - self.l1_tlb_hits;
        if misses == 0 {
            0.0
        } else {
            self.spec_correct as f64 / misses as f64
        }
    }

    /// L1 TLB miss rate.
    pub fn l1_tlb_miss_rate(&self) -> f64 {
        if self.l1_tlb_lookups == 0 {
            0.0
        } else {
            1.0 - self.l1_tlb_hits as f64 / self.l1_tlb_lookups as f64
        }
    }

    /// L2 TLB misses per million warp instructions (workload classing,
    /// paper Table III).
    pub fn l2_tlb_mpmi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            (self.l2_tlb_lookups - self.l2_tlb_hits) as f64 * 1.0e6 / self.instructions as f64
        }
    }

    /// Total DRAM traffic in bytes.
    pub fn dram_bytes(&self) -> u64 {
        self.dram_read_bytes + self.dram_write_bytes
    }

    /// Fraction of sector requests resolved on the inline hit fast path.
    pub fn fast_path_ratio(&self) -> f64 {
        if self.sector_requests == 0 {
            0.0
        } else {
            self.fast_path_sectors as f64 / self.sector_requests as f64
        }
    }

    /// FNV-1a determinism digest over every `sim` word, in table order.
    ///
    /// Two runs of the same cell must produce the same digest regardless of
    /// runner thread count or whether the `invariants` feature is on —
    /// checked mode and the parallel runner both gate on this. The `host`
    /// rows are left out: the probe-fed ones are empty without the
    /// `probes` feature, and the probes-on/off differential test pins the
    /// digest identical across the feature.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        self.visit(|_, role, w| {
            if role == Role::Sim {
                h.write_u64(w);
            }
        });
        h.finish()
    }

    /// Folds another `Stats` into this one by adding every word — the
    /// engine keeps one `Stats` per domain (the SM lane and the shared
    /// lane) and merges them at finish. Means and histograms are integer
    /// accumulators, so the merge is exact and order-insensitive. Rows
    /// that describe the whole run (`cycles` among them) are set by
    /// `Engine::finish` after the merge.
    pub fn merge(&mut self, other: &Stats) {
        let mut theirs = other.to_words().into_iter();
        self.visit_mut(|_, _, w| *w += theirs.next().expect("both Stats walk one table"));
    }

    /// Every word of every row, `host` rows included, in table order:
    /// the result cache's payload.
    pub fn to_words(&self) -> Vec<u64> {
        let mut out = Vec::new();
        self.visit(|_, _, w| out.push(w));
        out
    }

    /// Rebuilds the `Stats` that [`to_words`](Self::to_words) produced.
    /// A payload of the wrong length is an error, never a partial
    /// restore.
    pub fn from_words(words: &[u64]) -> Result<Stats, String> {
        let mut s = Stats::default();
        let mut n = 0;
        s.visit_mut(|_, _, w| {
            if let Some(&v) = words.get(n) {
                *w = v;
            }
            n += 1;
        });
        if words.len() == n {
            Ok(s)
        } else {
            Err(format!("payload has {} words, the Stats table has {n}", words.len()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles() {
        let mut h = Histogram::default();
        for _ in 0..90 {
            h.add(100); // bucket [64,128) -> upper edge 128
        }
        for _ in 0..10 {
            h.add(10_000); // bucket [8192,16384) -> upper edge 16384
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.percentile(0.5), 128);
        assert_eq!(h.percentile(0.99), 16384);
        assert_eq!(Histogram::default().percentile(0.5), 0);
    }

    #[test]
    fn histogram_handles_extremes() {
        let mut h = Histogram::default();
        h.add(0); // clamped to 1
        h.add(u64::MAX); // clamped to the top bucket
        assert_eq!(h.count(), 2);
        assert!(h.percentile(1.0) >= 1 << 31);
    }

    #[test]
    fn coverage_bucketing() {
        assert_eq!(CoverageBucket::of_pages(1), CoverageBucket::Pages4K);
        assert_eq!(CoverageBucket::of_pages(2), CoverageBucket::To32K);
        assert_eq!(CoverageBucket::of_pages(8), CoverageBucket::To32K);
        assert_eq!(CoverageBucket::of_pages(16), CoverageBucket::To256K);
        assert_eq!(CoverageBucket::of_pages(128), CoverageBucket::To1M);
        assert_eq!(CoverageBucket::of_pages(512), CoverageBucket::From2M);
    }

    #[test]
    fn mean_accumulates() {
        let mut m = Mean::default();
        assert_eq!(m.value(), 0.0);
        m.add(10);
        m.add(20);
        assert_eq!(m.value(), 15.0);
        assert_eq!(m.count(), 2);
    }

    #[test]
    fn outcome_fractions() {
        let mut o = OutcomeCounts::default();
        o.record(SpecOutcome::FastTranslation);
        o.record(SpecOutcome::FastTranslation);
        o.record(SpecOutcome::L1dHit);
        o.record(SpecOutcome::L1dMiss);
        assert_eq!(o.total(), 4);
        assert_eq!(o.fraction(o.fast_translation), 0.5);
    }

    #[test]
    fn accuracy_and_coverage() {
        let s = Stats {
            speculations: 10,
            spec_correct: 9,
            l1_tlb_lookups: 100,
            l1_tlb_hits: 88,
            ..Stats::default()
        };
        assert!((s.spec_accuracy() - 0.9).abs() < 1e-9);
        assert!((s.spec_coverage() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn digest_covers_counters_and_float_state() {
        assert_eq!(Stats::default().digest(), Stats::default().digest());
        let bumped = Stats { loads: 1, ..Stats::default() };
        assert_ne!(Stats::default().digest(), bumped.digest());
        let mut with_mean = Stats::default();
        with_mean.load_latency.add(1);
        assert_ne!(Stats::default().digest(), with_mean.digest());
        let mut with_hist = Stats::default();
        with_hist.sector_latency_hist.add(100);
        assert_ne!(Stats::default().digest(), with_hist.digest());
    }

    #[test]
    fn digest_excludes_probe_fed_fields() {
        // The probes-on/off differential relies on these fields never
        // reaching the digest; pin that here so a refactor folding
        // "every field" back in fails fast.
        let base = Stats::default().digest();
        let mut s = Stats::default();
        s.latency_breakdown.add(crate::probe::Phase::Walk, 123);
        s.latency_breakdown.sectors = 1;
        s.walk_latency_hist.add(100);
        s.validation_latency_hist.add(7);
        s.queue_latency_hist.add(3);
        s.dram_service_hist.add(250);
        assert_eq!(base, s.digest(), "probe-fed fields leaked into the digest");
    }

    #[test]
    fn digest_excludes_window_structure_counters() {
        // The window counters describe how the host advanced the
        // calendars; they must never reach the digest.
        let base = Stats::default().digest();
        let s = Stats {
            horizon_barriers: 12,
            exchange_enqueued: 40,
            exchange_dequeued: 38,
            ..Stats::default()
        };
        assert_eq!(base, s.digest(), "window-structure counters leaked into the digest");
    }

    /// A `Stats` whose word `j` of row `name` is FNV over the bytes of
    /// `name`, then `j`: every word distinct and tied to its place.
    fn every_word_set() -> Stats {
        let mut s = Stats::default();
        let (mut row, mut j) = ("", 0);
        s.visit_mut(|name, _, w| {
            if name != row {
                (row, j) = (name, 0);
            }
            let mut h = Fnv64::new();
            for b in name.bytes() {
                h.write_u64(u64::from(b));
            }
            h.write_u64(j);
            *w = h.finish();
            j += 1;
        });
        s
    }

    #[test]
    fn every_word_digest_pin() {
        // Recorded from the hand-listed digest that preceded the table,
        // with each field set by name. A dropped, added or reordered
        // `sim` word, or a `host` row folded in, changes it.
        assert_eq!(every_word_set().digest(), 0x874b_fceb_23c0_9e7a);
    }

    #[test]
    fn words_round_trip_every_field() {
        let s = every_word_set();
        let restored = Stats::from_words(&s.to_words()).expect("a full payload decodes");
        assert_eq!(s.digest(), restored.digest());
        assert_eq!(format!("{s:?}"), format!("{restored:?}"), "full-field equality");
    }

    #[test]
    fn from_words_rejects_a_wrong_word_count() {
        let words = Stats::default().to_words();
        assert!(Stats::from_words(&words[1..]).is_err(), "one word short");
        let long: Vec<u64> = words.iter().copied().chain([0]).collect();
        assert!(Stats::from_words(&long).is_err(), "one word long");
    }

    #[test]
    fn histogram_merge_adds_buckets() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        a.add(10);
        b.add(10);
        b.add(10_000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.percentile(0.5), 16);
        assert_eq!(a.percentile(1.0), 16384);
    }

    #[test]
    fn merge_folds_lane_stats_exactly() {
        let mut a = Stats { cycles: 50, loads: 3, l1_tlb_lookups: 9, ..Stats::default() };
        a.load_latency.add(10);
        a.sector_latency_hist.add(100);
        a.coverage_hits[1] = 2;
        let mut b = Stats { cycles: 80, loads: 5, spec_correct: 2, ..Stats::default() };
        b.load_latency.add(30);
        b.outcomes.record(SpecOutcome::L1dHit);
        a.merge(&b);
        assert_eq!(a.cycles, 130, "every word adds");
        assert_eq!(a.loads, 8);
        assert_eq!(a.spec_correct, 2);
        assert_eq!(a.load_latency.count(), 2);
        assert_eq!(a.load_latency.sum(), 40);
        assert_eq!(a.outcomes.l1d_hit, 1);
    }

    #[test]
    fn mpmi() {
        let s = Stats {
            instructions: 1_000_000,
            l2_tlb_lookups: 500,
            l2_tlb_hits: 440,
            ..Stats::default()
        };
        assert!((s.l2_tlb_mpmi() - 60.0).abs() < 1e-9);
    }
}
