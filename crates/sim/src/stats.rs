//! Simulation statistics: everything the paper's figures report.

use crate::checkpoint::{CkptError, Reader, Writer};
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

    /// Folds another accumulator into this one. Exact, because the
    /// accumulator is an integer sum — merging per-lane means in any
    /// order yields the same (sum, n) a single sequential accumulator
    /// would have.
    pub fn merge(&mut self, other: &Mean) {
        self.sum += other.sum;
        self.n += other.n;
    }

    /// Serializes the accumulator (the `Stats` codec).
    pub fn save_state(&self, w: &mut Writer) {
        w.u64(self.sum);
        w.u64(self.n);
    }

    /// Restores the accumulator (the `Stats` codec).
    pub fn load_state(&mut self, r: &mut Reader) -> Result<(), CkptError> {
        self.sum = r.u64()?;
        self.n = r.u64()?;
        Ok(())
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

    /// Serializes the histogram (the `Stats` codec).
    pub fn save_state(&self, w: &mut Writer) {
        w.u64_slice(&self.buckets);
        w.u64(self.n);
    }

    /// Restores the histogram (the `Stats` codec).
    pub fn load_state(&mut self, r: &mut Reader) -> Result<(), CkptError> {
        r.u64_slice_into(&mut self.buckets)?;
        self.n = r.u64()?;
        Ok(())
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

/// All counters for one simulation run.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    /// Total simulated cycles.
    pub cycles: Cycle,
    /// Simulation events dispatched by the engine's calendar (a host-side
    /// throughput denominator: events per wall-second, not a GPU metric).
    pub events_processed: u64,
    /// Cycles in which neither engine domain processed an event, counted
    /// from the domains' merged processed-cycle lists at each barrier.
    /// The calendars jump over these cycles; they still count in
    /// `cycles`, so skipping them is invisible to every simulated metric.
    pub idle_cycles_skipped: u64,
    /// Warp instructions issued (loads + compute ops).
    pub instructions: u64,
    /// Warp load instructions issued.
    pub loads: u64,
    /// Warp store instructions issued.
    pub stores: u64,
    /// Dirty sectors written back from the L2 to DRAM.
    pub writebacks: u64,
    /// Coalesced sector requests issued to the memory system.
    pub sector_requests: u64,
    /// Warp memory instructions fully resolved on the inline hit fast
    /// path (every sector hit the L1 TLB and L1 cache with free ports, so
    /// no calendar events were scheduled).
    pub fast_path_hits: u64,
    /// Sector requests resolved on the inline hit fast path.
    pub fast_path_sectors: u64,
    /// Requests still incomplete when the run finished (always 0 in a
    /// healthy run; counted instead of panicking so checked-mode release
    /// builds surface lost-event bugs too).
    pub lost_requests: u64,
    /// Cycles during which an SM had warps but none ready (summed over SMs).
    pub stall_cycles: u64,

    /// L1 TLB lookups / hits.
    pub l1_tlb_lookups: u64,
    /// L1 TLB hits.
    pub l1_tlb_hits: u64,
    /// L2 TLB lookups.
    pub l2_tlb_lookups: u64,
    /// L2 TLB hits.
    pub l2_tlb_hits: u64,
    /// Completed page walks.
    pub page_walks: u64,
    /// Page walks aborted by EAF before completion.
    pub walks_aborted: u64,
    /// Walk requests satisfied by merging into a pending walk.
    pub walk_merges: u64,
    /// Memory accesses issued by page walkers.
    pub walk_memory_accesses: u64,
    /// TLB fills propagated to other SMs by EAF.
    pub eaf_cross_sm_fills: u64,
    /// TLB entries installed by EAF.
    pub eaf_fills: u64,
    /// Attempts that found the per-SM L1 TLB MSHR file full: the first
    /// attempt of a request and every retry of it from the overflow
    /// queue, so one request can count many times.
    pub l1_tlb_mshr_full: u64,
    /// Attempts that found the shared L2 TLB MSHR file full: the first
    /// lookup and every retry of it from the overflow queue, which is
    /// retried after each walk completion and each early or rapid fill.
    /// One lookup can count many times (37.6M counts for 94.5k L2 TLB
    /// lookups on the benchmark's paper-scale SSSP cells).
    pub l2_tlb_mshr_full: u64,
    /// Sector fetches that found a cache MSHR file full.
    pub cache_mshr_full: u64,
    /// Walk requests that found the page-walk buffer full.
    pub pw_buffer_full: u64,
    /// MSHR/PW-buffer entries released early by EAF.
    pub eaf_releases: u64,

    /// L1 data-cache sector lookups.
    pub l1d_lookups: u64,
    /// L1 data-cache sector hits.
    pub l1d_hits: u64,
    /// L2 cache sector lookups.
    pub l2_lookups: u64,
    /// L2 cache sector hits.
    pub l2_hits: u64,
    /// Bytes read from DRAM.
    pub dram_read_bytes: u64,
    /// Bytes written to DRAM.
    pub dram_write_bytes: u64,
    /// DRAM row-buffer hits.
    pub dram_row_hits: u64,
    /// DRAM row-buffer misses (activations).
    pub dram_row_misses: u64,

    /// Page faults taken (first-touch or refault after eviction).
    pub page_faults: u64,
    /// Pages migrated to GPU memory.
    pub pages_migrated: u64,
    /// Accesses served remotely from host memory (cold pages below the
    /// access-counter migration threshold).
    pub remote_accesses: u64,
    /// 2MB chunks evicted under oversubscription.
    pub chunks_evicted: u64,
    /// TLB shootdowns performed.
    pub tlb_shootdowns: u64,
    /// Chunks promoted to 2MB pages.
    pub promotions: u64,
    /// Promoted chunks splintered back to 4KB pages.
    pub splinters: u64,
    /// Extra page-table references charged for merging (SnakeByte).
    pub merge_memory_accesses: u64,

    /// Speculations attempted.
    pub speculations: u64,
    /// Speculations whose predicted PPN matched the real translation.
    pub spec_correct: u64,
    /// Speculations on pages not resident in GPU memory (false speculation).
    pub spec_false: u64,
    /// Speculative fetches that reached DRAM.
    pub spec_fetches: u64,
    /// Sectors fetched speculatively that were compressed (had page info).
    pub spec_compressed: u64,
    /// Mis-speculations detected by CAVA VPN mismatch.
    pub cava_mismatches: u64,
    /// Speculations confirmed early by the rapid validation-on-use check
    /// (Revelator-class policies), releasing walk resources before the
    /// background translation completes.
    pub rapid_validations: u64,
    /// Policy-private table entries installed (MOD/seed/dead-region
    /// tables), from [`TranslationPolicy::policy_counters`].
    ///
    /// [`TranslationPolicy::policy_counters`]: crate::hooks::TranslationPolicy::policy_counters
    pub policy_installs: u64,
    /// Policy-private table entries displaced by capacity or conflict.
    pub policy_evictions: u64,
    /// Policy-private table lookups that fed a prediction or hint.
    pub policy_hits: u64,
    /// Counts per speculation outcome class (correct speculations only).
    pub outcomes: OutcomeCounts,

    /// TLB-hit coverage histogram (counts per bucket).
    pub coverage_hits: [u64; 5],

    /// Mean end-to-end latency of warp load instructions.
    pub load_latency: Mean,
    /// Mean latency of sector requests (issue to data-usable).
    pub sector_latency: Mean,
    /// Log2 histogram of sector-request latencies (for percentiles).
    pub sector_latency_hist: Histogram,
    /// Mean page-walk latency.
    pub walk_latency: Mean,

    /// Sectors considered at migration.
    pub migrate_sectors: u64,
    /// Sectors that compressed below the 22B budget at migration.
    pub migrate_compressed: u64,

    // --- Probe-fed observability fields (DESIGN.md §10) -------------
    // Filled only when the `probes` cargo feature is on; always present
    // so consumers need no cfg, and deliberately EXCLUDED from
    // `digest()` so the feature cannot change the determinism digest.
    /// Per-phase latency attribution over all completed sector requests
    /// (`probes` feature; zeroes otherwise). The conservation invariant
    /// `latency_breakdown.total_cycles() == sector_latency.sum()` is
    /// test- and fig20-enforced.
    // lint:digest-exempt(probe-fed attribution, zero unless the probes feature is on; excluded so the feature cannot shift the determinism digest)
    pub latency_breakdown: LatencyBreakdown,
    /// Log2 histogram of completed page-walk latencies, enqueue to
    /// done (`probes` feature; empty otherwise).
    // lint:digest-exempt(probe-fed histogram, empty unless the probes feature is on; excluded so the feature cannot shift the determinism digest)
    pub walk_latency_hist: Histogram,
    /// Log2 histogram of rapid-validation windows: speculative fetch
    /// registration to CAVA verdict (`probes` feature; empty otherwise).
    // lint:digest-exempt(probe-fed histogram, empty unless the probes feature is on; excluded so the feature cannot shift the determinism digest)
    pub validation_latency_hist: Histogram,
    /// Log2 histogram of queueing waits: TLB/cache port-grant delays
    /// plus walk-buffer residency before a walker picks the walk up
    /// (`probes` feature; empty otherwise).
    // lint:digest-exempt(probe-fed histogram, empty unless the probes feature is on; excluded so the feature cannot shift the determinism digest)
    pub queue_latency_hist: Histogram,
    /// Log2 histogram of DRAM service times, arrival to data return
    /// (`probes` feature; empty otherwise).
    // lint:digest-exempt(probe-fed histogram, empty unless the probes feature is on; excluded so the feature cannot shift the determinism digest)
    pub dram_service_hist: Histogram,

    // --- Window-structure counters (DESIGN.md §11) -------------------
    // Describe how the host advanced the two calendars, not what the
    // simulated GPU did, so — like the probe-fed fields above — they
    // are EXCLUDED from `digest()`.
    /// Horizon barriers taken by the window loop.
    // lint:digest-exempt(host calendar-structure counter; counts window barriers, not simulated behaviour)
    pub horizon_barriers: u64,
    /// Cross-domain events pushed into an outbox.
    // lint:digest-exempt(host calendar-structure counter; counts window barriers, not simulated behaviour)
    pub exchange_enqueued: u64,
    /// Outbox events delivered at horizon barriers.
    // lint:digest-exempt(host calendar-structure counter; counts window barriers, not simulated behaviour)
    pub exchange_dequeued: u64,
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

    /// FNV-1a determinism digest over every counter in declaration order.
    ///
    /// Two runs of the same cell must produce the same digest regardless of
    /// runner thread count or whether the `invariants` feature is on —
    /// checked mode and the parallel runner both gate on this. Floats are
    /// folded as raw bit patterns, so any numeric drift (not just a changed
    /// rounding) flips the digest.
    ///
    /// The probe-fed observability fields (`latency_breakdown` and the
    /// walk/validation/queue/DRAM histograms) are deliberately NOT
    /// folded: they are empty without the `probes` feature, and the
    /// probes-on/off differential test pins the digest identical across
    /// the feature — folding them would make that impossible.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        let mut w = |v: u64| h.write_u64(v);
        w(self.cycles);
        w(self.events_processed);
        w(self.idle_cycles_skipped);
        w(self.instructions);
        w(self.loads);
        w(self.stores);
        w(self.writebacks);
        w(self.sector_requests);
        w(self.fast_path_hits);
        w(self.fast_path_sectors);
        w(self.lost_requests);
        w(self.stall_cycles);
        w(self.l1_tlb_lookups);
        w(self.l1_tlb_hits);
        w(self.l2_tlb_lookups);
        w(self.l2_tlb_hits);
        w(self.page_walks);
        w(self.walks_aborted);
        w(self.walk_merges);
        w(self.walk_memory_accesses);
        w(self.eaf_cross_sm_fills);
        w(self.eaf_fills);
        w(self.l1_tlb_mshr_full);
        w(self.l2_tlb_mshr_full);
        w(self.cache_mshr_full);
        w(self.pw_buffer_full);
        w(self.eaf_releases);
        w(self.l1d_lookups);
        w(self.l1d_hits);
        w(self.l2_lookups);
        w(self.l2_hits);
        w(self.dram_read_bytes);
        w(self.dram_write_bytes);
        w(self.dram_row_hits);
        w(self.dram_row_misses);
        w(self.page_faults);
        w(self.pages_migrated);
        w(self.remote_accesses);
        w(self.chunks_evicted);
        w(self.tlb_shootdowns);
        w(self.promotions);
        w(self.splinters);
        w(self.merge_memory_accesses);
        w(self.speculations);
        w(self.spec_correct);
        w(self.spec_false);
        w(self.spec_fetches);
        w(self.spec_compressed);
        w(self.cava_mismatches);
        w(self.rapid_validations);
        w(self.policy_installs);
        w(self.policy_evictions);
        w(self.policy_hits);
        w(self.outcomes.fast_translation);
        w(self.outcomes.l1d_hit);
        w(self.outcomes.l1d_merge);
        w(self.outcomes.l1d_miss);
        for c in self.coverage_hits {
            w(c);
        }
        for m in [&self.load_latency, &self.sector_latency, &self.walk_latency] {
            w(m.sum);
            w(m.n);
        }
        for b in self.sector_latency_hist.buckets {
            w(b);
        }
        w(self.sector_latency_hist.n);
        w(self.migrate_sectors);
        w(self.migrate_compressed);
        h.finish()
    }

    /// Serializes every field — including the digest-excluded probe-fed
    /// and window-structure ones — in declaration order. The bench
    /// result cache rides on this. The exhaustive destructuring is
    /// deliberate: adding a `Stats` field without serializing it becomes
    /// a compile error here.
    pub fn save_state(&self, w: &mut Writer) {
        let Stats {
            cycles,
            events_processed,
            idle_cycles_skipped,
            instructions,
            loads,
            stores,
            writebacks,
            sector_requests,
            fast_path_hits,
            fast_path_sectors,
            lost_requests,
            stall_cycles,
            l1_tlb_lookups,
            l1_tlb_hits,
            l2_tlb_lookups,
            l2_tlb_hits,
            page_walks,
            walks_aborted,
            walk_merges,
            walk_memory_accesses,
            eaf_cross_sm_fills,
            eaf_fills,
            l1_tlb_mshr_full,
            l2_tlb_mshr_full,
            cache_mshr_full,
            pw_buffer_full,
            eaf_releases,
            l1d_lookups,
            l1d_hits,
            l2_lookups,
            l2_hits,
            dram_read_bytes,
            dram_write_bytes,
            dram_row_hits,
            dram_row_misses,
            page_faults,
            pages_migrated,
            remote_accesses,
            chunks_evicted,
            tlb_shootdowns,
            promotions,
            splinters,
            merge_memory_accesses,
            speculations,
            spec_correct,
            spec_false,
            spec_fetches,
            spec_compressed,
            cava_mismatches,
            rapid_validations,
            policy_installs,
            policy_evictions,
            policy_hits,
            outcomes,
            coverage_hits,
            load_latency,
            sector_latency,
            sector_latency_hist,
            walk_latency,
            migrate_sectors,
            migrate_compressed,
            latency_breakdown,
            walk_latency_hist,
            validation_latency_hist,
            queue_latency_hist,
            dram_service_hist,
            horizon_barriers,
            exchange_enqueued,
            exchange_dequeued,
        } = self;
        for v in [
            cycles,
            events_processed,
            idle_cycles_skipped,
            instructions,
            loads,
            stores,
            writebacks,
            sector_requests,
            fast_path_hits,
            fast_path_sectors,
            lost_requests,
            stall_cycles,
            l1_tlb_lookups,
            l1_tlb_hits,
            l2_tlb_lookups,
            l2_tlb_hits,
            page_walks,
            walks_aborted,
            walk_merges,
            walk_memory_accesses,
            eaf_cross_sm_fills,
            eaf_fills,
            l1_tlb_mshr_full,
            l2_tlb_mshr_full,
            cache_mshr_full,
            pw_buffer_full,
            eaf_releases,
            l1d_lookups,
            l1d_hits,
            l2_lookups,
            l2_hits,
            dram_read_bytes,
            dram_write_bytes,
            dram_row_hits,
            dram_row_misses,
            page_faults,
            pages_migrated,
            remote_accesses,
            chunks_evicted,
            tlb_shootdowns,
            promotions,
            splinters,
            merge_memory_accesses,
            speculations,
            spec_correct,
            spec_false,
            spec_fetches,
            spec_compressed,
            cava_mismatches,
            rapid_validations,
            policy_installs,
            policy_evictions,
            policy_hits,
        ] {
            w.u64(*v);
        }
        w.u64(outcomes.fast_translation);
        w.u64(outcomes.l1d_hit);
        w.u64(outcomes.l1d_merge);
        w.u64(outcomes.l1d_miss);
        w.u64_slice(coverage_hits);
        load_latency.save_state(w);
        sector_latency.save_state(w);
        sector_latency_hist.save_state(w);
        walk_latency.save_state(w);
        w.u64(*migrate_sectors);
        w.u64(*migrate_compressed);
        w.u64_slice(&latency_breakdown.cycles);
        w.u64(latency_breakdown.sectors);
        walk_latency_hist.save_state(w);
        validation_latency_hist.save_state(w);
        queue_latency_hist.save_state(w);
        dram_service_hist.save_state(w);
        w.u64(*horizon_barriers);
        w.u64(*exchange_enqueued);
        w.u64(*exchange_dequeued);
    }

    /// Folds another `Stats` into this one — the engine keeps one
    /// `Stats` per domain (the SM lane and the shared lane) and merges
    /// them at finish. Counters add; means and histograms fold their
    /// integer accumulators (exact and order-insensitive); `cycles` takes
    /// the max (each domain records the last cycle it dispatched). The
    /// exhaustive destructuring makes adding a `Stats` field without
    /// deciding its merge role a compile error.
    pub fn merge(&mut self, other: &Stats) {
        let Stats {
            cycles,
            events_processed,
            idle_cycles_skipped,
            instructions,
            loads,
            stores,
            writebacks,
            sector_requests,
            fast_path_hits,
            fast_path_sectors,
            lost_requests,
            stall_cycles,
            l1_tlb_lookups,
            l1_tlb_hits,
            l2_tlb_lookups,
            l2_tlb_hits,
            page_walks,
            walks_aborted,
            walk_merges,
            walk_memory_accesses,
            eaf_cross_sm_fills,
            eaf_fills,
            l1_tlb_mshr_full,
            l2_tlb_mshr_full,
            cache_mshr_full,
            pw_buffer_full,
            eaf_releases,
            l1d_lookups,
            l1d_hits,
            l2_lookups,
            l2_hits,
            dram_read_bytes,
            dram_write_bytes,
            dram_row_hits,
            dram_row_misses,
            page_faults,
            pages_migrated,
            remote_accesses,
            chunks_evicted,
            tlb_shootdowns,
            promotions,
            splinters,
            merge_memory_accesses,
            speculations,
            spec_correct,
            spec_false,
            spec_fetches,
            spec_compressed,
            cava_mismatches,
            rapid_validations,
            policy_installs,
            policy_evictions,
            policy_hits,
            outcomes,
            coverage_hits,
            load_latency,
            sector_latency,
            sector_latency_hist,
            walk_latency,
            migrate_sectors,
            migrate_compressed,
            latency_breakdown,
            walk_latency_hist,
            validation_latency_hist,
            queue_latency_hist,
            dram_service_hist,
            horizon_barriers,
            exchange_enqueued,
            exchange_dequeued,
        } = other;
        self.cycles = self.cycles.max(*cycles);
        for (dst, src) in [
            (&mut self.events_processed, events_processed),
            (&mut self.idle_cycles_skipped, idle_cycles_skipped),
            (&mut self.instructions, instructions),
            (&mut self.loads, loads),
            (&mut self.stores, stores),
            (&mut self.writebacks, writebacks),
            (&mut self.sector_requests, sector_requests),
            (&mut self.fast_path_hits, fast_path_hits),
            (&mut self.fast_path_sectors, fast_path_sectors),
            (&mut self.lost_requests, lost_requests),
            (&mut self.stall_cycles, stall_cycles),
            (&mut self.l1_tlb_lookups, l1_tlb_lookups),
            (&mut self.l1_tlb_hits, l1_tlb_hits),
            (&mut self.l2_tlb_lookups, l2_tlb_lookups),
            (&mut self.l2_tlb_hits, l2_tlb_hits),
            (&mut self.page_walks, page_walks),
            (&mut self.walks_aborted, walks_aborted),
            (&mut self.walk_merges, walk_merges),
            (&mut self.walk_memory_accesses, walk_memory_accesses),
            (&mut self.eaf_cross_sm_fills, eaf_cross_sm_fills),
            (&mut self.eaf_fills, eaf_fills),
            (&mut self.l1_tlb_mshr_full, l1_tlb_mshr_full),
            (&mut self.l2_tlb_mshr_full, l2_tlb_mshr_full),
            (&mut self.cache_mshr_full, cache_mshr_full),
            (&mut self.pw_buffer_full, pw_buffer_full),
            (&mut self.eaf_releases, eaf_releases),
            (&mut self.l1d_lookups, l1d_lookups),
            (&mut self.l1d_hits, l1d_hits),
            (&mut self.l2_lookups, l2_lookups),
            (&mut self.l2_hits, l2_hits),
            (&mut self.dram_read_bytes, dram_read_bytes),
            (&mut self.dram_write_bytes, dram_write_bytes),
            (&mut self.dram_row_hits, dram_row_hits),
            (&mut self.dram_row_misses, dram_row_misses),
            (&mut self.page_faults, page_faults),
            (&mut self.pages_migrated, pages_migrated),
            (&mut self.remote_accesses, remote_accesses),
            (&mut self.chunks_evicted, chunks_evicted),
            (&mut self.tlb_shootdowns, tlb_shootdowns),
            (&mut self.promotions, promotions),
            (&mut self.splinters, splinters),
            (&mut self.merge_memory_accesses, merge_memory_accesses),
            (&mut self.speculations, speculations),
            (&mut self.spec_correct, spec_correct),
            (&mut self.spec_false, spec_false),
            (&mut self.spec_fetches, spec_fetches),
            (&mut self.spec_compressed, spec_compressed),
            (&mut self.cava_mismatches, cava_mismatches),
            (&mut self.rapid_validations, rapid_validations),
            (&mut self.policy_installs, policy_installs),
            (&mut self.policy_evictions, policy_evictions),
            (&mut self.policy_hits, policy_hits),
            (&mut self.horizon_barriers, horizon_barriers),
            (&mut self.exchange_enqueued, exchange_enqueued),
            (&mut self.exchange_dequeued, exchange_dequeued),
        ] {
            *dst += *src;
        }
        self.outcomes.fast_translation += outcomes.fast_translation;
        self.outcomes.l1d_hit += outcomes.l1d_hit;
        self.outcomes.l1d_merge += outcomes.l1d_merge;
        self.outcomes.l1d_miss += outcomes.l1d_miss;
        for (dst, src) in self.coverage_hits.iter_mut().zip(coverage_hits.iter()) {
            *dst += *src;
        }
        self.load_latency.merge(load_latency);
        self.sector_latency.merge(sector_latency);
        self.sector_latency_hist.merge(sector_latency_hist);
        self.walk_latency.merge(walk_latency);
        self.migrate_sectors += migrate_sectors;
        self.migrate_compressed += migrate_compressed;
        for (dst, src) in
            self.latency_breakdown.cycles.iter_mut().zip(latency_breakdown.cycles.iter())
        {
            *dst += *src;
        }
        self.latency_breakdown.sectors += latency_breakdown.sectors;
        self.walk_latency_hist.merge(walk_latency_hist);
        self.validation_latency_hist.merge(validation_latency_hist);
        self.queue_latency_hist.merge(queue_latency_hist);
        self.dram_service_hist.merge(dram_service_hist);
    }

    /// Restores every field written by [`save_state`](Self::save_state).
    pub fn load_state(&mut self, r: &mut Reader) -> Result<(), CkptError> {
        for v in [
            &mut self.cycles,
            &mut self.events_processed,
            &mut self.idle_cycles_skipped,
            &mut self.instructions,
            &mut self.loads,
            &mut self.stores,
            &mut self.writebacks,
            &mut self.sector_requests,
            &mut self.fast_path_hits,
            &mut self.fast_path_sectors,
            &mut self.lost_requests,
            &mut self.stall_cycles,
            &mut self.l1_tlb_lookups,
            &mut self.l1_tlb_hits,
            &mut self.l2_tlb_lookups,
            &mut self.l2_tlb_hits,
            &mut self.page_walks,
            &mut self.walks_aborted,
            &mut self.walk_merges,
            &mut self.walk_memory_accesses,
            &mut self.eaf_cross_sm_fills,
            &mut self.eaf_fills,
            &mut self.l1_tlb_mshr_full,
            &mut self.l2_tlb_mshr_full,
            &mut self.cache_mshr_full,
            &mut self.pw_buffer_full,
            &mut self.eaf_releases,
            &mut self.l1d_lookups,
            &mut self.l1d_hits,
            &mut self.l2_lookups,
            &mut self.l2_hits,
            &mut self.dram_read_bytes,
            &mut self.dram_write_bytes,
            &mut self.dram_row_hits,
            &mut self.dram_row_misses,
            &mut self.page_faults,
            &mut self.pages_migrated,
            &mut self.remote_accesses,
            &mut self.chunks_evicted,
            &mut self.tlb_shootdowns,
            &mut self.promotions,
            &mut self.splinters,
            &mut self.merge_memory_accesses,
            &mut self.speculations,
            &mut self.spec_correct,
            &mut self.spec_false,
            &mut self.spec_fetches,
            &mut self.spec_compressed,
            &mut self.cava_mismatches,
            &mut self.rapid_validations,
            &mut self.policy_installs,
            &mut self.policy_evictions,
            &mut self.policy_hits,
        ] {
            *v = r.u64()?;
        }
        self.outcomes.fast_translation = r.u64()?;
        self.outcomes.l1d_hit = r.u64()?;
        self.outcomes.l1d_merge = r.u64()?;
        self.outcomes.l1d_miss = r.u64()?;
        r.u64_slice_into(&mut self.coverage_hits)?;
        self.load_latency.load_state(r)?;
        self.sector_latency.load_state(r)?;
        self.sector_latency_hist.load_state(r)?;
        self.walk_latency.load_state(r)?;
        self.migrate_sectors = r.u64()?;
        self.migrate_compressed = r.u64()?;
        r.u64_slice_into(&mut self.latency_breakdown.cycles)?;
        self.latency_breakdown.sectors = r.u64()?;
        self.walk_latency_hist.load_state(r)?;
        self.validation_latency_hist.load_state(r)?;
        self.queue_latency_hist.load_state(r)?;
        self.dram_service_hist.load_state(r)?;
        self.horizon_barriers = r.u64()?;
        self.exchange_enqueued = r.u64()?;
        self.exchange_dequeued = r.u64()?;
        Ok(())
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
    fn save_load_round_trips_every_field() {
        let mut s = Stats { loads: 3, cycles: 99, spec_correct: 4, ..Stats::default() };
        s.load_latency.add(10);
        s.sector_latency_hist.add(100);
        s.coverage_hits[2] = 7;
        s.outcomes.record(SpecOutcome::L1dMerge);
        s.latency_breakdown.add(crate::probe::Phase::Walk, 55);
        s.walk_latency_hist.add(200);
        s.horizon_barriers = 2;
        let mut w = Writer::new();
        s.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut restored = Stats::default();
        restored.load_state(&mut Reader::new(&bytes)).expect("stats round-trip decodes");
        assert_eq!(s.digest(), restored.digest());
        assert_eq!(format!("{s:?}"), format!("{restored:?}"), "full-field equality");
        // A flipped byte must change the digest or fail the decode —
        // never silently restore.
        let mut tampered = bytes.clone();
        tampered[0] ^= 0xFF;
        let mut t = Stats::default();
        if t.load_state(&mut Reader::new(&tampered)).is_ok() {
            assert_ne!(s.digest(), t.digest());
        }
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
        assert_eq!(a.cycles, 80, "cycles take the max");
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
