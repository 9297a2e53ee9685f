//! Structured observability probes: phase taxonomy, latency-breakdown
//! attribution, and the [`Probe`] sink trait.
//!
//! The engine attributes every cycle of every completed sector request
//! to exactly one [`Phase`] (issue → coalesce → tlb → walk → fetch →
//! validate → commit) and, when a sink is attached, emits named spans
//! at the same transition points so a run can be opened in a timeline
//! viewer (see [`crate::trace_export`]). Every span is emitted whole,
//! start and end together, when it closes: the sink has no begin/end
//! pair, so an unbalanced span cannot be written.
//!
//! This module is always compiled (it is cold, plain data), but the
//! engine only *threads* it through the hot path under the `probes`
//! cargo feature; without the feature every call site collapses to an
//! empty inline function and the per-request bookkeeping fields do not
//! exist. All probe-fed statistics are excluded from
//! [`crate::Stats::digest`], so results are bit-identical with the
//! feature on or off.

use crate::config::Cycle;

/// The lifecycle phase a sector request is currently in.
///
/// Every cycle between issue and completion is attributed to exactly
/// one phase; the per-request sums are conservation-checked against
/// end-to-end latency (they must match *exactly*, by construction:
/// transitions are contiguous — a phase ends on the cycle the next one
/// begins).
///
/// `Issue` and `Commit` are boundary markers: requests that leave the
/// issue stage on the cycle they were created accumulate zero cycles
/// there, and `Commit` absorbs nothing because completion is
/// instantaneous; they exist so the taxonomy matches the pipeline
/// stages named in DESIGN.md §10 and traces show the full lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Phase {
    /// Created by the warp scheduler, not yet presented to the MMU.
    Issue = 0,
    /// Intra-warp coalescing window (zero-width in the current model;
    /// coalescing happens combinationally at issue).
    Coalesce = 1,
    /// Waiting on an L1 TLB port grant plus the L1 TLB lookup itself.
    Tlb = 2,
    /// L1 TLB missed: L2 TLB access, walk-buffer queueing, and the
    /// page walk (including any UVM fault it triggers).
    Walk = 3,
    /// Translation known (or remote): data-side time — cache lookup,
    /// MSHR wait, DRAM, or the remote-access window.
    Fetch = 4,
    /// Speculative fetch in flight: from the moment a CAST-predicted
    /// fetch is registered until in-cache validation resolves it
    /// (covers the fill wait and the validation outcome itself).
    Validate = 5,
    /// Completion boundary (zero-width): the cycle the sector retires.
    Commit = 6,
}

impl Phase {
    /// Number of phases (length of [`Phase::ALL`]).
    pub const COUNT: usize = 7;

    /// Every phase, in pipeline order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Issue,
        Phase::Coalesce,
        Phase::Tlb,
        Phase::Walk,
        Phase::Fetch,
        Phase::Validate,
        Phase::Commit,
    ];

    /// Lower-case label used in tables and trace span names.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Issue => "issue",
            Phase::Coalesce => "coalesce",
            Phase::Tlb => "tlb",
            Phase::Walk => "walk",
            Phase::Fetch => "fetch",
            Phase::Validate => "validate",
            Phase::Commit => "commit",
        }
    }
}

/// Per-phase cycle attribution, aggregated over all completed sector
/// requests of a run.
///
/// Integer-only by design: fractions are derived by consumers. The
/// conservation invariant is `total_cycles() == Stats::sector_latency`
/// sum — every attributed cycle came from exactly one completed
/// request's end-to-end latency. Excluded from [`crate::Stats::digest`]
/// (probe-fed).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyBreakdown {
    /// Cycles attributed to each phase, indexed by `Phase as usize`.
    pub cycles: [u64; Phase::COUNT],
    /// Completed sector requests folded into `cycles`.
    pub sectors: u64,
}

impl LatencyBreakdown {
    /// Attribute `cycles` to `phase`.
    #[inline]
    pub fn add(&mut self, phase: Phase, cycles: u64) {
        self.cycles[phase as usize] += cycles;
    }

    /// Cycles attributed to one phase.
    pub fn of(&self, phase: Phase) -> u64 {
        self.cycles[phase as usize]
    }

    /// Sum over all phases; equals the summed end-to-end latency of
    /// every completed sector request (conservation invariant).
    pub fn total_cycles(&self) -> u64 {
        self.cycles.iter().sum()
    }

    /// Share of `phase` in the total, in [0, 1]; 0 when empty.
    pub fn fraction(&self, phase: Phase) -> f64 {
        let total = self.total_cycles();
        if total == 0 {
            0.0
        } else {
            self.of(phase) as f64 / total as f64
        }
    }
}

/// A named instrumentation point emitted to a [`Probe`] sink.
///
/// `Phase(p)` spans are the per-request lifecycle segments; the rest
/// are component-side windows and instants that share the same sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanPoint {
    /// A lifecycle segment of a sector request (see [`Phase`]).
    Phase(Phase),
    /// A whole warp memory instruction, issue to last-sector retire.
    WarpMem,
    /// A warp instruction resolved by the inline hit fast path.
    FastPath,
    /// A remote (host-pinned) access window for a non-resident page.
    Remote,
    /// A page walk occupying a walker, dispatch to completion.
    WalkService,
    /// One DRAM access, arrival to data return.
    DramAccess,
    /// Instant: a UVM page fault (first touch of a non-resident page).
    UvmFault,
    /// Instant: a chunk eviction under memory oversubscription.
    Eviction,
    /// Instant: an in-cache validation verdict (arg 1 = hit, 0 = kill).
    Validation,
}

impl SpanPoint {
    /// Span name as it appears in the exported trace.
    pub fn label(self) -> &'static str {
        match self {
            SpanPoint::Phase(p) => p.label(),
            SpanPoint::WarpMem => "warp_mem",
            SpanPoint::FastPath => "fast_path",
            SpanPoint::Remote => "remote",
            SpanPoint::WalkService => "walk_service",
            SpanPoint::DramAccess => "dram_access",
            SpanPoint::UvmFault => "uvm_fault",
            SpanPoint::Eviction => "eviction",
            SpanPoint::Validation => "validation",
        }
    }
}

/// Identifies the timeline a span lands on: `pid` is the process row
/// in a Chrome trace (one per SM, plus pseudo-processes for shared
/// components), `tid` the thread row within it (the warp, walker, or
/// channel index).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Track {
    /// Chrome-trace process id.
    pub pid: u32,
    /// Chrome-trace thread id.
    pub tid: u32,
}

impl Track {
    /// Pseudo-process id for the shared page-walk system.
    pub const WALKERS_PID: u32 = 9001;
    /// Pseudo-process id for DRAM.
    pub const DRAM_PID: u32 = 9002;
    /// Pseudo-process id for the UVM driver.
    pub const UVM_PID: u32 = 9003;

    /// Track for a warp on an SM (SM `s` maps to pid `s + 1`; pid 0 is
    /// reserved so SM 0 is not confused with an absent pid).
    pub fn sm_warp(sm: u32, warp: u32) -> Track {
        Track { pid: sm + 1, tid: warp }
    }

    /// Track for one hardware page walker.
    pub fn walker(index: u32) -> Track {
        Track { pid: Track::WALKERS_PID, tid: index }
    }

    /// Track for one DRAM channel.
    pub fn dram(channel: u32) -> Track {
        Track { pid: Track::DRAM_PID, tid: channel }
    }

    /// Track for the UVM driver of one tenant.
    pub fn uvm(tenant: u32) -> Track {
        Track { pid: Track::UVM_PID, tid: tenant }
    }
}

/// A sink for instrumentation events.
///
/// Implementations must tolerate out-of-order timestamps across tracks
/// (the engine emits spans when they *close*, so a long span can
/// arrive after a short one that started later). Timestamps are
/// simulated cycles; the Chrome exporter writes them as microseconds
/// 1:1 so the viewer's time axis reads directly in cycles.
pub trait Probe {
    /// A complete span: `[start, end)` on `track`. `arg` is a free
    /// detail slot (request slab index, walk id, byte count, ...).
    fn span(&mut self, point: SpanPoint, track: Track, start: Cycle, end: Cycle, arg: u64);

    /// A zero-duration event.
    fn instant(&mut self, point: SpanPoint, track: Track, at: Cycle, arg: u64);

    /// A named counter sample (rendered as a counter track).
    fn counter(&mut self, name: &'static str, track: Track, at: Cycle, value: u64);

    /// The run is over (final simulated cycle `end`); flush output.
    fn finish(&mut self, end: Cycle);
}

/// One buffered probe call, replayed verbatim into the inner sink.
#[cfg(feature = "probes")]
#[derive(Debug, Clone, Copy)]
enum Record {
    Span { point: SpanPoint, track: Track, start: Cycle, end: Cycle, arg: u64 },
    Mark { point: SpanPoint, track: Track, at: Cycle, arg: u64 },
    Counter { name: &'static str, track: Track, at: Cycle, value: u64 },
}

/// A per-domain probe buffer: the SM lane and the shared lane each
/// record their probe traffic as plain data, and the engine replays the
/// logs into the real sink at finish, lane first, so the exported stream
/// is grouped by domain.
#[cfg(feature = "probes")]
#[derive(Debug, Default)]
pub(crate) struct RecordLog {
    records: Vec<Record>,
    /// Emit request-level spans only for warps where
    /// `warp % warp_sample == 0` (component spans are never sampled
    /// away). 0 behaves as 1 (trace everything).
    warp_sample: u32,
    active: bool,
}

#[cfg(feature = "probes")]
impl RecordLog {
    /// Arms the log: records are kept and `sampled` applies `warp_sample`.
    pub(crate) fn arm(&mut self, warp_sample: u32) {
        self.active = true;
        self.warp_sample = warp_sample;
    }

    /// Whether a sink is attached downstream (records are being kept).
    #[inline]
    pub(crate) fn is_active(&self) -> bool {
        self.active
    }

    /// Whether request-level spans from `warp` survive sampling.
    #[inline]
    pub(crate) fn sampled(&self, warp: u32) -> bool {
        self.warp_sample <= 1 || warp.is_multiple_of(self.warp_sample)
    }

    /// Buffer a complete span (no-op when unarmed).
    #[inline]
    pub(crate) fn span(
        &mut self,
        point: SpanPoint,
        track: Track,
        start: Cycle,
        end: Cycle,
        arg: u64,
    ) {
        if self.active {
            self.records.push(Record::Span { point, track, start, end, arg });
        }
    }

    /// Buffer an instant (no-op when unarmed).
    #[inline]
    pub(crate) fn instant(&mut self, point: SpanPoint, track: Track, at: Cycle, arg: u64) {
        if self.active {
            self.records.push(Record::Mark { point, track, at, arg });
        }
    }

    /// Buffer a counter sample (no-op when unarmed).
    #[inline]
    pub(crate) fn counter(&mut self, name: &'static str, track: Track, at: Cycle, value: u64) {
        if self.active {
            self.records.push(Record::Counter { name, track, at, value });
        }
    }

    /// Replays every buffered record into `sink` in emission order,
    /// draining the log.
    pub(crate) fn replay_into(&mut self, sink: &mut dyn Probe) {
        for rec in self.records.drain(..) {
            match rec {
                Record::Span { point, track, start, end, arg } => {
                    sink.span(point, track, start, end, arg)
                }
                Record::Mark { point, track, at, arg } => sink.instant(point, track, at, arg),
                Record::Counter { name, track, at, value } => {
                    sink.counter(name, track, at, value)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_conserves_what_it_is_fed() {
        let mut b = LatencyBreakdown::default();
        b.add(Phase::Tlb, 10);
        b.add(Phase::Walk, 90);
        b.add(Phase::Fetch, 150);
        b.sectors = 2;
        assert_eq!(b.total_cycles(), 250);
        assert_eq!(b.of(Phase::Walk), 90);
        assert_eq!(b.of(Phase::Commit), 0);
        assert!((b.fraction(Phase::Fetch) - 0.6).abs() < 1e-12);
        assert_eq!(LatencyBreakdown::default().fraction(Phase::Tlb), 0.0);
    }

    #[test]
    fn phase_order_matches_discriminants() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(*p as usize, i, "Phase::ALL out of order at {i}");
        }
        assert_eq!(Phase::ALL.len(), Phase::COUNT);
    }

    /// Records the spans it is fed, in replay order.
    #[cfg(feature = "probes")]
    #[derive(Default)]
    struct RecordingSink {
        spans: Vec<(SpanPoint, Cycle, Cycle)>,
    }
    #[cfg(feature = "probes")]
    impl Probe for RecordingSink {
        fn span(&mut self, point: SpanPoint, _: Track, start: Cycle, end: Cycle, _: u64) {
            self.spans.push((point, start, end));
        }
        fn instant(&mut self, _: SpanPoint, _: Track, _: Cycle, _: u64) {}
        fn counter(&mut self, _: &'static str, _: Track, _: Cycle, _: u64) {}
        fn finish(&mut self, _: Cycle) {}
    }

    #[cfg(feature = "probes")]
    #[test]
    fn unarmed_log_is_inert_and_samples_every_warp() {
        let mut log = RecordLog::default();
        assert!(!log.is_active());
        assert!(log.sampled(0) && log.sampled(17));
        log.span(SpanPoint::FastPath, Track::sm_warp(0, 0), 5, 9, 0);
        let mut sink = RecordingSink::default();
        log.replay_into(&mut sink);
        assert!(sink.spans.is_empty(), "unarmed log kept records");
    }

    #[cfg(feature = "probes")]
    #[test]
    fn armed_log_samples_every_nth_warp_and_replays_in_order() {
        let mut log = RecordLog::default();
        log.arm(4);
        assert!(log.is_active());
        assert!(log.sampled(0) && log.sampled(8));
        assert!(!log.sampled(1) && !log.sampled(7));
        log.span(SpanPoint::Phase(Phase::Fetch), Track::sm_warp(0, 4), 5, 9, 0);
        log.span(SpanPoint::FastPath, Track::sm_warp(0, 4), 5, 12, 2);
        let mut sink = RecordingSink::default();
        log.replay_into(&mut sink);
        // The fast-path window arrives whole: one span, start and end.
        let fetch = SpanPoint::Phase(Phase::Fetch);
        assert_eq!(sink.spans, [(fetch, 5, 9), (SpanPoint::FastPath, 5, 12)]);
        // Replay drains the log.
        let mut again = RecordingSink::default();
        log.replay_into(&mut again);
        assert!(again.spans.is_empty(), "replay left records behind");
    }
}
