//! The discrete-event simulation engine: drives warps through the TLB
//! hierarchy, caches, page-walk system, DRAM, and the speculative
//! translation machinery.
//!
//! The engine is deliberately policy-free: speculation decisions come from
//! the plugged-in [`TranslationPolicy`] and compressibility from the
//! [`SectorCompression`] content model. The baseline, the prior-work TLB
//! designs, and Avatar all run on this same plumbing.
//!
//! # Two-domain windowed execution
//!
//! State is split into two domains, one module each: the SM lane
//! (`sm_lane`: every SM's warps, L1 TLBs, L1 sector caches, their
//! ports/MSHRs, and the request slab) and the shared lane
//! (`shared_lane`: the L2 TLB, L2 cache, walker, DRAM, UVM managers,
//! and the plugged policies). Each domain has its own calendar of its own
//! event type, and each outbox carries the other domain's type, so an
//! event cannot reach the wrong calendar. Sequence numbers are striped
//! per SM plus one stripe for the shared actor, so the `(time, seq)`
//! order of every event is a pure function of the simulated machine.
//!
//! Execution proceeds in windows of `W =`
//! [`DEFAULT_RESPONSE_LOOKAHEAD`] cycles with a two-phase barrier:
//!
//! 1. **Phase A** — the SM lane drains its queue up to the horizon. It
//!    touches only its own state (plus the policy, read-only, for
//!    [`TranslationPolicy::on_spec_fill`]); messages to the shared domain
//!    are appended to its outbox, never applied directly.
//! 2. **Phase B** — the outbox is delivered into the shared queue, the
//!    shared lane advances to the same horizon, and the shared outbox is
//!    delivered into the SM lane's queue. Both outboxes are drained whole
//!    at every barrier.
//!
//! Every lane→shared edge is scheduled at `now + 1 ≥ start` of the *same*
//! window (delivered at the Phase B barrier before the shared lane
//! advances), and every shared→lane edge at `now + W + delay ≥ horizon`
//! (delivered before the next window opens). No event is ever scheduled
//! into a domain's past, and `W` is a modeled interconnect latency: the
//! turnaround every shared-domain response pays.

mod shared_lane;
mod sm_lane;

use crate::addr::Vpn;
use crate::config::{Cycle, GpuConfig, DEFAULT_RESPONSE_LOOKAHEAD};
use crate::hooks::{NoSpeculation, SectorCompression, TranslationPolicy};
use crate::sm::WarpProgram;
use crate::stats::{CoverageBucket, Stats};
use crate::tlb::TlbModel;
use shared_lane::SharedLane;
use sm_lane::SmLane;

/// Events one domain emits for the other during a window, as `(time,
/// seq, event)`; the sequence is the emitter's stripe.
type Outbox<E> = Vec<(Cycle, u64, E)>;

/// Bit position where the tenant id is folded into TLB/walk keys, so one
/// physical TLB hierarchy holds entries of several address spaces without
/// aliasing (the hardware equivalent of ASID-tagged entries).
const ASID_SHIFT: u32 = 44;

/// The tenant an SM belongs to (contiguous spatial partitioning).
fn tenant_of_sm(cfg: &GpuConfig, sm: u32) -> usize {
    sm as usize * cfg.tenants / cfg.num_sms
}

fn asid_of(tenant: usize) -> u16 {
    tenant as u16 + 1
}

/// Folds the tenant into a TLB/walk key (ASID tagging).
fn salt(tenant: usize, vpn: Vpn) -> u64 {
    debug_assert!(vpn.0 < 1 << ASID_SHIFT);
    vpn.0 | ((tenant as u64) << ASID_SHIFT)
}

fn unsalt(svpn: u64) -> Vpn {
    Vpn(svpn & ((1 << ASID_SHIFT) - 1))
}

/// The cycle bit 0 of a window's busy mask stands for. A lane draining
/// the window that ends at `horizon` sets bit `t - window_base(horizon)`
/// for each cycle `t` at which it processes an event. Every such `t` lies
/// in `[horizon - W, horizon)` (the window opens at the earliest pending
/// event, at most `W` before its horizon), so the bits fit one `u64`.
fn window_base(horizon: Cycle) -> Cycle {
    horizon.saturating_sub(DEFAULT_RESPONSE_LOOKAHEAD)
}

const _: () = assert!(
    DEFAULT_RESPONSE_LOOKAHEAD <= u64::BITS as Cycle,
    "a window's busy mask is one u64"
);

/// Counts a TLB hit in its coverage bucket.
fn record_coverage(stats: &mut Stats, pages: u64) {
    let bucket = CoverageBucket::of_pages(pages);
    let idx = CoverageBucket::ALL
        .iter()
        .position(|b| *b == bucket)
        .expect("CoverageBucket::ALL enumerates every bucket of_pages can return");
    stats.coverage_hits[idx] += 1;
}

// ----------------------------------------------------------------------
// Engine: window loop, barriers
// ----------------------------------------------------------------------

/// Ideal-TLB drains carry no speculation; the SM lane still needs *a*
/// policy reference, satisfied by this inert one (the shared lane's own
/// box is mutably borrowed during an ideal drain).
static NOSPEC: NoSpeculation = NoSpeculation;

/// The assembled system: the SM lane, the shared lane (L2/walker/DRAM/
/// UVM), and the window loop that advances them under the two-phase
/// horizon barrier.
pub struct Engine<'a> {
    cfg: GpuConfig,
    lane: SmLane<'a>,
    shared: SharedLane<'a>,
    max_cycles: Cycle,
    /// The initial warp-issue events have been seeded by
    /// [`Engine::start`]; makes repeated calls harmless.
    started: bool,
    /// The cycle cap tripped; [`Engine::finish`] counts the requests
    /// still in flight as lost, without the debug-build halt.
    timed_out: bool,
    /// Global idle accounting: the last processed cycle across both
    /// domains, and the accumulated strictly-idle cycles between
    /// processed cycles. Folded from the two lanes' busy masks at every
    /// barrier.
    idle_prev: Cycle,
    idle_acc: u64,
    barriers: u64,
    /// Checked-mode audit cadence (`invariants` feature): interval in
    /// events, read once at construction, and the countdown to the next
    /// audit. Host-side only: never affects simulated state.
    #[cfg(feature = "invariants")]
    audit_every: u64,
    #[cfg(feature = "invariants")]
    until_audit: u64,
    /// Attached probe sink: the per-domain logs are replayed into it,
    /// SM lane first, at [`Engine::finish`].
    #[cfg(feature = "probes")]
    sink: Option<Box<dyn crate::probe::Probe>>,
}

impl std::fmt::Debug for Engine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now())
            .field("reqs", &self.lane.live_requests())
            .finish_non_exhaustive()
    }
}

impl<'a> Engine<'a> {
    /// Builds an engine from a configuration, TLB models, a speculation
    /// policy, a content model, and a warp program.
    pub fn new(
        cfg: GpuConfig,
        l1_tlbs: Vec<Box<dyn TlbModel>>,
        l2_tlb: Box<dyn TlbModel>,
        accel: Box<dyn TranslationPolicy>,
        compression: Box<dyn SectorCompression + 'a>,
        program: Box<dyn WarpProgram + 'a>,
    ) -> Self {
        assert_eq!(l1_tlbs.len(), cfg.num_sms, "one L1 TLB per SM");
        assert!(cfg.tenants >= 1 && cfg.tenants <= cfg.num_sms, "tenants partition the SMs");
        Engine {
            lane: SmLane::new(&cfg, l1_tlbs, program),
            shared: SharedLane::new(&cfg, l2_tlb, accel, compression),
            max_cycles: 2_000_000_000,
            started: false,
            timed_out: false,
            idle_prev: 0,
            idle_acc: 0,
            barriers: 0,
            #[cfg(feature = "invariants")]
            audit_every: crate::invariant::audit_interval(),
            #[cfg(feature = "invariants")]
            until_audit: crate::invariant::audit_interval().max(1),
            #[cfg(feature = "probes")]
            sink: None,
            cfg,
        }
    }

    /// Caps the simulated cycle count (safety valve; the default is ample).
    /// A capped run reports the requests it left in flight in
    /// [`Stats::lost_requests`].
    pub fn set_max_cycles(&mut self, cycles: Cycle) {
        self.max_cycles = cycles;
    }

    /// The latest cycle either domain has advanced to.
    fn now(&self) -> Cycle {
        self.shared.now().max(self.lane.now())
    }

    /// Attaches a probe sink (e.g.
    /// [`ChromeTraceProbe`](crate::trace_export::ChromeTraceProbe)).
    /// Request-level spans are emitted only for warps where
    /// `warp % warp_sample == 0` (0 or 1 keeps every warp); component
    /// spans are never sampled away. Each domain records into its own
    /// log; the logs are replayed into the sink, SM lane first, and the
    /// sink flushed, when [`Engine::finish`] runs.
    #[cfg(feature = "probes")]
    pub fn attach_probe(&mut self, sink: Box<dyn crate::probe::Probe>, warp_sample: u32) {
        self.lane.log().arm(warp_sample);
        self.shared.log().arm(warp_sample);
        self.sink = Some(sink);
    }

    /// Seeds the SM lane's calendar with every warp's first issue event.
    /// Idempotent: later calls do nothing, so [`Engine::run`] composes
    /// with an engine the caller already started.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        self.lane.start();
    }

    /// Processes at least `max_events` calendar events (rounded up to a
    /// whole barrier window). Returns `true` while more events remain,
    /// `false` once both calendars drain or the cycle cap trips — after
    /// which [`Engine::finish`] produces the statistics. Between calls
    /// the engine sits at a barrier boundary, so splitting a run across
    /// any sequence of `run_steps` calls cannot change the event order:
    /// the final [`Stats::digest`] is identical to a straight-through
    /// run.
    ///
    /// Checked mode (`invariants` feature) re-audits every structure at
    /// the configured event cadence (rounded to barriers). The interval
    /// is read once at construction — the audit must not touch the
    /// environment (or anything else nondeterministic) on the event path.
    pub fn run_steps(&mut self, max_events: u64) -> bool {
        let mut done = 0u64;
        while done < max_events {
            // The next window starts at the earliest pending event;
            // nothing anywhere means the run is complete.
            let start = match (self.lane.next_time(), self.shared.next_time()) {
                (Some(a), Some(b)) => a.min(b),
                (Some(t), None) | (None, Some(t)) => t,
                (None, None) => return false,
            };
            if start > self.max_cycles {
                self.timed_out = true;
                return false;
            }
            let horizon =
                (start + DEFAULT_RESPONSE_LOOKAHEAD).min(self.max_cycles.saturating_add(1));

            // Phase A: the SM lane advances to the horizon. Cross-domain
            // effects only accumulate in its outbox; every lane→shared
            // edge carries ≥1 cycle of latency.
            let (mut total, mut busy) = if self.cfg.ideal_tlb {
                self.lane.drain(horizon, &NOSPEC, Some(&mut self.shared.ideal_tlb()))
            } else {
                self.lane.drain(horizon, self.shared.policy(), None)
            };

            // Phase B, step 1: deliver the SM lane's outbox. The (time,
            // seq) key fixes the shared queue order.
            self.shared.deliver(self.lane.outbox());
            // Phase B, step 2: the shared lane catches up to the same
            // horizon, seeing every +1-cycle lane emission of this window.
            let (events, shared_busy) = self.shared.drain(horizon);
            total += events;
            busy |= shared_busy;
            // Phase B, step 3: deliver shared emissions (all timed at or
            // beyond the horizon) to the SM lane.
            self.lane.deliver(self.shared.outbox());

            self.barriers += 1;
            self.fold_idle(horizon, busy);
            done += total;

            #[cfg(feature = "invariants")]
            if self.audit_every != 0 {
                self.until_audit = self.until_audit.saturating_sub(total);
                if self.until_audit == 0 {
                    self.until_audit = self.audit_every.max(1);
                    self.audit_invariants();
                }
            }
        }
        true
    }

    /// Folds one window's busy mask (both lanes' masks ORed, see
    /// [`window_base`]) into the global idle accumulator, lowest cycle
    /// first. The set bits are the window's distinct processed cycles, a
    /// pure function of the global event set.
    fn fold_idle(&mut self, horizon: Cycle, mut busy: u64) {
        let base = window_base(horizon);
        while busy != 0 {
            let t = base + Cycle::from(busy.trailing_zeros());
            busy &= busy - 1;
            self.idle_acc += (t - self.idle_prev).saturating_sub(1);
            self.idle_prev = t;
        }
    }

    /// Runs the program to completion and returns the statistics.
    pub fn run(mut self) -> Stats {
        self.start();
        self.run_steps(u64::MAX);
        self.finish()
    }

    /// End-of-run bookkeeping once [`Engine::run_steps`] has returned
    /// `false`: final audit, probe replay, each lane's own finish (SM
    /// stall accounting and the everything-completed check; DRAM and
    /// policy counters), the merge of the two lanes' statistics, and the
    /// run-wide rows. Consumes the engine and returns the statistics.
    pub fn finish(mut self) -> Stats {
        #[cfg(feature = "invariants")]
        self.audit_invariants();
        let now = self.now();
        #[cfg(feature = "probes")]
        if let Some(sink) = self.sink.as_mut() {
            self.lane.log().replay_into(sink.as_mut());
            self.shared.log().replay_into(sink.as_mut());
            sink.finish(now);
        }
        let mut stats = self.lane.finish(now, self.timed_out);
        stats.merge(&self.shared.finish());
        // Run-wide rows the merge cannot derive. The window counter is
        // digest-excluded: it describes how the host advanced the
        // calendars, not what the simulated GPU did.
        stats.cycles = now;
        stats.idle_cycles_skipped = self.idle_acc;
        stats.horizon_barriers = self.barriers;
        stats
    }

    /// Asserts whole-system consistency: each lane's own audit (its
    /// calendar, structures, empty outbox and the invariants only it can
    /// see; see `SmLane::audit_invariants` and
    /// `SharedLane::audit_invariants`).
    ///
    /// Read-only and O(total structure size): called at barrier
    /// boundaries, never inside a window. Checked (`invariants` feature)
    /// builds run it every [`crate::invariant::audit_interval`] events
    /// (rounded up to a barrier) and at end of run; tests may call it
    /// directly in any build.
    ///
    /// # Panics
    ///
    /// Panics on the first violated invariant.
    pub fn audit_invariants(&self) {
        self.lane.audit_invariants();
        self.shared.audit_invariants();
    }

    /// Deliberately corrupts the SM lane calendar's free list so
    /// checked-mode tests can prove the audit detects real damage.
    #[cfg(feature = "invariants")]
    pub fn corrupt_event_queue_for_test(&mut self) {
        self.lane.corrupt_event_queue_for_test();
    }

    /// Deliberately desynchronizes the L2 TLB overflow queue's key index
    /// (it counts a lookup that is not queued), the barrier audit's
    /// negative-test hook.
    #[cfg(feature = "invariants")]
    pub fn corrupt_l2_tlb_queue_index_for_test(&mut self) {
        self.shared.corrupt_l2_tlb_queue_index_for_test();
    }
}
