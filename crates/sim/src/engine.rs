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
//! State is split into two domains: one [`ShardLane`] holding every SM
//! (warps, L1 TLBs, L1 sector caches, their ports/MSHRs, and the request
//! slab) and one [`SharedLane`] (the L2 TLB, L2 cache, walker, DRAM, UVM
//! managers, and the plugged policies). Each domain has its own event
//! queue; sequence numbers are striped per SM plus one stripe for the
//! shared actor, so the `(time, seq)` order of every event is a pure
//! function of the simulated machine.
//!
//! Execution proceeds in windows of `W =`
//! [`DEFAULT_RESPONSE_LOOKAHEAD`] cycles with a two-phase barrier:
//!
//! 1. **Phase A** — the lane drains its queue up to the horizon. It
//!    touches only its own state (plus the policy, read-only, for
//!    [`TranslationPolicy::on_spec_fill`]); messages to the shared domain
//!    are appended to its outbox, never applied directly.
//! 2. **Phase B** — the outbox is delivered into the shared queue, the
//!    shared lane advances to the same horizon, and the shared outbox is
//!    routed back to the lane queue.
//!
//! Every lane→shared edge is scheduled at `now + 1 ≥ start` of the *same*
//! window (delivered at the Phase B barrier before the shared lane
//! advances), and every shared→lane edge at `now + W + delay ≥ horizon`
//! (delivered before the next window opens). No event is ever scheduled
//! into a domain's past, and `W` is a modeled interconnect latency: the
//! turnaround every shared-domain response pays.

use crate::addr::{translate, PhysAddr, Ppn, VirtAddr, Vpn, SECTOR_BYTES};
use crate::cache::{Probe, SectorCache, SectorFlags};
use crate::config::{Cycle, GpuConfig, DEFAULT_RESPONSE_LOOKAHEAD};
use crate::dram::{Dram, DramOp};
use crate::event::EventQueue;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::hooks::{
    FetchedSector, NoSpeculation, PageMeta, SectorCompression, SpecFillAction, SpecFillContext,
    TranslationPolicy, ValidationKind,
};
use crate::page_table::PT_BASE;
use crate::port::{MshrFile, MshrGrant, Ports};
use crate::probe::{Phase, SpanPoint, Track};
use crate::reqslab::{ReqId, ReqSlab};
use crate::sm::{coalesce_into, SmState, WarpOp, WarpProgram, WarpState};
use crate::stats::{CoverageBucket, SpecOutcome, Stats};
use crate::tlb::{ContigRun, TlbFill, TlbModel};
use crate::uvm::Uvm;
use crate::walker::{PageWalkSystem, WalkId, WalkProgress};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::sync::Arc;

/// Bit position where the tenant id is folded into TLB/walk keys, so one
/// physical TLB hierarchy holds entries of several address spaces without
/// aliasing (the hardware equivalent of ASID-tagged entries).
const ASID_SHIFT: u32 = 44;

#[derive(Debug, Clone, Copy)]
struct SpecState {
    ppn: Ppn,
    ideal: bool,
    killed: bool,
    /// The request is registered as a waiter on its speculative fetch's
    /// L1 MSHR entry.
    fetch_registered: bool,
}

#[derive(Debug, Clone)]
struct MemReq {
    sm: u32,
    warp: u32,
    pc: u64,
    vaddr: VirtAddr,
    issued: Cycle,
    real_ppn: Option<Ppn>,
    translation_done: bool,
    completed: bool,
    is_store: bool,
    spec: Option<SpecState>,
    /// Stored copies of this request's id (calendar events, MSHR waiter
    /// lists, overflow queues). The slab slot is freed when the request
    /// is completed and the count drops to zero — never earlier, because
    /// e.g. `l1_fill` reads `completed` through still-live waiter copies.
    refs: u32,
    /// Lifecycle phase currently charged for this request's wait.
    #[cfg(feature = "probes")]
    phase: Phase,
    /// Cycle the current phase was entered (attribution anchor).
    #[cfg(feature = "probes")]
    phase_entered: Cycle,
    /// Cycles already attributed across earlier phases; at completion
    /// this telescopes to exactly `now - issued` (conservation check).
    #[cfg(feature = "probes")]
    phase_acc: u64,
    /// Cycle the speculative fetch registered (validation-latency anchor).
    #[cfg(feature = "probes")]
    spec_started: Cycle,
}

impl MemReq {
    fn vpn(&self) -> Vpn {
        self.vaddr.vpn()
    }

    fn spec_pa(&self) -> Option<PhysAddr> {
        self.spec.map(|s| translate(self.vaddr, s.ppn))
    }

    fn real_pa(&self) -> Option<PhysAddr> {
        self.real_ppn.map(|p| translate(self.vaddr, p))
    }
}

/// Waiter kinds on the shared L2 cache MSHRs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum L2Waiter {
    Sector { sm: u32 },
    Walk { walk: WalkId },
}

/// One calendar event. Variants are grouped by the domain that handles
/// them: the lane or the shared lane.
#[derive(Debug, Clone)]
enum Ev {
    // ---- lane-targeted (handled by the ShardLane) ----
    WarpIssue { sm: u32, warp: u32 },
    L1TlbResult { req: ReqId },
    SpecL1Result { req: ReqId },
    L1Result { req: ReqId },
    /// A sector arriving at an SM's L1 from the shared hierarchy, with
    /// the content metadata sampled at emission time.
    L1Fill { sm: u32, pa: u64, meta: FetchedSector },
    RemoteDone { req: ReqId },
    /// The speculation policy predicted a frame for this request; the
    /// lane starts the speculative L1 probe. Token event: the request is
    /// NOT pinned by it (the translation may complete first).
    SpecDispatch { req: ReqId, ppn: u64, ideal: bool },
    /// A resolved translation being delivered to one SM's L1 TLB.
    ResolveSm { sm: u32, svpn: u64, ppn: u64, pages: u64, run: Option<ContigRun>, via_eaf: bool },
    /// UVM chunk eviction invalidating one SM's L1 structures.
    Shootdown { sm: u32, first_svpn: u64, pages: u64, frames: Arc<FxHashSet<u64>> },
    // ---- shared-targeted (handled by the SharedLane) ----
    /// An L1 TLB miss crossing into the shared hierarchy. Token event:
    /// carries everything the shared lane needs, never dereferenced.
    TlbMiss { req: ReqId, sm: u32, svpn: u64, pc: u64, is_store: bool, need_l2: bool },
    L2TlbResult { sm: u32, svpn: u64 },
    WalkL2 { walk: WalkId, pa: u64 },
    /// A lane-side L1 miss requesting a sector from the L2.
    L2Req { sm: u32, pa: u64 },
    L2Access { sm: u32, pa: u64 },
    DramDone { pa: u64 },
    /// Deferred accel training for a resolved translation (the accel is
    /// shared-lane state; the lane cannot call it mutably).
    AccelTrain { sm: u32, pc: u64, svpn: u64, ppn: u64 },
    /// Early-TLB-Fill release: a lane validated an embedded translation
    /// and the shared side releases walks/MSHRs and propagates it.
    EafResolve { sm: u32, svpn: u64, ppn: u64 },
    /// Rapid validation-on-use verdict arriving for a correct
    /// speculation ([`ValidationKind::Rapid`]): the shared lane
    /// re-checks the mapping, fills the TLBs, and releases walk
    /// resources early, like EAF without the compressed-sector channel.
    RapidResolve { sm: u32, svpn: u64, ppn: u64 },
    /// A dirty sector evicted from an L1 writing back to the L2.
    WritebackL2 { pa: u64 },
}

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

fn tenant_of_svpn(svpn: u64) -> usize {
    (svpn >> ASID_SHIFT) as usize
}

/// Salts a contiguity run so its reach stays within the tenant's key
/// space.
fn salt_run(tenant: usize, run: Option<ContigRun>) -> Option<ContigRun> {
    run.map(|r| ContigRun { start_vpn: salt(tenant, Vpn(r.start_vpn)), ..r })
}

// ----------------------------------------------------------------------
// Lane: per-SM state + handlers
// ----------------------------------------------------------------------

/// Every SM and everything the SMs own exclusively: warp state, L1
/// TLBs/caches/ports/MSHRs, the requests they originate, an event queue,
/// and per-SM sequence stripes. During Phase A of a window the lane
/// advances on its own and reaches the shared hierarchy only through its
/// outbox, so every request it sends pays the modeled window latency.
struct ShardLane<'a> {
    cfg: GpuConfig,
    /// Striping modulus for sequence numbers: one stripe per SM plus one
    /// for the shared actor.
    actors: u64,
    q: EventQueue<Ev>,
    /// Per-SM sequence counters (`seq = c * actors + sm`).
    seqs: Vec<u64>,
    sms: Vec<SmState>,
    l1_tlbs: Vec<Box<dyn TlbModel>>,
    l1_tlb_ports: Vec<Ports>,
    l1_caches: Vec<SectorCache>,
    l1_cache_ports: Vec<Ports>,
    reqs: ReqSlab<MemReq>,
    l1_tlb_mshrs: Vec<MshrFile<u64, ReqId>>,
    // Per-SM retry queues: the outer Vec is fixed at the SM count
    // and the inner ones are drained every retry, so this never becomes
    // a per-element hot structure. lint:allow(vec-vec)
    tlb_overflow: Vec<Vec<ReqId>>,
    l1_mshrs: Vec<MshrFile<u64, ReqId>>,
    l1_mshr_overflow: Vec<std::collections::VecDeque<ReqId>>,
    /// Requests that found a present-but-unguaranteed sector and wait for
    /// its validation outcome instead of duplicating the fetch.
    unguaranteed_waiters: FxHashMap<(u32, u64), Vec<ReqId>>,
    warp_outstanding: Vec<u32>,
    warp_issue_time: Vec<Cycle>,
    program: Box<dyn WarpProgram + 'a>,
    stats: Stats,
    /// Events bound for the shared lane, applied at the next barrier.
    /// `(time, seq, event)` — the sequence is assigned here, by the
    /// emitting SM's stripe.
    outbox: Vec<(Cycle, u64, Ev)>,
    /// Total events this lane has pushed through its outbox.
    exchange_out: u64,
    /// Scratch for the coalescer: reused across warp instructions so the
    /// issue loop does not allocate in steady state.
    coalesce_buf: Vec<VirtAddr>,
    /// Scratch key list for shootdown wakes (reused, see
    /// `wake_all_unguaranteed`).
    scratch_keys: Vec<u64>,
    /// Distinct cycles at which this lane processed events in the
    /// current window (consecutively deduped; merged with the shared
    /// lane's at each barrier for global idle accounting).
    times: Vec<Cycle>,
    /// Deferred probe records, replayed into the engine sink at
    /// `finish`, before the shared lane's.
    #[cfg(feature = "probes")]
    log: crate::probe::RecordLog,
}

impl<'a> ShardLane<'a> {
    /// Next sequence number on `sm`'s stripe.
    #[inline]
    fn next_seq(&mut self, sm: u32) -> u64 {
        let c = self.seqs[sm as usize];
        self.seqs[sm as usize] += 1;
        c * self.actors + sm as u64
    }

    /// Discards one sequence number on `sm`'s stripe. The fast path
    /// skips one per sector it resolves, and that skip is part of the
    /// recorded event order: striped seqs break same-cycle ties between
    /// SMs, so dropping it would reorder those events and change every
    /// digest and trace.
    #[inline]
    fn burn_seq(&mut self, sm: u32) {
        self.seqs[sm as usize] += 1;
    }

    /// Schedules a lane-internal event.
    fn sched(&mut self, sm: u32, t: Cycle, ev: Ev) {
        let seq = self.next_seq(sm);
        self.q.schedule_at_seq(t, seq, ev);
    }

    /// Emits an event to the shared lane (applied at the next barrier).
    fn send(&mut self, sm: u32, t: Cycle, ev: Ev) {
        let seq = self.next_seq(sm);
        self.outbox.push((t, seq, ev));
        self.exchange_out += 1;
    }

    /// The live request behind `id`.
    ///
    /// Panics on a stale id: a request was freed while a copy of its id
    /// was still stored somewhere — exactly the bug the reference counts
    /// exist to prevent, so it must never be survivable.
    fn req(&self, id: ReqId) -> &MemReq {
        self.reqs.get(id).expect("stale ReqId: request freed while a reference was still live")
    }

    fn req_mut(&mut self, id: ReqId) -> &mut MemReq {
        self.reqs.get_mut(id).expect("stale ReqId: request freed while a reference was still live")
    }

    /// Records that a copy of `id` was stored — in a calendar event, an
    /// MSHR waiter list, or an overflow queue. Every stored copy pins the
    /// slab slot until [`Self::req_unref`] consumes it.
    fn req_ref(&mut self, id: ReqId) {
        self.req_mut(id).refs += 1;
    }

    /// Consumes one stored copy of `id`, freeing (and recycling) the slab
    /// slot once the request is completed and no copies remain.
    fn req_unref(&mut self, id: ReqId) {
        let r = self.req_mut(id);
        crate::debug_invariant!(r.refs > 0, "unbalanced request unref");
        r.refs -= 1;
        if r.refs == 0 && r.completed {
            self.reqs.remove(id);
        }
    }

    fn warp_slot(&self, sm: u32, warp: u32) -> usize {
        sm as usize * self.cfg.warps_per_sm + warp as usize
    }

    fn tenant(&self, sm: u32) -> usize {
        tenant_of_sm(&self.cfg, sm)
    }

    // Probe helpers (`probes` feature): spans land in the lane's
    // deferred log.

    /// Moves `id` into phase `next`, attributing the cycles since the
    /// last transition to the phase being left and emitting it as a span
    /// when a sink is attached. Re-entering the current phase is
    /// harmless: it attributes and re-anchors.
    #[cfg(feature = "probes")]
    fn probe_phase(&mut self, now: Cycle, id: ReqId, next: Phase) {
        let (sm, warp, prev, entered) = {
            let r = self.req_mut(id);
            let prev = r.phase;
            let entered = r.phase_entered;
            r.phase_acc += now - entered;
            r.phase = next;
            r.phase_entered = now;
            (r.sm, r.warp, prev, entered)
        };
        self.stats.latency_breakdown.add(prev, now - entered);
        if self.log.is_active() && self.log.sampled(warp) && now > entered {
            self.log.span(
                SpanPoint::Phase(prev),
                Track::sm_warp(sm, warp),
                entered,
                now,
                id.slot() as u64,
            );
        }
    }

    #[cfg(not(feature = "probes"))]
    #[inline(always)]
    fn probe_phase(&mut self, _now: Cycle, _id: ReqId, _next: Phase) {}

    /// Final attribution for a completing request: charges the tail to
    /// the current phase, counts the sector, and checks per-request
    /// conservation — the telescoped phase sums must equal the request's
    /// end-to-end latency exactly.
    #[cfg(feature = "probes")]
    fn probe_complete(&mut self, now: Cycle, id: ReqId) {
        let (sm, warp, phase, entered) = {
            let r = self.req_mut(id);
            r.phase_acc += now - r.phase_entered;
            (r.sm, r.warp, r.phase, r.phase_entered)
        };
        self.stats.latency_breakdown.add(phase, now - entered);
        self.stats.latency_breakdown.sectors += 1;
        #[cfg(feature = "invariants")]
        {
            let r = self.req(id);
            crate::debug_invariant!(
                r.phase_acc == now - r.issued,
                "phase attribution lost cycles: attributed {}, end-to-end {}",
                r.phase_acc,
                now - r.issued
            );
        }
        if self.log.is_active() && self.log.sampled(warp) && now > entered {
            self.log.span(
                SpanPoint::Phase(phase),
                Track::sm_warp(sm, warp),
                entered,
                now,
                id.slot() as u64,
            );
        }
    }

    #[cfg(not(feature = "probes"))]
    #[inline(always)]
    fn probe_complete(&mut self, _now: Cycle, _id: ReqId) {}

    /// Emits a zero-duration component event. Only called from inside
    /// `probes`-gated accounting blocks, so no cfg-off twin exists.
    #[cfg(feature = "probes")]
    fn probe_instant(&mut self, point: SpanPoint, track: Track, at: Cycle, arg: u64) {
        self.log.instant(point, track, at, arg);
    }

    /// Records a structural-hazard wait (port arbitration) in the
    /// queue-latency histogram. Zero waits are skipped — the histogram
    /// answers "when a request queued, for how long?".
    #[cfg(feature = "probes")]
    fn probe_queue_wait(&mut self, wait: u64) {
        if wait > 0 {
            self.stats.queue_latency_hist.add(wait);
        }
    }

    #[cfg(not(feature = "probes"))]
    #[inline(always)]
    fn probe_queue_wait(&mut self, _wait: u64) {}

    /// Drains this lane's queue up to (strictly before) `horizon`,
    /// touching only lane-owned state plus the read-only speculation
    /// policy. `ideal` is `Some` only in ideal-TLB mode, which resolves
    /// translations synchronously against the shared lane's page tables
    /// instead of paying the window latency. Returns the number of
    /// events processed.
    fn drain(
        &mut self,
        horizon: Cycle,
        accel: &dyn TranslationPolicy,
        mut ideal: Option<&mut SharedLane<'_>>,
    ) -> u64 {
        let mut n = 0;
        while let Some((now, ev)) = self.q.pop_before(horizon) {
            n += 1;
            if self.times.last() != Some(&now) {
                self.times.push(now);
            }
            self.handle(now, ev, accel, ideal.as_deref_mut());
        }
        self.stats.events_processed += n;
        n
    }

    /// Dispatches one lane-targeted event. `ideal` is `Some` only in
    /// ideal-TLB mode (see [`Self::drain`]).
    fn handle(
        &mut self,
        now: Cycle,
        ev: Ev,
        accel: &dyn TranslationPolicy,
        ideal: Option<&mut SharedLane<'_>>,
    ) {
        match ev {
            Ev::WarpIssue { sm, warp } => self.warp_issue(now, sm, warp, ideal),
            // Request-carrying events hold one pin on their request for
            // the lifetime of the event; it is consumed here, after the
            // handler, so the request stays live throughout.
            Ev::L1TlbResult { req } => {
                self.l1_tlb_result(now, req);
                self.req_unref(req);
            }
            Ev::SpecL1Result { req } => {
                self.spec_l1_result(now, req, accel);
                self.req_unref(req);
            }
            Ev::L1Result { req } => {
                self.l1_result(now, req);
                self.req_unref(req);
            }
            Ev::L1Fill { sm, pa, meta } => self.l1_fill(now, sm, PhysAddr(pa), meta, accel),
            // RemoteDone pins its request only in ideal-TLB mode (where
            // no MSHR waiter holds it); the handler balances the books.
            Ev::RemoteDone { req } => self.remote_done(now, req),
            // Token event: never pinned, the handler tolerates a freed id.
            Ev::SpecDispatch { req, ppn, ideal } => self.spec_dispatch(now, req, Ppn(ppn), ideal),
            Ev::ResolveSm { sm, svpn, ppn, pages, run, via_eaf } => {
                self.resolve_sm(now, sm, svpn, Ppn(ppn), pages, run, via_eaf, accel);
            }
            Ev::Shootdown { sm, first_svpn, pages, frames } => {
                self.shootdown(now, sm, first_svpn, pages, &frames);
            }
            Ev::TlbMiss { .. }
            | Ev::L2TlbResult { .. }
            | Ev::WalkL2 { .. }
            | Ev::L2Req { .. }
            | Ev::L2Access { .. }
            | Ev::DramDone { .. }
            | Ev::AccelTrain { .. }
            | Ev::EafResolve { .. }
            | Ev::RapidResolve { .. }
            | Ev::WritebackL2 { .. } => {
                // Only lane-targeted events may sit in the lane calendar;
                // anything else is unrecoverable cross-domain corruption.
                // lint:allow(hot-path-panic)
                unreachable!("shared-domain event in the lane")
            }
        }
    }
}

// ----------------------------------------------------------------------
// Shared lane: L2/walker/DRAM/UVM state + handlers
// ----------------------------------------------------------------------

/// Everything below the per-SM structures: L2 TLB and cache, the
/// page-walk system, DRAM, the UVM managers, and the plugged policies.
/// Advanced in Phase B of each window, after the lane.
struct SharedLane<'a> {
    cfg: GpuConfig,
    actors: u64,
    q: EventQueue<Ev>,
    /// Sequence counter for the shared actor's stripe
    /// (`seq = c * actors + (actors - 1)`).
    seq: u64,
    l2_tlb: Box<dyn TlbModel>,
    l2_tlb_ports: Ports,
    l2_cache: SectorCache,
    l2_cache_ports: Ports,
    dram: Dram,
    walks: PageWalkSystem,
    /// One UVM manager per tenant (index = tenant id).
    uvms: Vec<Uvm>,
    accel: Box<dyn TranslationPolicy>,
    compression: Box<dyn SectorCompression + 'a>,
    l2_tlb_mshr: MshrFile<u64, u32>,
    /// L2 TLB lookups `(sm, svpn)` that found `l2_tlb_mshr` full, by
    /// arrival number; [`SharedLane::drain_l2_tlb_overflow`] retries them
    /// oldest first.
    l2_tlb_overflow: BTreeMap<u64, (u32, u64)>,
    /// Arrival number of the next queued L2 TLB lookup.
    l2_tlb_arrivals: u64,
    /// `l2_tlb_overflow` as `(svpn, arrival)`: a page's queued lookups, or
    /// those in a fill's reach, are one range query.
    l2_tlb_queued: BTreeSet<(u64, u64)>,
    /// Queued svpns allocated in `l2_tlb_mshr`, with a marker that left
    /// `pending_resolve`, or in the reach of an L2 TLB fill, since the last
    /// drain.
    l2_tlb_dirty_keys: BTreeSet<u64>,
    l2_mshr: MshrFile<u64, L2Waiter>,
    l2_mshr_overflow: std::collections::VecDeque<(u64, L2Waiter)>,
    walk_of_vpn: FxHashMap<u64, WalkId>,
    vpn_of_walk: FxHashMap<WalkId, Vpn>,
    walk_started: FxHashMap<u64, Cycle>,
    pw_overflow: std::collections::VecDeque<u64>,
    /// Mirror of which `(sm, salted vpn)` translations are in flight on
    /// the shared side. The L1 TLB MSHRs live in the lane, so this set
    /// is what dedups L2 lookups and what `ResolveSm` emission clears.
    pending_resolve: FxHashSet<(u32, u64)>,
    stats: Stats,
    /// Events bound for the lane, delivered at the end of Phase B.
    outbox: Vec<(Cycle, u64, Ev)>,
    exchange_out: u64,
    times: Vec<Cycle>,
    #[cfg(feature = "probes")]
    log: crate::probe::RecordLog,
}

impl<'a> SharedLane<'a> {
    /// Next sequence number on the shared actor's stripe.
    #[inline]
    fn next_seq(&mut self) -> u64 {
        let c = self.seq;
        self.seq += 1;
        c * self.actors + (self.actors - 1)
    }

    /// Schedules a shared-internal event.
    fn sched(&mut self, t: Cycle, ev: Ev) {
        let seq = self.next_seq();
        self.q.schedule_at_seq(t, seq, ev);
    }

    /// Emits an event to the lane (delivered at the end of Phase B).
    fn send(&mut self, t: Cycle, ev: Ev) {
        let seq = self.next_seq();
        self.outbox.push((t, seq, ev));
        self.exchange_out += 1;
    }

    fn tenant(&self, sm: u32) -> usize {
        tenant_of_sm(&self.cfg, sm)
    }

    /// Emits a component-side complete span (never warp-sampled).
    #[cfg(feature = "probes")]
    fn probe_span(&mut self, point: SpanPoint, track: Track, start: Cycle, end: Cycle, arg: u64) {
        self.log.span(point, track, start, end, arg);
    }

    #[cfg(not(feature = "probes"))]
    #[inline(always)]
    fn probe_span(
        &mut self,
        _point: SpanPoint,
        _track: Track,
        _start: Cycle,
        _end: Cycle,
        _arg: u64,
    ) {
    }

    /// Emits a zero-duration component event.
    #[cfg(feature = "probes")]
    fn probe_instant(&mut self, point: SpanPoint, track: Track, at: Cycle, arg: u64) {
        self.log.instant(point, track, at, arg);
    }

    #[cfg(not(feature = "probes"))]
    #[inline(always)]
    fn probe_instant(&mut self, _point: SpanPoint, _track: Track, _at: Cycle, _arg: u64) {}

    /// Emits a counter sample on a component track.
    #[cfg(feature = "probes")]
    fn probe_counter(&mut self, name: &'static str, track: Track, at: Cycle, value: u64) {
        self.log.counter(name, track, at, value);
    }

    #[cfg(not(feature = "probes"))]
    #[inline(always)]
    fn probe_counter(&mut self, _name: &'static str, _track: Track, _at: Cycle, _value: u64) {}

    /// Records a structural-hazard wait (port arbitration or walk-buffer
    /// queueing) in the queue-latency histogram.
    #[cfg(feature = "probes")]
    fn probe_queue_wait(&mut self, wait: u64) {
        if wait > 0 {
            self.stats.queue_latency_hist.add(wait);
        }
    }

    #[cfg(not(feature = "probes"))]
    #[inline(always)]
    fn probe_queue_wait(&mut self, _wait: u64) {}

    /// Drains the shared queue up to (strictly before) `horizon`.
    /// Returns the number of events processed.
    fn drain(&mut self, horizon: Cycle) -> u64 {
        let mut n = 0;
        while let Some((now, ev)) = self.q.pop_before(horizon) {
            n += 1;
            if self.times.last() != Some(&now) {
                self.times.push(now);
            }
            self.handle(now, ev);
        }
        self.stats.events_processed += n;
        n
    }

    /// Dispatches one shared-domain event.
    fn handle(&mut self, now: Cycle, ev: Ev) {
        match ev {
            Ev::TlbMiss { req, sm, svpn, pc, is_store, need_l2 } => {
                self.tlb_miss(now, req, sm, svpn, pc, is_store, need_l2);
            }
            Ev::L2TlbResult { sm, svpn } => self.l2_tlb_result(now, sm, svpn),
            Ev::WalkL2 { walk, pa } => self.walk_l2(now, walk, PhysAddr(pa)),
            Ev::L2Req { sm, pa } => self.l2_req(now, sm, PhysAddr(pa)),
            Ev::L2Access { sm, pa } => self.l2_access(now, sm, PhysAddr(pa)),
            Ev::DramDone { pa } => self.dram_done(now, PhysAddr(pa)),
            Ev::AccelTrain { sm, pc, svpn, ppn } => {
                self.accel.on_translation_resolved(sm as usize, pc, unsalt(svpn), Ppn(ppn));
            }
            Ev::EafResolve { sm, svpn, ppn } => self.eaf_resolve(now, sm, svpn, Ppn(ppn)),
            Ev::RapidResolve { sm, svpn, ppn } => self.rapid_resolve(now, sm, svpn, Ppn(ppn)),
            Ev::WritebackL2 { pa } => self.writeback_to_l2(now, PhysAddr(pa)),
            Ev::WarpIssue { .. }
            | Ev::L1TlbResult { .. }
            | Ev::SpecL1Result { .. }
            | Ev::L1Result { .. }
            | Ev::L1Fill { .. }
            | Ev::RemoteDone { .. }
            | Ev::SpecDispatch { .. }
            | Ev::ResolveSm { .. }
            | Ev::Shootdown { .. } => {
                // Lane-owned events never enter the shared calendar (the
                // exchange routes them at the barrier); this is
                // unrecoverable cross-domain corruption. lint:allow(hot-path-panic)
                unreachable!("lane-domain event in the shared lane")
            }
        }
    }
}

impl<'a> ShardLane<'a> {
    // ------------------------------------------------------------------
    // Warp issue
    // ------------------------------------------------------------------

    fn warp_issue(&mut self, now: Cycle, sm: u32, warp: u32, mut ideal: Option<&mut SharedLane<'_>>) {
        let li = sm as usize;
        let issue_free = self.sms[li].issue_free_at;
        if issue_free > now {
            self.sched(sm, issue_free, Ev::WarpIssue { sm, warp });
            return;
        }
        match self.program.next_op(sm as usize, warp as usize) {
            None => {
                self.sms[li].set_warp(warp as usize, WarpState::Retired, now);
            }
            Some(WarpOp::Compute { cycles }) => {
                self.stats.instructions += 1;
                self.sms[li].issue_free_at = now + 1;
                self.sms[li].set_warp(warp as usize, WarpState::Computing, now);
                self.sched(sm, now + cycles.max(1), Ev::WarpIssue { sm, warp });
            }
            Some(op @ (WarpOp::Load { .. } | WarpOp::Store { .. })) => {
                let (pc, addrs, is_store) = match op {
                    WarpOp::Load { pc, addrs } => (pc, addrs, false),
                    WarpOp::Store { pc, addrs } => (pc, addrs, true),
                    // Pattern-restricted by the outer `op @ (Load | Store)`
                    // binding; no runtime path reaches it. lint:allow(hot-path-panic)
                    WarpOp::Compute { .. } => unreachable!("matched above"),
                };
                self.stats.instructions += 1;
                if is_store {
                    self.stats.stores += 1;
                } else {
                    self.stats.loads += 1;
                }
                self.sms[li].issue_free_at = now + 1;
                let mut sectors = std::mem::take(&mut self.coalesce_buf);
                coalesce_into(&addrs, &mut sectors);
                let slot = self.warp_slot(sm, warp);
                self.warp_outstanding[slot] = sectors.len() as u32;
                self.warp_issue_time[slot] = now;
                self.sms[li].set_warp(
                    warp as usize,
                    WarpState::WaitingMemory { outstanding: sectors.len() as u32 },
                    now,
                );
                if !sectors.is_empty() && self.fast_path_classify(now, sm, &sectors, ideal.as_deref())
                {
                    // Every sector is a guaranteed L1 TLB + L1 data hit
                    // and the ports have a free slot this cycle: resolve
                    // the whole instruction at issue with the Table II
                    // latency arithmetic instead of per-sector events.
                    self.fast_path_commit(now, sm, warp, is_store, &sectors, ideal);
                    self.warp_outstanding[slot] = 0;
                } else {
                    for &vaddr in &sectors {
                        self.stats.sector_requests += 1;
                        let id = self.reqs.insert(MemReq {
                            sm,
                            warp,
                            pc,
                            vaddr,
                            issued: now,
                            real_ppn: None,
                            translation_done: false,
                            completed: false,
                            is_store,
                            spec: None,
                            refs: 0,
                            #[cfg(feature = "probes")]
                            phase: Phase::Issue,
                            #[cfg(feature = "probes")]
                            phase_entered: now,
                            #[cfg(feature = "probes")]
                            phase_acc: 0,
                            #[cfg(feature = "probes")]
                            spec_started: 0,
                        });
                        self.start_translation(now, id, ideal.as_deref_mut());
                    }
                }
                self.coalesce_buf = sectors;
            }
        }
    }

    /// Decides whether a warp memory instruction can be resolved by the
    /// inline hit fast path: every coalesced sector must hit the L1 TLB
    /// on a probe (under `ideal_tlb`, be resident and mapped instead),
    /// hit the L1 data cache with a *guaranteed* sector, and each
    /// required port group must have a free slot this cycle. Strictly
    /// read-only — when any sector fails, the warp takes the event path
    /// with no state disturbed. All-or-nothing per warp, so a warp's
    /// sectors never straddle the two mechanisms.
    ///
    /// Residency is not checked in the non-ideal case: the lane cannot
    /// see the UVM maps, so a stale-TLB window of at most `W` cycles
    /// exists between an eviction and its `Shootdown` arriving. The TLB
    /// and cache entries are invalidated together by that shootdown, so
    /// a stale fast-path hit reads data that is still physically
    /// present — harmless.
    fn fast_path_classify(
        &self,
        now: Cycle,
        sm: u32,
        sectors: &[VirtAddr],
        ideal: Option<&SharedLane<'_>>,
    ) -> bool {
        let tenant = self.tenant(sm);
        let li = sm as usize;
        // Structural hazards: a fully backed-up port means the grants
        // would land in future cycles; leave that to the event path.
        if !self.cfg.ideal_tlb && self.l1_tlb_ports[li].peek_grant(now) != now {
            return false;
        }
        if self.l1_cache_ports[li].peek_grant(now) != now {
            return false;
        }
        for &vaddr in sectors {
            let vpn = vaddr.vpn();
            let ppn = if let Some(sh) = ideal {
                // lint:exempt(shard-reachability): ideal-TLB mode models
                // instant translation; the shared lane is handed in
                // synchronously.
                if !sh.uvms[tenant].is_resident(vpn) {
                    return false;
                }
                match sh.uvms[tenant].page_table.translate(vpn) {
                    Some(t) => t.ppn,
                    None => return false,
                }
            } else {
                match self.l1_tlbs[li].probe(Vpn(salt(tenant, vpn))) {
                    Some(Some(hit)) => hit.ppn,
                    // A probe miss — or a model that cannot preview its
                    // lookups (the coalescing CoLT/SnakeByte designs) —
                    // takes the event path.
                    _ => return false,
                }
            };
            if !matches!(self.l1_caches[li].peek_probe(translate(vaddr, ppn)), Probe::Hit) {
                return false;
            }
        }
        true
    }

    /// Commits a classified fast-path warp: performs, at issue time, the
    /// state updates the event path spreads across its TLB-result and
    /// L1-result events — TLB LRU bump and stats, port grants, cache
    /// LRU/dirty bits — and computes each sector's completion cycle from
    /// the Table II latencies. The latency bookkeeping happens inline and
    /// the calendar carries only the warp wake-up; one sequence number
    /// per sector is skipped (see [`Self::burn_seq`]).
    fn fast_path_commit(
        &mut self,
        now: Cycle,
        sm: u32,
        warp: u32,
        is_store: bool,
        sectors: &[VirtAddr],
        mut ideal: Option<&mut SharedLane<'_>>,
    ) {
        let tenant = self.tenant(sm);
        let li = sm as usize;
        let tlb_lat = self.cfg.l1_tlb.latency;
        let cache_lat = self.cfg.l1_cache.latency;
        self.stats.fast_path_hits += 1;
        self.stats.fast_path_sectors += sectors.len() as u64;
        #[cfg(feature = "probes")]
        let emit_span = self.log.is_active() && self.log.sampled(warp);
        #[cfg(feature = "probes")]
        if emit_span {
            self.log.span_enter(SpanPoint::FastPath, Track::sm_warp(sm, warp), now);
        }
        let mut t_done = now;
        for &vaddr in sectors {
            self.stats.sector_requests += 1;
            let vpn = vaddr.vpn();
            let (ppn, done) = if let Some(sh) = ideal.as_deref_mut() {
                // lint:exempt(shard-reachability): ideal-TLB mode models
                // instant translation.
                let remote = sh.touch_page(now, tenant, vpn);
                debug_assert!(!remote, "fast path classified a non-resident page as a hit");
                let t = sh.uvms[tenant]
                    .page_table
                    .translate(vpn)
                    .expect("fast path classified an unmapped page as resident");
                (t.ppn, self.l1_cache_ports[li].grant(now))
            } else {
                self.stats.l1_tlb_lookups += 1;
                let g_tlb = self.l1_tlb_ports[li].grant(now);
                let svpn = salt(tenant, vpn);
                let hit = self.l1_tlbs[li]
                    .lookup(Vpn(svpn))
                    .expect("fast path classified an L1 TLB miss as a hit");
                self.stats.l1_tlb_hits += 1;
                self.record_coverage(hit.coverage_pages);
                let g_cache = self.l1_cache_ports[li].grant(now);
                let done = match self.cfg.l1_arrangement {
                    // VIPT: translation and data lookup overlap from
                    // their respective port grants.
                    crate::config::CacheArrangement::Vipt => {
                        (g_tlb + tlb_lat).max(g_cache + cache_lat)
                    }
                    // PIPT: the data access needs both its port slot and
                    // the finished translation before it can start.
                    crate::config::CacheArrangement::Pipt => {
                        (g_tlb + tlb_lat).max(g_cache) + cache_lat
                    }
                };
                (hit.ppn, done)
            };
            let pa = translate(vaddr, ppn);
            self.stats.l1d_lookups += 1;
            let probe = self.l1_caches[li].probe(pa);
            debug_assert!(
                matches!(probe, Probe::Hit),
                "fast path classified an L1 data miss as a hit: {probe:?}"
            );
            self.stats.l1d_hits += 1;
            if is_store {
                self.l1_caches[li].mark_dirty(pa);
            }
            self.stats.sector_latency.add(done - now);
            self.stats.sector_latency_hist.add(done - now);
            // Fast-path sectors allocate no request, so they feed the
            // breakdown here: the whole latency is data-side (Fetch).
            #[cfg(feature = "probes")]
            {
                self.stats.latency_breakdown.add(Phase::Fetch, done - now);
                self.stats.latency_breakdown.sectors += 1;
            }
            self.burn_seq(sm);
            // Port grants are non-decreasing across the loop, so the last
            // sector carries the warp's completion cycle.
            t_done = t_done.max(done);
        }
        self.stats.load_latency.add(t_done - now);
        #[cfg(feature = "probes")]
        if emit_span {
            self.log.span_exit(SpanPoint::FastPath, Track::sm_warp(sm, warp), t_done);
        }
        // The warp re-issues one cycle after its last sector completes —
        // the same wake point `complete_req` produces.
        self.sched(sm, t_done + 1, Ev::WarpIssue { sm, warp });
    }

    fn start_translation(&mut self, now: Cycle, id: ReqId, ideal: Option<&mut SharedLane<'_>>) {
        let (vpn, sm) = {
            let r = self.req(id);
            (r.vpn(), r.sm)
        };
        let tenant = self.tenant(sm);
        if let Some(sh) = ideal {
            // lint:exempt(shard-reachability): ideal-TLB mode models
            // instant translation; translations resolve synchronously
            // against the shared page tables.
            if sh.touch_page(now, tenant, vpn) {
                // Cold page below the migration threshold: the GMMU
                // faults and the access is serviced from host memory over
                // the interconnect. No GPU TLB entry is installed and MOD
                // is not trained (the paper restricts updates to
                // GPU-mapped regions).
                sh.stats.remote_accesses += 1;
                self.probe_phase(now, id, Phase::Fetch);
                sh.probe_span(
                    SpanPoint::Remote,
                    Track::uvm(tenant as u32),
                    now,
                    now + self.cfg.uvm.remote_latency,
                    id.slot() as u64,
                );
                self.req_ref(id);
                self.sched(sm, now + self.cfg.uvm.remote_latency, Ev::RemoteDone { req: id });
                return;
            }
            let t = sh.uvms[tenant].page_table.translate(vpn).expect("page just touched");
            let r = self.req_mut(id);
            r.real_ppn = Some(t.ppn);
            r.translation_done = true;
            self.probe_phase(now, id, Phase::Fetch);
            self.schedule_l1_access(now, id, 0);
            return;
        }
        let li = sm as usize;
        let grant = self.l1_tlb_ports[li].grant(now);
        self.probe_phase(now, id, Phase::Tlb);
        self.probe_queue_wait(grant - now);
        self.req_ref(id);
        self.sched(sm, grant + self.cfg.l1_tlb.latency, Ev::L1TlbResult { req: id });
    }

    // ------------------------------------------------------------------
    // Translation path (lane side)
    // ------------------------------------------------------------------

    fn l1_tlb_result(&mut self, now: Cycle, id: ReqId) {
        let (sm, vpn) = {
            let r = self.req(id);
            (r.sm, r.vpn())
        };
        self.stats.l1_tlb_lookups += 1;
        let tenant = self.tenant(sm);
        let svpn = salt(tenant, vpn);
        let li = sm as usize;
        if let Some(hit) = self.l1_tlbs[li].lookup(Vpn(svpn)) {
            self.stats.l1_tlb_hits += 1;
            self.record_coverage(hit.coverage_pages);
            self.probe_phase(now, id, Phase::Fetch);
            let r = self.req_mut(id);
            r.real_ppn = Some(hit.ppn);
            r.translation_done = true;
            // VIPT: the L1 data lookup proceeded in parallel with the TLB,
            // so only the non-overlapped latency remains. PIPT serializes.
            let latency = match self.cfg.l1_arrangement {
                crate::config::CacheArrangement::Vipt => {
                    self.cfg.l1_cache.latency.saturating_sub(self.cfg.l1_tlb.latency)
                }
                crate::config::CacheArrangement::Pipt => self.cfg.l1_cache.latency,
            };
            self.schedule_l1_access(now, id, latency);
            return;
        }
        // Miss: cross into the shared hierarchy, where residency,
        // speculation (the CAST hook), and the L2 TLB lookup live.
        self.l1_tlb_miss_forward(now, id);
    }

    /// Registers a missing request in the L1 TLB MSHRs and emits the
    /// cross-domain `TlbMiss`. `need_l2` distinguishes the allocating
    /// request (which triggers the shared L2 TLB lookup) from merged
    /// followers (which still want residency/speculation handling).
    fn l1_tlb_miss_forward(&mut self, now: Cycle, id: ReqId) {
        let (sm, vpn, pc, is_store) = {
            let r = self.req(id);
            (r.sm, r.vpn(), r.pc, r.is_store)
        };
        let svpn = salt(self.tenant(sm), vpn);
        self.probe_phase(now, id, Phase::Walk);
        // Whatever the grant, the id gets stored: as an MSHR waiter
        // (allocated or merged) or on the overflow queue.
        self.req_ref(id);
        let li = sm as usize;
        match self.l1_tlb_mshrs[li].request(svpn, id) {
            MshrGrant::Allocated => {
                self.send(sm, now + 1, Ev::TlbMiss { req: id, sm, svpn, pc, is_store, need_l2: true });
            }
            MshrGrant::Merged => {
                self.send(sm, now + 1, Ev::TlbMiss { req: id, sm, svpn, pc, is_store, need_l2: false });
            }
            MshrGrant::Full => {
                self.stats.l1_tlb_mshr_full += 1;
                self.tlb_overflow[li].push(id);
            }
        }
    }

    /// Handles [`Ev::SpecDispatch`]: the shared-side policy predicted a
    /// frame; start the speculative L1 probe unless the normal path has
    /// already won the race.
    fn spec_dispatch(&mut self, now: Cycle, id: ReqId, ppn: Ppn, pre_validated: bool) {
        // Token event: the request may have completed and been freed
        // while the dispatch was in flight.
        let Some(r) = self.reqs.get(id) else { return };
        if r.completed || r.translation_done || r.spec.is_some() {
            return;
        }
        let sm = r.sm;
        self.req_mut(id).spec =
            Some(SpecState { ppn, ideal: pre_validated, killed: false, fetch_registered: false });
        let li = sm as usize;
        let grant = self.l1_cache_ports[li].grant(now);
        self.req_ref(id);
        self.sched(sm, grant + self.cfg.l1_cache.latency, Ev::SpecL1Result { req: id });
    }

    /// Handles [`Ev::ResolveSm`]: fills this SM's L1 TLB with a resolved
    /// translation and wakes its waiting requests.
    // The parameter list mirrors the event's fields one-to-one.
    #[allow(clippy::too_many_arguments)]
    fn resolve_sm(
        &mut self,
        now: Cycle,
        sm: u32,
        svpn: u64,
        ppn: Ppn,
        pages: u64,
        run: Option<ContigRun>,
        via_eaf: bool,
        accel: &dyn TranslationPolicy,
    ) {
        let fill = TlbFill { vpn: Vpn(svpn), ppn, pages, run };
        let li = sm as usize;
        let priority = accel.l1_fill_priority(sm as usize, unsalt(svpn));
        self.l1_tlbs[li].fill_prioritized(&fill, priority);
        self.complete_tlb_waiters(now, sm, svpn, ppn, via_eaf);
        self.retry_tlb_overflow(now, sm);
    }

    /// Completes every L1-TLB-MSHR waiter on `svpn` and defers accel
    /// training to the shared lane (one hop; the accel is shared state).
    fn complete_tlb_waiters(&mut self, now: Cycle, sm: u32, svpn: u64, ppn: Ppn, via_eaf: bool) {
        let li = sm as usize;
        if let Some(mut waiters) = self.l1_tlb_mshrs[li].complete(svpn) {
            for id in waiters.drain(..) {
                let pc = self.req(id).pc;
                self.send(sm, now + 1, Ev::AccelTrain { sm, pc, svpn, ppn: ppn.0 });
                self.translation_resolved_for_req(now, id, ppn, via_eaf);
                self.req_unref(id);
            }
            self.l1_tlb_mshrs[li].recycle(waiters);
        }
    }

    /// MSHR space freed: retry overflow translation requests. The retry
    /// re-pins the id before the queue's own pin is consumed.
    fn retry_tlb_overflow(&mut self, now: Cycle, sm: u32) {
        let li = sm as usize;
        let pending = std::mem::take(&mut self.tlb_overflow[li]);
        for id in pending {
            self.l1_tlb_miss_forward(now, id);
            self.req_unref(id);
        }
    }

    /// Handles [`Ev::RemoteDone`]: a remote (host-memory) access
    /// completing. In ideal-TLB mode the event itself pins the request;
    /// otherwise the L1-TLB-MSHR waiter entry does, and is released here.
    fn remote_done(&mut self, now: Cycle, id: ReqId) {
        if self.cfg.ideal_tlb {
            if !self.req(id).completed {
                self.complete_req(now, id);
            }
            self.req_unref(id);
            return;
        }
        // Unpinned token: an EAF/resolution may have completed the
        // request and drained its waiter entry already.
        let Some(r) = self.reqs.get(id) else { return };
        let sm = r.sm;
        let svpn = salt(self.tenant(sm), r.vpn());
        if !r.completed {
            self.complete_req(now, id);
        }
        let li = sm as usize;
        if self.l1_tlb_mshrs[li].remove_waiter(svpn, &id) {
            self.req_unref(id);
            // The waiter slot freed may have been the last one holding an
            // entry: overflowed requests can now retry.
            self.retry_tlb_overflow(now, sm);
        }
    }

    fn translation_resolved_for_req(&mut self, now: Cycle, id: ReqId, ppn: Ppn, via_eaf: bool) {
        let req = self.req_mut(id);
        req.real_ppn = Some(ppn);
        req.translation_done = true;
        if req.completed {
            return; // already satisfied by rapid/ideal validation
        }
        // Translation known: whatever waiting remains (cache lookup, MSHR
        // merge, DRAM) is data-side time in every branch below.
        self.probe_phase(now, id, Phase::Fetch);
        let req = self.req(id);
        let sm = req.sm;
        let li = sm as usize;
        let Some(spec) = req.spec else {
            self.schedule_l1_access(now, id, self.cfg.l1_cache.latency);
            return;
        };
        let spec_pa = translate(req.vaddr, spec.ppn);
        let correct = spec.ppn == ppn;
        if correct {
            // Fig 16 accounting: a resolution delivered by Early-TLB-Fill
            // counts as Fast_Translation — one rapid validation serves
            // many accesses.
            if self.l1_mshrs[li].contains(spec_pa.0) {
                // A fetch of the speculated sector is in flight (this
                // request's own, or another warp's): the original access
                // merges with it in the cache MSHR.
                if !spec.fetch_registered && self.l1_mshrs[li].merge(spec_pa.0, id) {
                    self.req_ref(id);
                    self.req_mut(id)
                        .spec
                        .as_mut()
                        .expect("spec state outlives its in-flight sector fetch")
                        .fetch_registered = true;
                }
                self.stats.outcomes.record(if via_eaf {
                    SpecOutcome::FastTranslation
                } else {
                    SpecOutcome::L1dMerge
                });
                return; // completion happens at the fill
            }
            if self.l1_caches[li].peek(spec_pa).is_some() {
                // Prefetched sector still resident: guarantee and re-access.
                self.l1_caches[li].set_guarantee(spec_pa, true);
                self.wake_unguaranteed(now, sm, spec_pa);
                self.stats.outcomes.record(if via_eaf {
                    SpecOutcome::FastTranslation
                } else {
                    SpecOutcome::L1dHit
                });
                self.schedule_l1_access(now, id, self.cfg.l1_cache.latency);
                return;
            }
            // Not fetched (or evicted) before the translation arrived.
            self.stats.outcomes.record(if via_eaf {
                SpecOutcome::FastTranslation
            } else {
                SpecOutcome::L1dMiss
            });
            self.schedule_l1_access(now, id, self.cfg.l1_cache.latency);
        } else {
            self.req_mut(id).spec.as_mut().expect("spec present").killed = true;
            // Drop the wrongly fetched sector if it is resident and not
            // legitimately owned (guaranteed) by some other request.
            if let Some(flags) = self.l1_caches[li].peek(spec_pa) {
                if !flags.guaranteed {
                    self.l1_caches[li].invalidate_sector(spec_pa);
                    self.wake_unguaranteed(now, sm, spec_pa);
                }
            }
            self.schedule_l1_access(now, id, self.cfg.l1_cache.latency);
        }
    }

    // ------------------------------------------------------------------
    // Data path (lane side)
    // ------------------------------------------------------------------

    fn schedule_l1_access(&mut self, now: Cycle, id: ReqId, latency: Cycle) {
        let sm = self.req(id).sm;
        let li = sm as usize;
        let grant = self.l1_cache_ports[li].grant(now);
        self.probe_queue_wait(grant - now);
        self.req_ref(id);
        self.sched(sm, grant + latency, Ev::L1Result { req: id });
    }

    fn l1_result(&mut self, now: Cycle, id: ReqId) {
        if self.req(id).completed {
            return;
        }
        let (sm, pa, is_store) = {
            let r = self.req(id);
            (r.sm, r.real_pa().expect("translated before L1 access"), r.is_store)
        };
        let li = sm as usize;
        self.stats.l1d_lookups += 1;
        match self.l1_caches[li].probe(pa) {
            Probe::Hit => {
                self.stats.l1d_hits += 1;
                if is_store {
                    self.l1_caches[li].mark_dirty(pa);
                }
                self.complete_req(now, id);
            }
            Probe::HitUnguaranteed => {
                // The sector is present but awaiting validation. This
                // request reached the data path with a *confirmed*
                // translation to the same physical sector — exactly the
                // proof the guarantee bit requires ("if the speculation
                // is accurate, set the guarantee bit"). Validate and use.
                self.stats.l1d_hits += 1;
                self.l1_caches[li].set_guarantee(pa, true);
                if is_store {
                    self.l1_caches[li].mark_dirty(pa);
                }
                self.complete_req(now, id);
                self.wake_unguaranteed(now, sm, pa);
            }
            Probe::Miss => self.l1_miss(now, id, pa),
        }
    }

    /// Wakes requests waiting on an unguaranteed sector once its fate is
    /// known: on `usable` they re-probe (and hit); otherwise they fall
    /// back to a normal fetch.
    fn wake_unguaranteed(&mut self, now: Cycle, sm: u32, pa: PhysAddr) {
        if let Some(waiters) = self.unguaranteed_waiters.remove(&(sm, pa.0)) {
            for id in waiters {
                if !self.req(id).completed {
                    self.schedule_l1_access(now, id, 1);
                }
                self.req_unref(id);
            }
        }
    }

    /// Wakes every unguaranteed-sector waiter of an SM (shootdown path).
    fn wake_all_unguaranteed(&mut self, now: Cycle, sm: u32) {
        let mut keys = std::mem::take(&mut self.scratch_keys);
        keys.clear();
        keys.extend(self.unguaranteed_waiters.keys().filter(|(s, _)| *s == sm).map(|(_, pa)| *pa));
        for &pa in &keys {
            self.wake_unguaranteed(now, sm, PhysAddr(pa));
        }
        self.scratch_keys = keys;
    }

    fn l1_miss(&mut self, now: Cycle, id: ReqId, pa: PhysAddr) {
        let sm = self.req(id).sm;
        let li = sm as usize;
        // Both grants store the id: as an MSHR waiter or on the overflow
        // queue.
        self.req_ref(id);
        match self.l1_mshrs[li].request(pa.0, id) {
            MshrGrant::Allocated => {
                self.send(sm, now + 1, Ev::L2Req { sm, pa: pa.0 });
            }
            MshrGrant::Merged => {}
            MshrGrant::Full => {
                self.stats.cache_mshr_full += 1;
                self.l1_mshr_overflow[li].push_back(id);
            }
        }
    }

    fn spec_l1_result(&mut self, now: Cycle, id: ReqId, accel: &dyn TranslationPolicy) {
        let req = self.req(id);
        if req.completed || req.translation_done {
            // Translation beat the speculative lookup; the normal path owns
            // the request now.
            return;
        }
        let sm = req.sm;
        let li = sm as usize;
        let Some(spec) = req.spec else { return };
        let spec_pa = translate(req.vaddr, spec.ppn);
        match self.l1_caches[li].probe(spec_pa) {
            Probe::Hit => {
                if spec.ideal {
                    // Ideal validation: the speculation is already
                    // confirmed, so a guaranteed hit completes the load,
                    // and the oracle-known mapping releases the pending
                    // translation machinery exactly like EAF.
                    let vpn = self.req(id).vpn();
                    self.stats.outcomes.record(SpecOutcome::FastTranslation);
                    self.complete_req(now, id);
                    self.eaf_local(now, sm, vpn, spec.ppn, accel);
                }
            }
            Probe::HitUnguaranteed => {
                // Another request's speculative fetch already brought the
                // sector in; wait for validation or translation.
            }
            Probe::Miss => {
                // Demand fetches take priority: speculative fetches lapse
                // when the MSHR file is under pressure (the LSU pending
                // table drops speculative entries rather than stalling).
                let mshrs = &self.l1_mshrs[li];
                if !mshrs.contains(spec_pa.0) && mshrs.len() * 2 >= self.cfg.l1_cache.mshr_entries {
                    return;
                }
                match self.l1_mshrs[li].request(spec_pa.0, id) {
                    MshrGrant::Allocated => {
                        self.req_ref(id);
                        self.stats.spec_fetches += 1;
                        self.req_mut(id)
                            .spec
                            .as_mut()
                            .expect("spec state outlives its in-flight sector fetch")
                            .fetch_registered = true;
                        self.probe_phase(now, id, Phase::Validate);
                        #[cfg(feature = "probes")]
                        {
                            self.req_mut(id).spec_started = now;
                        }
                        self.send(sm, now + 1, Ev::L2Req { sm, pa: spec_pa.0 });
                    }
                    MshrGrant::Merged => {
                        self.req_ref(id);
                        self.stats.spec_fetches += 1;
                        self.req_mut(id)
                            .spec
                            .as_mut()
                            .expect("spec state outlives its in-flight sector fetch")
                            .fetch_registered = true;
                        self.probe_phase(now, id, Phase::Validate);
                        #[cfg(feature = "probes")]
                        {
                            self.req_mut(id).spec_started = now;
                        }
                    }
                    MshrGrant::Full => {
                        // Resource-constrained: the speculation silently
                        // lapses — the id was never stored, so no pin.
                    }
                }
            }
        }
    }

    fn l1_fill(
        &mut self,
        now: Cycle,
        sm: u32,
        pa: PhysAddr,
        meta: FetchedSector,
        accel: &dyn TranslationPolicy,
    ) {
        let li = sm as usize;
        // Fill invisible first; waiters below decide visibility.
        let evicted_line = self.l1_caches[li].fill(
            pa,
            SectorFlags { valid: true, compressed: meta.compressed, guaranteed: false, dirty: false },
        );
        if let Some(ev) = evicted_line {
            for sector in 0..crate::addr::SECTORS_PER_LINE {
                let spa = PhysAddr(ev.line_addr * crate::addr::LINE_BYTES + sector * SECTOR_BYTES);
                self.wake_unguaranteed(now, sm, spa);
                // Write-back: dirty sectors leave the L1 toward the L2.
                let f = ev.sectors[sector as usize];
                if f.valid && f.dirty {
                    self.send(sm, now + 1, Ev::WritebackL2 { pa: spa.0 });
                }
            }
        }
        let mut guarantee = false;
        let mut dirty = false;
        let mut all_killed_specs = true;
        if let Some(mut waiters) = self.l1_mshrs[li].complete(pa.0) {
            for id in waiters.drain(..) {
                let req = self.req(id);
                if req.completed {
                    // Already satisfied elsewhere; never a reason to drop
                    // the freshly fetched data. (This read through the
                    // waiter copy is why completion alone must not free a
                    // request — only a zero pin count may.)
                    all_killed_specs = false;
                    self.req_unref(id);
                    continue;
                }
                if req.translation_done {
                    if req.real_pa() == Some(pa) {
                        // Normal fetch (or a correct-spec merge): usable.
                        guarantee = true;
                        all_killed_specs = false;
                        if req.is_store {
                            dirty = true;
                        }
                        self.complete_req(now, id);
                    }
                    // else: stale fill for a killed speculation; ignore.
                    self.req_unref(id);
                    continue;
                }
                // Untranslated waiter: must be a speculative fetch.
                if req.spec_pa() == Some(pa) {
                    let spec = req.spec.expect("spec fetch has state");
                    if spec.ideal {
                        // Pre-confirmed by ideal validation; the oracle
                        // mapping also releases the translation machinery.
                        guarantee = true;
                        all_killed_specs = false;
                        self.stats.outcomes.record(SpecOutcome::FastTranslation);
                        #[cfg(feature = "probes")]
                        {
                            let (warp, started) = {
                                let r = self.req(id);
                                (r.warp, r.spec_started)
                            };
                            self.stats.validation_latency_hist.add(now.saturating_sub(started));
                            self.probe_instant(
                                SpanPoint::Validation,
                                Track::sm_warp(sm, warp),
                                now,
                                1,
                            );
                        }
                        let vpn = self.req(id).vpn();
                        self.complete_req(now, id);
                        self.eaf_local(now, sm, vpn, spec.ppn, accel);
                        self.req_unref(id);
                        continue;
                    }
                    let ctx = SpecFillContext {
                        sm: sm as usize,
                        pc: req.pc,
                        requested_vpn: req.vpn(),
                        asid: asid_of(self.tenant(sm)),
                        spec_ppn: spec.ppn,
                        sector: meta,
                    };
                    match accel.on_spec_fill(&ctx) {
                        SpecFillAction::AwaitTranslation => {
                            all_killed_specs = false;
                        }
                        SpecFillAction::Validated { eaf } => {
                            guarantee = true;
                            all_killed_specs = false;
                            if meta.compressed {
                                self.stats.spec_compressed += 1;
                            }
                            self.stats.outcomes.record(SpecOutcome::FastTranslation);
                            #[cfg(feature = "probes")]
                            {
                                let (warp, started) = {
                                    let r = self.req(id);
                                    (r.warp, r.spec_started)
                                };
                                self.stats
                                    .validation_latency_hist
                                    .add(now.saturating_sub(started));
                                self.probe_instant(
                                    SpanPoint::Validation,
                                    Track::sm_warp(sm, warp),
                                    now,
                                    1,
                                );
                            }
                            let vpn = self.req(id).vpn();
                            self.complete_req(now, id);
                            if eaf {
                                self.eaf_local(now, sm, vpn, spec.ppn, accel);
                            }
                        }
                        SpecFillAction::Invalidate => {
                            self.stats.cava_mismatches += 1;
                            #[cfg(feature = "probes")]
                            {
                                let (warp, started) = {
                                    let r = self.req(id);
                                    (r.warp, r.spec_started)
                                };
                                self.stats
                                    .validation_latency_hist
                                    .add(now.saturating_sub(started));
                                self.probe_instant(
                                    SpanPoint::Validation,
                                    Track::sm_warp(sm, warp),
                                    now,
                                    0,
                                );
                            }
                            self.req_mut(id)
                                .spec
                                .as_mut()
                                .expect("spec state outlives its in-flight sector fetch")
                                .killed = true;
                        }
                    }
                }
                self.req_unref(id);
            }
        } else {
            // No waiters (e.g. a refill after invalidation): plain data.
            guarantee = true;
            all_killed_specs = false;
        }
        if guarantee {
            self.l1_caches[li].set_guarantee(pa, true);
            if dirty {
                self.l1_caches[li].mark_dirty(pa);
            }
            self.wake_unguaranteed(now, sm, pa);
        } else if all_killed_specs {
            // Only mis-speculated fetches wanted this sector: drop it.
            self.l1_caches[li].invalidate_sector(pa);
            self.wake_unguaranteed(now, sm, pa);
        }
        // L1 MSHR space freed: admit overflow waiters into free capacity.
        while let Some(&id) = self.l1_mshr_overflow[li].front() {
            if self.req(id).completed {
                self.l1_mshr_overflow[li].pop_front();
                self.req_unref(id);
                continue;
            }
            let target = self.req(id).real_pa().expect("overflowed after translation");
            if self.l1_mshrs[li].is_full() && !self.l1_mshrs[li].contains(target.0) {
                break;
            }
            self.l1_mshr_overflow[li].pop_front();
            // The retry (`l1_miss`) re-pins before the queue's pin drops.
            self.l1_miss(now, id, target);
            self.req_unref(id);
        }
    }

    /// Lane half of Early TLB Fill: installs the validated translation
    /// in this SM's L1 TLB, wakes its local waiters, and hands the
    /// resource release + cross-SM propagation to the shared lane.
    fn eaf_local(
        &mut self,
        now: Cycle,
        sm: u32,
        vpn: Vpn,
        ppn: Ppn,
        accel: &dyn TranslationPolicy,
    ) {
        self.stats.eaf_fills += 1;
        let tenant = self.tenant(sm);
        let svpn = salt(tenant, vpn);
        let fill = TlbFill { vpn: Vpn(svpn), ppn, pages: 1, run: None };
        let li = sm as usize;
        let priority = accel.l1_fill_priority(sm as usize, vpn);
        self.l1_tlbs[li].fill_prioritized(&fill, priority);
        self.complete_tlb_waiters(now, sm, svpn, ppn, true);
        self.retry_tlb_overflow(now, sm);
        self.send(sm, now + 1, Ev::EafResolve { sm, svpn, ppn: ppn.0 });
    }

    /// Handles [`Ev::Shootdown`]: a UVM chunk eviction reaching this SM.
    /// The shared structures were invalidated at the eviction; here the
    /// SM's L1 TLB and cache drop their now-stale entries.
    fn shootdown(&mut self, now: Cycle, sm: u32, first_svpn: u64, pages: u64, frames: &FxHashSet<u64>) {
        let li = sm as usize;
        self.l1_tlbs[li].invalidate(Vpn(first_svpn), pages);
        self.l1_caches[li].invalidate_frames(frames);
        self.wake_all_unguaranteed(now, sm);
    }

    fn complete_req(&mut self, now: Cycle, id: ReqId) {
        let (sm, warp, issued) = {
            let req = self.req_mut(id);
            debug_assert!(!req.completed, "double completion of request {id:?}");
            req.completed = true;
            (req.sm, req.warp, req.issued)
        };
        self.stats.sector_latency.add(now - issued);
        self.stats.sector_latency_hist.add(now - issued);
        self.probe_complete(now, id);
        let slot = self.warp_slot(sm, warp);
        let li = sm as usize;
        crate::debug_invariant!(
            self.warp_outstanding[slot] > 0,
            "completing request {id:?} for a warp with no outstanding sectors"
        );
        self.warp_outstanding[slot] -= 1;
        let left = self.warp_outstanding[slot];
        if left == 0 {
            self.stats.load_latency.add(now - self.warp_issue_time[slot]);
            self.sms[li].set_warp(warp as usize, WarpState::Ready, now);
            self.sched(sm, now + 1, Ev::WarpIssue { sm, warp });
        } else {
            self.sms[li].set_warp(
                warp as usize,
                WarpState::WaitingMemory { outstanding: left },
                now,
            );
        }
    }

    fn record_coverage(&mut self, pages: u64) {
        let bucket = CoverageBucket::of_pages(pages);
        let idx = CoverageBucket::ALL
            .iter()
            .position(|b| *b == bucket)
            .expect("CoverageBucket::ALL enumerates every bucket of_pages can return");
        self.stats.coverage_hits[idx] += 1;
    }
}

impl<'a> SharedLane<'a> {
    // ------------------------------------------------------------------
    // Translation path (shared side)
    // ------------------------------------------------------------------

    /// Handles [`Ev::TlbMiss`]: the shared half of an L1 TLB miss.
    /// Residency (and hence remoteness), the speculation policy, and the
    /// L2 TLB all live here, behind the horizon barrier.
    // The parameter list mirrors the event's fields one-to-one.
    #[allow(clippy::too_many_arguments)]
    fn tlb_miss(
        &mut self,
        now: Cycle,
        id: ReqId,
        sm: u32,
        svpn: u64,
        pc: u64,
        is_store: bool,
        need_l2: bool,
    ) {
        let tenant = tenant_of_svpn(svpn);
        let vpn = unsalt(svpn);
        // Residency first: the pre-shard engine touched at issue; the
        // decomposed protocol touches at the first shared-side sighting.
        if self.touch_page(now, tenant, vpn) {
            // Cold page below the migration threshold: serviced from host
            // memory over the interconnect. No GPU TLB entry is installed
            // and the accel is not trained (the paper restricts updates
            // to GPU-mapped regions). The lane-side MSHR waiter entry
            // drains one RemoteDone at a time.
            self.stats.remote_accesses += 1;
            // Nothing was dispatched for this entry; make sure no stale
            // resolution marker survives from a prior lifetime.
            if need_l2 && self.pending_resolve.remove(&(sm, svpn)) {
                self.l2_tlb_key_changed(svpn);
            }
            self.probe_span(
                SpanPoint::Remote,
                Track::uvm(tenant as u32),
                now,
                now + self.cfg.uvm.remote_latency,
                id.slot() as u64,
            );
            self.send(
                now + DEFAULT_RESPONSE_LOOKAHEAD + self.cfg.uvm.remote_latency,
                Ev::RemoteDone { req: id },
            );
            return;
        }
        // CAST hook: attempt speculative translation. Stores never
        // speculate — erroneously performed writes cannot be rolled back.
        let prediction =
            if is_store { None } else { self.accel.on_l1_tlb_miss(sm as usize, pc, vpn) };
        if let Some(spec_ppn) = prediction {
            self.stats.speculations += 1;
            // The page can have been evicted (oversubscription) between
            // warp issue and this miss; such speculations validate false.
            let real = self.uvms[tenant].page_table.translate(vpn);
            let correct = real.is_some_and(|r| r.ppn == spec_ppn);
            if correct {
                self.stats.spec_correct += 1;
            }
            if self.frame_owner_any(spec_ppn).is_none() {
                self.stats.spec_false += 1;
            }
            let kind = self.accel.validation_kind();
            if let ValidationKind::Rapid { latency } = kind {
                // Validation-on-use (Revelator): the fetch dispatches
                // unconditionally, and a lightweight mapping check runs
                // alongside it. A correct speculation is confirmed
                // `latency` cycles from now, releasing the background
                // walk early; a wrong one silently waits for the walk.
                self.send(
                    now + DEFAULT_RESPONSE_LOOKAHEAD,
                    Ev::SpecDispatch { req: id, ppn: spec_ppn.0, ideal: false },
                );
                if correct {
                    self.sched(now + latency, Ev::RapidResolve { sm, svpn, ppn: spec_ppn.0 });
                }
            } else {
                let ideal = kind == ValidationKind::Ideal;
                if !ideal || correct {
                    // Ideal validation confirms speculations before
                    // fetching; incorrect ones never fetch.
                    self.send(
                        now + DEFAULT_RESPONSE_LOOKAHEAD,
                        Ev::SpecDispatch { req: id, ppn: spec_ppn.0, ideal },
                    );
                }
            }
        }
        // Forward toward the L2 TLB. The allocating waiter dispatches the
        // lookup; merged followers only do so when no resolution is
        // pending for their (sm, page) — which happens when the entry's
        // allocating request went remote in an earlier residency state.
        if need_l2 {
            self.pending_resolve.insert((sm, svpn));
            self.dispatch_l2_lookup(now, sm, svpn);
        } else if self.pending_resolve.insert((sm, svpn)) {
            self.dispatch_l2_lookup(now, sm, svpn);
        }
    }

    fn dispatch_l2_lookup(&mut self, now: Cycle, sm: u32, svpn: u64) {
        self.stats.l2_tlb_lookups += 1;
        let grant = self.l2_tlb_ports.grant(now);
        self.probe_queue_wait(grant - now);
        self.sched(grant + self.cfg.l2_tlb.latency, Ev::L2TlbResult { sm, svpn });
    }

    fn l2_tlb_result(&mut self, now: Cycle, sm: u32, svpn: u64) {
        if self.l2_tlb_access(now, sm, svpn) {
            let arrival = self.l2_tlb_arrivals;
            self.l2_tlb_arrivals += 1;
            self.l2_tlb_overflow.insert(arrival, (sm, svpn));
            self.l2_tlb_queued.insert((svpn, arrival));
        }
    }

    /// One L2 TLB access for `(sm, svpn)`: dropped if its marker is gone,
    /// else a hit, an MSHR merge or allocation, or `true` when the MSHR
    /// file is full and the caller must queue the lookup.
    fn l2_tlb_access(&mut self, now: Cycle, sm: u32, svpn: u64) -> bool {
        if !self.pending_resolve.contains(&(sm, svpn)) {
            // Already resolved (e.g. EAF released the entry).
            return false;
        }
        if let Some(hit) = self.l2_tlb.lookup(Vpn(svpn)) {
            self.stats.l2_tlb_hits += 1;
            self.record_coverage(hit.coverage_pages);
            let pages = if hit.coverage_pages >= crate::addr::PAGES_PER_CHUNK {
                crate::addr::PAGES_PER_CHUNK
            } else {
                1
            };
            self.resolve_one_sm(now, sm, svpn, hit.ppn, pages, Some(hit.run()), false);
            return false;
        }
        match self.l2_tlb_mshr.request(svpn, sm) {
            MshrGrant::Allocated => {
                self.l2_tlb_key_changed(svpn);
                self.start_walk(now, svpn);
            }
            MshrGrant::Merged => self.stats.walk_merges += 1,
            MshrGrant::Full => {
                self.stats.l2_tlb_mshr_full += 1;
                return true;
            }
        }
        false
    }

    /// Records that queued lookups for `svpn` may no longer find the MSHR
    /// file full: the key was allocated (they would merge) or one of its
    /// markers left `pending_resolve` (they would be dropped).
    fn l2_tlb_key_changed(&mut self, svpn: u64) {
        if self.l2_tlb_queued.range((svpn, 0)..=(svpn, u64::MAX)).next().is_some() {
            self.l2_tlb_dirty_keys.insert(svpn);
        }
    }

    /// Installs `fill` in the L2 TLB. Queued lookups in its reach may now
    /// hit (a [`TlbModel`] requirement: a fill makes lookups hit only
    /// inside [`TlbModel::fill_reach`]), so their keys become dirty.
    fn l2_tlb_fill(&mut self, fill: &TlbFill) {
        self.l2_tlb.fill(fill);
        let reach = self.l2_tlb.fill_reach(fill);
        for &(svpn, _) in self.l2_tlb_queued.range((reach.start, 0)..(reach.end, 0)) {
            self.l2_tlb_dirty_keys.insert(svpn);
        }
    }

    /// Delivers a resolved translation to one SM: clears its pending
    /// marker and ships the fill across the horizon. The lane installs
    /// it and wakes that SM's waiters.
    // The parameter list mirrors the event's fields one-to-one.
    #[allow(clippy::too_many_arguments)]
    fn resolve_one_sm(
        &mut self,
        now: Cycle,
        sm: u32,
        svpn: u64,
        ppn: Ppn,
        pages: u64,
        run: Option<ContigRun>,
        via_eaf: bool,
    ) {
        if self.pending_resolve.remove(&(sm, svpn)) {
            self.l2_tlb_key_changed(svpn);
        }
        self.send(
            now + DEFAULT_RESPONSE_LOOKAHEAD,
            Ev::ResolveSm { sm, svpn, ppn: ppn.0, pages, run, via_eaf },
        );
    }

    fn start_walk(&mut self, now: Cycle, svpn: u64) {
        let tenant = tenant_of_svpn(svpn);
        let levels = self.uvms[tenant].page_table.walk_levels(unsalt(svpn));
        match self.walks.enqueue(Vpn(svpn), levels, now) {
            Some(id) => {
                self.walk_of_vpn.insert(svpn, id);
                self.vpn_of_walk.insert(id, Vpn(svpn));
                self.walk_started.insert(svpn, now);
                // Dispatch synchronously: a zero-delta event would only
                // defer this same call behind the rest of the cycle's
                // queue (and is deny-listed by avatar-lint).
                self.walk_dispatch(now);
            }
            None => {
                self.stats.pw_buffer_full += 1;
                self.pw_overflow.push_back(svpn);
            }
        }
    }

    fn walk_dispatch(&mut self, now: Cycle) {
        while let Some((walk, addr)) = self.walks.dispatch() {
            // The walker records its enqueue cycle as the walk's start:
            // the gap to the dispatch cycle is walk-buffer queueing.
            #[cfg(feature = "probes")]
            if let Some(enqueued) = self.walks.started_at(walk) {
                self.probe_queue_wait(now - enqueued);
            }
            self.walk_mem(now, walk, addr);
        }
    }

    fn walk_mem(&mut self, now: Cycle, walk: WalkId, addr: PhysAddr) {
        self.stats.walk_memory_accesses += 1;
        let pa = PhysAddr(addr.0 & !(SECTOR_BYTES - 1));
        let grant = self.l2_cache_ports.grant(now);
        self.sched(grant + self.cfg.l2_cache.latency, Ev::WalkL2 { walk, pa: pa.0 });
    }

    fn walk_l2(&mut self, now: Cycle, walk: WalkId, pa: PhysAddr) {
        self.stats.l2_lookups += 1;
        match self.l2_cache.probe(pa) {
            Probe::Hit | Probe::HitUnguaranteed => {
                self.stats.l2_hits += 1;
                self.advance_walk(now, walk);
            }
            Probe::Miss => match self.l2_mshr.request(pa.0, L2Waiter::Walk { walk }) {
                MshrGrant::Allocated => {
                    let done = self.dram.access(pa, DramOp::Read, now, SECTOR_BYTES);
                    self.sched(done, Ev::DramDone { pa: pa.0 });
                }
                MshrGrant::Merged => {}
                MshrGrant::Full => self.l2_mshr_overflow.push_back((pa.0, L2Waiter::Walk { walk })),
            },
        }
    }

    fn advance_walk(&mut self, now: Cycle, walk: WalkId) {
        match self.walks.step(walk) {
            None => {} // aborted by EAF
            Some(WalkProgress::Access(addr)) => self.walk_mem(now, walk, addr),
            Some(WalkProgress::Done) => {
                let svpn = self.vpn_of_walk.remove(&walk).expect("walk has vpn");
                let tenant = tenant_of_svpn(svpn.0);
                let vpn = unsalt(svpn.0);
                self.stats.page_walks += 1;
                if let Some(start) = self.walk_started.remove(&svpn.0) {
                    self.stats.walk_latency.add(now - start);
                    #[cfg(feature = "probes")]
                    {
                        self.stats.walk_latency_hist.add(now - start);
                        let walker = (walk.0 % self.cfg.walker.walkers as u64) as u32;
                        self.probe_span(
                            SpanPoint::WalkService,
                            Track::walker(walker),
                            start,
                            now,
                            svpn.0,
                        );
                    }
                }
                self.walk_of_vpn.remove(&svpn.0);
                // The PTE may have been invalidated by a concurrent
                // eviction; refault instantly (latency excluded).
                if self.uvms[tenant].page_table.translate(vpn).is_none() {
                    // The page was evicted while its walk was in flight;
                    // refault it in (repeat touches satisfy the access
                    // counter when threshold-based migration is active).
                    while self.touch_page(now, tenant, vpn) {}
                }
                let t = self.uvms[tenant].page_table.translate(vpn).expect("resident after touch");
                self.resolve_translation(now, svpn.0, t.ppn, t.pages);
                // A walker freed: dispatch more walks and retry overflow,
                // synchronously rather than via a zero-delta event.
                self.drain_pw_overflow(now);
                self.walk_dispatch(now);
            }
        }
    }

    fn drain_pw_overflow(&mut self, now: Cycle) {
        while !self.pw_overflow.is_empty() && self.walks.has_buffer_space() {
            let vpn = self.pw_overflow.pop_front().expect("checked non-empty");
            self.start_walk(now, vpn);
        }
    }

    /// Resolves a translation globally: fills the L2 TLB and wakes every
    /// waiting SM, then retries overflow queues.
    fn resolve_translation(&mut self, now: Cycle, svpn: u64, ppn: Ppn, pages: u64) {
        let tenant = tenant_of_svpn(svpn);
        let run = self.uvms[tenant].page_table.contiguous_run(unsalt(svpn), 16);
        let run = salt_run(tenant, run);
        self.l2_tlb_fill(&TlbFill { vpn: Vpn(svpn), ppn, pages, run });
        self.charge_merge_refs(now);
        if let Some(mut waiters) = self.l2_tlb_mshr.complete(svpn) {
            let mut seen = Vec::new();
            for sm in waiters.drain(..) {
                if !seen.contains(&sm) {
                    seen.push(sm);
                    self.resolve_one_sm(now, sm, svpn, ppn, pages, run, false);
                }
            }
            self.l2_tlb_mshr.recycle(waiters);
        }
        self.drain_l2_tlb_overflow(now);
    }

    fn charge_merge_refs(&mut self, now: Cycle) {
        let refs = self.l2_tlb.drain_extra_memory_refs();
        if refs > 0 {
            self.stats.merge_memory_accesses += refs;
            // Merge traffic consumes page-table bandwidth: fire-and-forget
            // DRAM reads in the page-table region.
            for i in 0..refs {
                let pa = PhysAddr(PT_BASE + (self.stats.merge_memory_accesses + i) * 64 % (1 << 30));
                self.dram.access(pa, DramOp::Read, now, SECTOR_BYTES);
            }
        }
    }

    /// Retries the queued L2 TLB lookups in arrival order, after every
    /// MSHR release or L2 TLB fill. Every outcome is what re-running each
    /// entry would give, but only entries whose outcome can have changed
    /// are re-run (DESIGN.md §5 item 6); every other entry is counted as
    /// finding the file full again and stays in place.
    fn drain_l2_tlb_overflow(&mut self, now: Cycle) {
        // Entries leave from the head until one retry finds the file full.
        let head = loop {
            let Some((&arrival, &(sm, svpn))) = self.l2_tlb_overflow.first_key_value() else {
                self.l2_tlb_dirty_keys.clear();
                return;
            };
            if self.l2_tlb_access(now, sm, svpn) {
                break arrival;
            }
            self.unqueue_l2_tlb_lookup(arrival, svpn);
        };
        // No MSHR slot frees inside a drain, so from here on an entry finds
        // the file full again unless its key is dirty. Only later entries
        // of dirty keys re-run, in arrival order. A re-run dirties at most
        // its own key, which is already re-running; expanding any other
        // key it dirtied keeps the drain exact should a hook ever do so.
        let mut expanded = std::mem::take(&mut self.l2_tlb_dirty_keys);
        let mut rerun = BinaryHeap::new();
        for &svpn in &expanded {
            self.queue_l2_tlb_rerun(&mut rerun, svpn, head);
        }
        let mut rerun_kept = 0;
        while let Some(Reverse(arrival)) = rerun.pop() {
            let (sm, svpn) = self.l2_tlb_overflow[&arrival];
            if self.l2_tlb_access(now, sm, svpn) {
                rerun_kept += 1;
            } else {
                self.unqueue_l2_tlb_lookup(arrival, svpn);
            }
            while let Some(key) = self.l2_tlb_dirty_keys.pop_first() {
                if expanded.insert(key) {
                    self.queue_l2_tlb_rerun(&mut rerun, key, arrival);
                }
            }
        }
        // The head and every entry re-run have been counted; the rest are
        // skipped retries that find the file full.
        self.stats.l2_tlb_mshr_full += self.l2_tlb_overflow.len() as u64 - 1 - rerun_kept;
        #[cfg(feature = "invariants")]
        for &(sm, svpn) in self.l2_tlb_overflow.values() {
            assert!(
                self.l2_tlb_retry_finds_full(sm, svpn),
                "queued L2 TLB lookup ({sm}, {svpn:#x}) would not find the MSHR file full \
                 after the drain"
            );
        }
    }

    /// Adds the arrival numbers of `svpn`'s queued lookups after `after`
    /// to `rerun`.
    fn queue_l2_tlb_rerun(&self, rerun: &mut BinaryHeap<Reverse<u64>>, svpn: u64, after: u64) {
        let later = self.l2_tlb_queued.range((svpn, after + 1)..=(svpn, u64::MAX));
        rerun.extend(later.map(|&(_, arrival)| Reverse(arrival)));
    }

    fn unqueue_l2_tlb_lookup(&mut self, arrival: u64, svpn: u64) {
        self.l2_tlb_overflow.remove(&arrival);
        self.l2_tlb_queued.remove(&(svpn, arrival));
    }

    /// Whether retrying the queued lookup `(sm, svpn)` would find the MSHR
    /// file full, as far as the L2 TLB can tell without a lookup: its
    /// marker is live, the file is full with no entry for its page, and a
    /// probe does not report a hit.
    fn l2_tlb_retry_finds_full(&self, sm: u32, svpn: u64) -> bool {
        self.pending_resolve.contains(&(sm, svpn))
            && self.l2_tlb_mshr.is_full()
            && !self.l2_tlb_mshr.contains(svpn)
            && !matches!(self.l2_tlb.probe(Vpn(svpn)), Some(Some(_)))
    }

    /// Shared half of Early TLB Fill ([`Ev::EafResolve`]): installs the
    /// validated translation in the L2 TLB, releases pending translation
    /// resources, aborts the in-flight walk, and propagates the entry to
    /// other SMs. The originating SM's L1 side was already served by
    /// `eaf_local`.
    fn eaf_resolve(&mut self, now: Cycle, sm: u32, svpn: u64, ppn: Ppn) {
        let tenant = tenant_of_svpn(svpn);
        self.l2_tlb_fill(&TlbFill { vpn: Vpn(svpn), ppn, pages: 1, run: None });
        // The origin resolved locally; retire its pending marker so a
        // later L2TlbResult doesn't double-deliver.
        if self.pending_resolve.remove(&(sm, svpn)) {
            self.l2_tlb_key_changed(svpn);
        }
        // Release the shared translation machinery.
        if let Some(mut waiters) = self.l2_tlb_mshr.complete(svpn) {
            self.stats.eaf_releases += 1;
            if let Some(walk) = self.walk_of_vpn.remove(&svpn) {
                if self.walks.abort(walk) {
                    self.stats.walks_aborted += 1;
                }
                self.vpn_of_walk.remove(&walk);
                self.walk_started.remove(&svpn);
                // The aborted walk freed a walker: dispatch synchronously.
                self.walk_dispatch(now);
            }
            self.pw_overflow.retain(|&v| v != svpn);
            let mut seen = Vec::new();
            for other in waiters.drain(..) {
                if other != sm && !seen.contains(&other) {
                    seen.push(other);
                    self.resolve_one_sm(now, other, svpn, ppn, 1, None, true);
                }
            }
            self.l2_tlb_mshr.recycle(waiters);
        }
        // Cross-SM propagation: the entry is *prefetched* into every
        // other SM's L1 TLB ("ensuring the desired translation is
        // efficiently prefetched across SMs"), not only handed to SMs
        // with a pending miss.
        if self.accel.propagates_cross_sm() {
            for other in 0..self.cfg.num_sms as u32 {
                // Isolation: entries are only forwarded within the tenant.
                if other != sm && self.tenant(other) == tenant {
                    self.stats.eaf_cross_sm_fills += 1;
                    self.resolve_one_sm(now, other, svpn, ppn, 1, None, true);
                }
            }
        }
        self.drain_l2_tlb_overflow(now);
    }

    /// Handles [`Ev::RapidResolve`]: the rapid validation-on-use verdict
    /// for a correct speculation. Re-checks the mapping at verdict time
    /// (the page can have been evicted while the check was in flight),
    /// then delivers the translation to the originating SM and runs the
    /// same shared-side release path as EAF: L2 TLB fill, MSHR release,
    /// walk abort, waiter delivery.
    fn rapid_resolve(&mut self, now: Cycle, sm: u32, svpn: u64, ppn: Ppn) {
        if !self.pending_resolve.contains(&(sm, svpn)) {
            // The background translation (or a merged EAF) won the race.
            return;
        }
        let tenant = tenant_of_svpn(svpn);
        match self.uvms[tenant].page_table.translate(unsalt(svpn)) {
            Some(real) if real.ppn == ppn => {}
            // Evicted or remapped since the miss: the verdict is stale
            // and the request falls back to the background walk.
            _ => return,
        }
        self.stats.rapid_validations += 1;
        self.resolve_one_sm(now, sm, svpn, ppn, 1, None, true);
        self.eaf_resolve(now, sm, svpn, ppn);
    }

    // ------------------------------------------------------------------
    // Data path (shared side)
    // ------------------------------------------------------------------

    /// Handles [`Ev::L2Req`]: a lane-side L1 miss arriving at the L2.
    /// The port is charged at arrival, matching the pre-shard engine's
    /// grant-at-allocation.
    fn l2_req(&mut self, now: Cycle, sm: u32, pa: PhysAddr) {
        let grant = self.l2_cache_ports.grant(now);
        self.sched(grant + self.cfg.l2_cache.latency, Ev::L2Access { sm, pa: pa.0 });
    }

    fn l2_access(&mut self, now: Cycle, sm: u32, pa: PhysAddr) {
        self.stats.l2_lookups += 1;
        match self.l2_cache.probe(pa) {
            Probe::Hit | Probe::HitUnguaranteed => {
                self.stats.l2_hits += 1;
                self.send_l1_fill(now, sm, pa);
            }
            Probe::Miss => match self.l2_mshr.request(pa.0, L2Waiter::Sector { sm }) {
                MshrGrant::Allocated => {
                    let done = self.dram.access(pa, DramOp::Read, now, SECTOR_BYTES);
                    self.sched(done, Ev::DramDone { pa: pa.0 });
                }
                MshrGrant::Merged => {}
                MshrGrant::Full => {
                    self.stats.cache_mshr_full += 1;
                    self.l2_mshr_overflow.push_back((pa.0, L2Waiter::Sector { sm }));
                }
            },
        }
    }

    /// Ships a sector to an SM's L1, sampling the stored metadata (the
    /// compression bit rides the wire with the data) at emission time.
    fn send_l1_fill(&mut self, now: Cycle, sm: u32, pa: PhysAddr) {
        let meta = self.sector_meta(pa);
        let extra = if meta.compressed { self.cfg.spec.decompression_latency } else { 0 };
        self.send(now + DEFAULT_RESPONSE_LOOKAHEAD + extra, Ev::L1Fill { sm, pa: pa.0, meta });
    }

    fn dram_done(&mut self, now: Cycle, pa: PhysAddr) {
        let meta = self.sector_meta(pa);
        let evicted = self.l2_cache.fill(
            pa,
            SectorFlags { valid: true, compressed: meta.compressed, guaranteed: true, dirty: false },
        );
        self.writeback_evicted_l2(now, evicted);
        if let Some(mut waiters) = self.l2_mshr.complete(pa.0) {
            for w in waiters.drain(..) {
                match w {
                    L2Waiter::Sector { sm } => self.send_l1_fill(now, sm, pa),
                    L2Waiter::Walk { walk } => self.advance_walk(now, walk),
                }
            }
            self.l2_mshr.recycle(waiters);
        }
        // MSHR space freed: admit overflow waiters into the capacity that
        // opened up. They already paid the L2 port on their original
        // access — re-probe directly (no extra port grant or latency).
        while let Some(&(pa, _)) = self.l2_mshr_overflow.front() {
            if self.l2_mshr.is_full() && !self.l2_mshr.contains(pa) {
                break;
            }
            let (pa, w) = self.l2_mshr_overflow.pop_front().expect("checked non-empty");
            self.l2_retry(now, PhysAddr(pa), w);
        }
    }

    /// Re-probes the L2 for an overflow waiter without charging the port
    /// again.
    fn l2_retry(&mut self, now: Cycle, pa: PhysAddr, w: L2Waiter) {
        match self.l2_cache.probe(pa) {
            Probe::Hit | Probe::HitUnguaranteed => match w {
                L2Waiter::Sector { sm } => self.send_l1_fill(now, sm, pa),
                L2Waiter::Walk { walk } => self.advance_walk(now, walk),
            },
            Probe::Miss => match self.l2_mshr.request(pa.0, w) {
                MshrGrant::Allocated => {
                    let done = self.dram.access(pa, DramOp::Read, now, SECTOR_BYTES);
                    self.sched(done, Ev::DramDone { pa: pa.0 });
                }
                MshrGrant::Merged => {}
                MshrGrant::Full => self.l2_mshr_overflow.push_front((pa.0, w)),
            },
        }
    }

    /// Writes a dirty L1 sector back into the L2 (write-back,
    /// write-allocate hierarchy). Cascading L2 evictions write to DRAM.
    fn writeback_to_l2(&mut self, now: Cycle, pa: PhysAddr) {
        let meta = self.sector_meta(pa);
        let evicted = self.l2_cache.fill(
            pa,
            SectorFlags { valid: true, compressed: meta.compressed, guaranteed: true, dirty: true },
        );
        self.writeback_evicted_l2(now, evicted);
    }

    /// Writes the dirty sectors of an evicted L2 line to DRAM.
    fn writeback_evicted_l2(&mut self, now: Cycle, evicted: Option<crate::cache::EvictedLine>) {
        if let Some(ev) = evicted {
            for sector in 0..crate::addr::SECTORS_PER_LINE {
                let f = ev.sectors[sector as usize];
                if f.valid && f.dirty {
                    let spa =
                        PhysAddr(ev.line_addr * crate::addr::LINE_BYTES + sector * SECTOR_BYTES);
                    // Fire-and-forget: the writeback occupies the channel
                    // but nothing waits on it.
                    self.dram.access(spa, DramOp::Write, now, SECTOR_BYTES);
                    self.stats.writebacks += 1;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // UVM
    // ------------------------------------------------------------------

    /// Touches a page; returns `true` when the access must be served
    /// remotely (cold page under threshold-based migration). Evictions
    /// invalidate the shared structures immediately and broadcast one
    /// [`Ev::Shootdown`] per SM for the L1 side.
    fn touch_page(&mut self, now: Cycle, tenant: usize, vpn: Vpn) -> bool {
        let result = self.uvms[tenant].touch(vpn);
        if result.remote {
            return true;
        }
        if !result.faulted {
            return false;
        }
        self.stats.page_faults += 1;
        self.stats.pages_migrated += result.migrated.len() as u64;
        self.probe_instant(
            SpanPoint::UvmFault,
            Track::uvm(tenant as u32),
            now,
            result.migrated.len() as u64,
        );
        // Migration traffic: page contents written into GPU DRAM (timing
        // excluded per §IV-B, traffic counted).
        self.dram
            .account_untimed(DramOp::Write, result.migrated.len() as u64 * crate::addr::PAGE_BYTES);
        if result.promoted {
            self.stats.promotions += 1;
        }
        for chunk in result.evicted {
            self.stats.chunks_evicted += 1;
            self.stats.tlb_shootdowns += 1;
            self.probe_instant(SpanPoint::Eviction, Track::uvm(tenant as u32), now, chunk.pages);
            if chunk.was_promoted {
                self.stats.splinters += 1;
            }
            // Eviction reads the chunk out of DRAM for transfer to the host.
            self.dram
                .account_untimed(DramOp::Read, chunk.frames.len() as u64 * crate::addr::PAGE_BYTES);
            let salted_first = Vpn(chunk.first_vpn.0 | ((tenant as u64) << ASID_SHIFT));
            self.l2_tlb.invalidate(salted_first, chunk.pages);
            let frames: Arc<FxHashSet<u64>> =
                Arc::new(chunk.frames.iter().map(|p| p.0).collect());
            self.l2_cache.invalidate_frames(&frames);
            // The L1 side is a lane concern: one shootdown per SM crosses
            // the horizon. Until it lands, that SM may hit stale entries
            // for at most `W` cycles — bounded staleness.
            for sm in 0..self.cfg.num_sms as u32 {
                self.send(
                    now + DEFAULT_RESPONSE_LOOKAHEAD,
                    Ev::Shootdown {
                        sm,
                        first_svpn: salted_first.0,
                        pages: chunk.pages,
                        frames: Arc::clone(&frames),
                    },
                );
            }
        }
        self.probe_counter(
            "resident_pages",
            Track::uvm(tenant as u32),
            now,
            self.uvms[tenant].used_frames(),
        );
        false
    }

    /// The frame owner, whichever tenant's region the frame lies in.
    fn frame_owner_any(&self, ppn: Ppn) -> Option<(usize, crate::uvm::FrameOwner)> {
        let tenant = crate::uvm::tenant_of_frame(ppn);
        let uvm = self.uvms.get(tenant)?;
        uvm.frame_owner(ppn).map(|o| (tenant, o))
    }

    /// What the memory controller sees in the stored sector at `pa`.
    fn sector_meta(&mut self, pa: PhysAddr) -> FetchedSector {
        if pa.0 >= PT_BASE {
            return FetchedSector { compressed: false, embedded: None };
        }
        match self.frame_owner_any(pa.ppn()) {
            Some((tenant, owner)) if owner.embedded => {
                let sector = (pa.page_offset() / SECTOR_BYTES) as u32;
                if self.compression.compressible(owner.vpn, sector) {
                    let asid = asid_of(tenant);
                    FetchedSector {
                        compressed: true,
                        embedded: Some(PageMeta { vpn: owner.vpn, asid }),
                    }
                } else {
                    FetchedSector { compressed: false, embedded: None }
                }
            }
            _ => FetchedSector { compressed: false, embedded: None },
        }
    }

    fn record_coverage(&mut self, pages: u64) {
        let bucket = CoverageBucket::of_pages(pages);
        let idx = CoverageBucket::ALL
            .iter()
            .position(|b| *b == bucket)
            .expect("CoverageBucket::ALL enumerates every bucket of_pages can return");
        self.stats.coverage_hits[idx] += 1;
    }
}

// ----------------------------------------------------------------------
// Engine: window loop, barriers
// ----------------------------------------------------------------------

/// Ideal-TLB drains carry no speculation; the lane still needs *a*
/// policy reference, satisfied by this inert one (the shared lane's own
/// box is mutably borrowed during an ideal drain).
static NOSPEC: NoSpeculation = NoSpeculation;

/// The assembled system: the lane (per-SM state), the shared lane
/// (L2/walker/DRAM/UVM), and the window loop that advances them under
/// the two-phase horizon barrier.
pub struct Engine<'a> {
    cfg: GpuConfig,
    lane: ShardLane<'a>,
    shared: SharedLane<'a>,
    max_cycles: Cycle,
    /// The initial warp-issue events have been seeded by
    /// [`Engine::start`]; makes repeated calls harmless.
    started: bool,
    /// The cycle cap tripped; [`Engine::finish`] skips the
    /// everything-completed accounting.
    timed_out: bool,
    /// Global idle accounting: the last processed cycle across both
    /// domains, and the accumulated strictly-idle cycles between
    /// processed cycles. Folded from the per-domain `times` buffers at
    /// every barrier.
    idle_prev: Cycle,
    idle_acc: u64,
    barriers: u64,
    /// Events moved across the lane/shared edge, counted at delivery.
    exchange_delivered: u64,
    /// Scratch for `merge_idle` (reused across barriers).
    time_merge: Vec<Cycle>,
    /// Checked-mode audit cadence (`invariants` feature): interval in
    /// events, read once at construction, and the countdown to the next
    /// audit. Host-side only: never affects simulated state.
    #[cfg(feature = "invariants")]
    audit_every: u64,
    #[cfg(feature = "invariants")]
    until_audit: u64,
    /// Attached probe sink: the per-domain logs are replayed into it,
    /// lane first, at [`Engine::finish`].
    #[cfg(feature = "probes")]
    sink: Option<Box<dyn crate::probe::Probe>>,
}

impl std::fmt::Debug for Engine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now())
            .field("reqs", &self.lane.reqs.len())
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
        let n = cfg.num_sms;
        let actors = n as u64 + 1;
        // Spatial sharing partitions GPU memory evenly among tenants.
        let mut uvm_cfg = cfg.uvm.clone();
        if cfg.tenants > 1 && uvm_cfg.gpu_memory_bytes != u64::MAX {
            uvm_cfg.gpu_memory_bytes /= cfg.tenants as u64;
        }
        let uvms: Vec<Uvm> =
            (0..cfg.tenants).map(|t| Uvm::for_tenant(uvm_cfg.clone(), cfg.seed, t)).collect();
        let lane = ShardLane {
            actors,
            q: EventQueue::new(),
            seqs: vec![0; n],
            sms: (0..n).map(|_| SmState::new(cfg.warps_per_sm)).collect(),
            l1_tlbs,
            l1_tlb_ports: (0..n).map(|_| Ports::new(cfg.l1_tlb.ports)).collect(),
            l1_caches: (0..n)
                .map(|_| SectorCache::new(cfg.l1_cache.lines(), cfg.l1_cache.assoc))
                .collect(),
            l1_cache_ports: (0..n).map(|_| Ports::new(cfg.l1_cache.ports)).collect(),
            reqs: ReqSlab::new(),
            l1_tlb_mshrs: (0..n).map(|_| MshrFile::new(cfg.l1_tlb.mshr_entries)).collect(),
            tlb_overflow: vec![Vec::new(); n],
            l1_mshrs: (0..n).map(|_| MshrFile::new(cfg.l1_cache.mshr_entries)).collect(),
            l1_mshr_overflow: vec![std::collections::VecDeque::new(); n],
            unguaranteed_waiters: FxHashMap::default(),
            warp_outstanding: vec![0; n * cfg.warps_per_sm],
            warp_issue_time: vec![0; n * cfg.warps_per_sm],
            program,
            stats: Stats::default(),
            outbox: Vec::new(),
            exchange_out: 0,
            coalesce_buf: Vec::new(),
            scratch_keys: Vec::new(),
            times: Vec::new(),
            #[cfg(feature = "probes")]
            log: crate::probe::RecordLog::default(),
            cfg: cfg.clone(),
        };
        let shared = SharedLane {
            actors,
            q: EventQueue::new(),
            seq: 0,
            l2_tlb,
            l2_tlb_ports: Ports::new(cfg.l2_tlb.ports),
            l2_cache: SectorCache::new(cfg.l2_cache.lines(), cfg.l2_cache.assoc),
            l2_cache_ports: Ports::new(cfg.l2_cache.ports),
            dram: Dram::new(cfg.dram.clone()),
            walks: PageWalkSystem::new(cfg.walker.clone()),
            uvms,
            accel,
            compression,
            l2_tlb_mshr: MshrFile::new(cfg.l2_tlb.mshr_entries),
            l2_tlb_overflow: BTreeMap::new(),
            l2_tlb_arrivals: 0,
            l2_tlb_queued: BTreeSet::new(),
            l2_tlb_dirty_keys: BTreeSet::new(),
            l2_mshr: MshrFile::new(cfg.l2_cache.mshr_entries),
            l2_mshr_overflow: std::collections::VecDeque::new(),
            walk_of_vpn: FxHashMap::default(),
            vpn_of_walk: FxHashMap::default(),
            walk_started: FxHashMap::default(),
            pw_overflow: std::collections::VecDeque::new(),
            pending_resolve: FxHashSet::default(),
            stats: Stats::default(),
            outbox: Vec::new(),
            exchange_out: 0,
            times: Vec::new(),
            #[cfg(feature = "probes")]
            log: crate::probe::RecordLog::default(),
            cfg: cfg.clone(),
        };
        Engine {
            lane,
            shared,
            max_cycles: 2_000_000_000,
            started: false,
            timed_out: false,
            idle_prev: 0,
            idle_acc: 0,
            barriers: 0,
            exchange_delivered: 0,
            time_merge: Vec::new(),
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
    pub fn set_max_cycles(&mut self, cycles: Cycle) {
        self.max_cycles = cycles;
    }

    /// The latest cycle either domain has advanced to.
    fn now(&self) -> Cycle {
        self.shared.q.now().max(self.lane.q.now())
    }

    /// Inspection access to a tenant's UVM manager.
    pub fn uvm(&self) -> &Uvm {
        &self.shared.uvms[0]
    }

    /// Attaches a probe sink (e.g.
    /// [`ChromeTraceProbe`](crate::trace_export::ChromeTraceProbe)).
    /// Request-level spans are emitted only for warps where
    /// `warp % warp_sample == 0` (0 or 1 keeps every warp); component
    /// spans are never sampled away. Each domain records into its own
    /// log; the logs are replayed into the sink, lane first, and the
    /// sink flushed, when [`Engine::finish`] runs.
    #[cfg(feature = "probes")]
    pub fn attach_probe(&mut self, sink: Box<dyn crate::probe::Probe>, warp_sample: u32) {
        self.lane.log.arm(warp_sample);
        self.shared.log.arm(warp_sample);
        self.sink = Some(sink);
    }

    /// Seeds the lane calendar with every warp's first issue event.
    /// Idempotent: later calls do nothing, so [`Engine::run`] composes
    /// with an engine the caller already started.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        // Warp-major: each SM's n-th event gets sequence number
        // `n * actors + sm` in either loop order, but only this one
        // schedules them in ascending order, so each insert appends to the
        // cycle-0 bucket instead of walking it.
        let sms = self.cfg.num_sms as u32;
        for warp in 0..self.cfg.warps_per_sm as u32 {
            for sm in 0..sms {
                self.lane.sched(sm, 0, Ev::WarpIssue { sm, warp });
            }
        }
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
            let start = match (self.lane.q.peek_key(), self.shared.q.peek_key()) {
                (Some((a, _)), Some((b, _))) => a.min(b),
                (Some((t, _)), None) | (None, Some((t, _))) => t,
                (None, None) => return false,
            };
            if start > self.max_cycles {
                self.timed_out = true;
                return false;
            }
            let horizon =
                (start + DEFAULT_RESPONSE_LOOKAHEAD).min(self.max_cycles.saturating_add(1));

            // Phase A: the lane advances to the horizon. Cross-domain
            // effects only accumulate in its outbox; every lane→shared
            // edge carries ≥1 cycle of latency.
            let mut total = if self.cfg.ideal_tlb {
                self.lane.drain(horizon, &NOSPEC, Some(&mut self.shared))
            } else {
                self.lane.drain(horizon, &*self.shared.accel, None)
            };

            // Phase B, step 1: deliver the lane outbox. The (time, seq)
            // key fixes the shared queue order.
            for (t, seq, ev) in self.lane.outbox.drain(..) {
                self.shared.q.schedule_at_seq(t, seq, ev);
                self.exchange_delivered += 1;
            }
            // Phase B, step 2: the shared lane catches up to the same
            // horizon, seeing every +1-cycle lane emission of this window.
            total += self.shared.drain(horizon);
            // Phase B, step 3: deliver shared emissions (all timed at or
            // beyond the horizon) to the lane.
            for (t, seq, ev) in self.shared.outbox.drain(..) {
                self.lane.q.schedule_at_seq(t, seq, ev);
                self.exchange_delivered += 1;
            }

            self.barriers += 1;
            self.merge_idle();
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

    /// Folds both domains' processed-cycle buffers into the global idle
    /// accumulator. The merged, deduped cycle sequence is a pure
    /// function of the global event set.
    fn merge_idle(&mut self) {
        let mut buf = std::mem::take(&mut self.time_merge);
        buf.append(&mut self.lane.times);
        buf.append(&mut self.shared.times);
        buf.sort_unstable();
        buf.dedup();
        for &t in &buf {
            self.idle_acc += (t - self.idle_prev).saturating_sub(1);
            self.idle_prev = t;
        }
        buf.clear();
        self.time_merge = buf;
    }

    /// Runs the program to completion and returns the statistics.
    pub fn run(mut self) -> Stats {
        self.start();
        self.run_steps(u64::MAX);
        self.finish()
    }

    /// End-of-run bookkeeping once [`Engine::run_steps`] has returned
    /// `false`: final audit, SM stall accounting, per-domain stats
    /// merge, calendar/DRAM counter harvest, probe replay, and the
    /// everything-completed check. Consumes the engine and returns the
    /// statistics.
    pub fn finish(mut self) -> Stats {
        let timed_out = self.timed_out;
        #[cfg(feature = "invariants")]
        self.audit_invariants();
        self.merge_idle();
        let now = self.now();
        let mut stats = Stats::default();
        for sm in &mut self.lane.sms {
            sm.finish(now);
        }
        self.lane.stats.stall_cycles = self.lane.sms.iter().map(|s| s.stall_cycles).sum();
        stats.merge(&self.lane.stats);
        stats.merge(&self.shared.stats);
        // Global fields the merge cannot derive. The window counters
        // (barriers/exchange) are digest-excluded: they describe how the
        // host advanced the calendars, not what the simulated GPU did.
        stats.cycles = now;
        stats.idle_cycles_skipped = self.idle_acc;
        stats.horizon_barriers = self.barriers;
        stats.exchange_enqueued = self.lane.exchange_out + self.shared.exchange_out;
        stats.exchange_dequeued = self.exchange_delivered;
        stats.dram_read_bytes = self.shared.dram.read_bytes;
        stats.dram_write_bytes = self.shared.dram.write_bytes;
        stats.dram_row_hits = self.shared.dram.row_hits;
        stats.dram_row_misses = self.shared.dram.row_misses;
        // Per-policy table-activity counters, read once at finish. All
        // zero for policies keeping the trait default, so pre-existing
        // configurations digest identically to the hook-era engine.
        let pc = self.shared.accel.policy_counters();
        stats.policy_installs = pc.installs;
        stats.policy_evictions = pc.evictions;
        stats.policy_hits = pc.hits;
        #[cfg(feature = "probes")]
        {
            stats.dram_service_hist.merge(&self.shared.dram.service_hist);
            if let Some(sink) = self.sink.as_mut() {
                self.lane.log.replay_into(sink.as_mut());
                self.shared.log.replay_into(sink.as_mut());
                sink.finish(now);
            }
        }
        // With the calendars drained, every request should have completed
        // and been recycled. Anything left is a lost event. Counted in
        // all builds (so `--features invariants` release runs report it
        // through `Stats::lost_requests` instead of dying); debug builds
        // additionally halt so the bug cannot slip through development.
        if !timed_out {
            let mut lost = 0u64;
            self.lane.reqs.for_each(|id, r| {
                if !r.completed {
                    lost += 1;
                    if cfg!(debug_assertions) {
                        eprintln!(
                            "INCOMPLETE req {}: sm={} pc={:#x} va={:#x} tdone={} spec={:?}",
                            id.slot(),
                            r.sm,
                            r.pc,
                            r.vaddr.0,
                            r.translation_done,
                            r.spec
                        );
                    }
                }
            });
            stats.lost_requests = lost;
            if cfg!(debug_assertions) {
                assert!(
                    lost == 0 && self.lane.reqs.is_empty(),
                    "all sector requests must complete and be freed (lost events?)"
                );
            }
        }
        stats
    }

    /// Asserts whole-system consistency: every structure's own audit
    /// (calendars, cache/TLB directories, MSHR files, walker, UVM) plus
    /// the cross-structure invariants only the engine can see — the
    /// walk-to-page maps are mutual inverses, every walk the walker
    /// tracks is known to the shared lane, walk start-times belong to
    /// live walks, the per-warp outstanding counters sum to exactly the
    /// incomplete sector requests, request pin counts match their stored
    /// copies, every queued L2 TLB lookup would find the MSHR file full
    /// again, and the exchange counters conserve (everything a domain
    /// ever emitted was delivered).
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
        let lane = &self.lane;
        lane.q.audit_invariants();
        lane.reqs.audit_invariants();
        for c in &lane.l1_caches {
            c.audit_invariants();
        }
        for t in &lane.l1_tlbs {
            t.audit_invariants();
        }
        for m in &lane.l1_tlb_mshrs {
            m.audit_invariants();
        }
        for m in &lane.l1_mshrs {
            m.audit_invariants();
        }
        assert!(lane.outbox.is_empty(), "lane outbox not drained at the barrier");

        // Waiter conservation: each warp's outstanding counter drops
        // by one exactly when one of its sector requests completes
        // (fast-path warps allocate no requests and zero their
        // counter at issue), so the sums must agree at every barrier.
        let outstanding: u64 = lane.warp_outstanding.iter().map(|&o| o as u64).sum();
        let mut incomplete = 0u64;
        lane.reqs.for_each(|_, r| {
            if !r.completed {
                incomplete += 1;
            }
        });
        assert_eq!(
            outstanding, incomplete,
            "warp outstanding counters desynchronized from incomplete requests"
        );

        // Reference conservation: each live request's pin count must
        // equal the stored copies of its id across the lane's calendar,
        // MSHR waiter lists, and overflow queues — and no stored id may
        // be stale. A mismatch here is what would let the slab free (and
        // recycle) a slot that an in-flight event still points at.
        // Request ids never cross the lane/shared edge as pins
        // (shared-domain events carry `(sm, svpn)` keys or unpinned
        // tokens), so the scan is lane-local — except RemoteDone, which
        // is pinned only in ideal mode where it stays on the lane's own
        // calendar.
        let ideal = self.cfg.ideal_tlb;
        let mut counted: FxHashMap<ReqId, u32> = FxHashMap::default();
        {
            let mut bump = |id: ReqId| *counted.entry(id).or_insert(0) += 1;
            lane.q.for_each_event(|ev| match *ev {
                Ev::L1TlbResult { req } | Ev::SpecL1Result { req } | Ev::L1Result { req } => {
                    bump(req)
                }
                Ev::RemoteDone { req } if ideal => bump(req),
                _ => {}
            });
            for m in &lane.l1_tlb_mshrs {
                m.for_each_waiter(|&id| bump(id));
            }
            for m in &lane.l1_mshrs {
                m.for_each_waiter(|&id| bump(id));
            }
            for v in &lane.tlb_overflow {
                for &id in v {
                    bump(id);
                }
            }
            for dq in &lane.l1_mshr_overflow {
                for &id in dq {
                    bump(id);
                }
            }
            for v in lane.unguaranteed_waiters.values() {
                for &id in v {
                    bump(id);
                }
            }
        }
        for (&id, &n) in &counted {
            assert!(
                lane.reqs.get(id).is_some(),
                "stale request id {id:?} still referenced by {n} holder(s)"
            );
        }
        lane.reqs.for_each(|id, r| {
            let stored = counted.get(&id).copied().unwrap_or(0);
            assert_eq!(r.refs, stored, "request {id:?} pin count disagrees with its stored copies");
            assert!(
                r.refs > 0,
                "live request {id:?} is unreachable: no event or waiter references it"
            );
        });

        self.shared.q.audit_invariants();
        self.shared.l2_cache.audit_invariants();
        self.shared.l2_tlb.audit_invariants();
        self.shared.l2_tlb_mshr.audit_invariants();
        self.shared.l2_mshr.audit_invariants();
        self.shared.walks.audit_invariants();
        for u in &self.shared.uvms {
            u.audit_invariants();
        }
        assert!(self.shared.outbox.is_empty(), "shared outbox not drained at the barrier");

        // The walk maps are mutual inverses (keys are salted VPNs).
        assert_eq!(
            self.shared.walk_of_vpn.len(),
            self.shared.vpn_of_walk.len(),
            "walk maps disagree on live walk count"
        );
        for (&svpn, &walk) in &self.shared.walk_of_vpn {
            let back = self
                .shared
                .vpn_of_walk
                .get(&walk)
                // Audit code: panicking is the whole point. lint:allow(hot-path-panic)
                .unwrap_or_else(|| panic!("walk {} for page {svpn} has no inverse entry", walk.0));
            assert_eq!(back.0, svpn, "walk {} maps back to page {}, not {svpn}", walk.0, back.0);
        }
        for &svpn in self.shared.walk_started.keys() {
            assert!(
                self.shared.walk_of_vpn.contains_key(&svpn),
                "walk start-time recorded for page {svpn} with no live walk"
            );
        }
        for id in self.shared.walks.pending_walk_ids() {
            assert!(
                self.shared.vpn_of_walk.contains_key(&id),
                "walker tracks walk {} unknown to the shared lane",
                id.0
            );
        }
        for &(sm, _) in &self.shared.pending_resolve {
            assert!(
                (sm as usize) < self.cfg.num_sms,
                "pending-resolve entry names nonexistent SM {sm}"
            );
        }

        // A queued L2 TLB lookup that a retry would not find the MSHR file
        // full for has a dirty key, which is what lets the drain skip the
        // others (DESIGN.md §5 item 6).
        let shared = &self.shared;
        let queued: BTreeSet<(u64, u64)> =
            shared.l2_tlb_overflow.iter().map(|(&arrival, &(_, svpn))| (svpn, arrival)).collect();
        assert_eq!(queued, shared.l2_tlb_queued, "L2 TLB overflow key index desynchronized");
        for &(sm, svpn) in shared.l2_tlb_overflow.values() {
            assert!(
                shared.l2_tlb_retry_finds_full(sm, svpn)
                    || shared.l2_tlb_dirty_keys.contains(&svpn),
                "queued L2 TLB lookup ({sm}, {svpn:#x}) may not find the MSHR file full, \
                 but its key is not dirty"
            );
        }
        assert!(
            shared.l2_tlb_overflow.is_empty() || shared.l2_tlb_mshr.is_full(),
            "L2 TLB lookups queued behind an MSHR file with free slots"
        );

        // Exchange conservation: everything any domain pushed into its
        // outbox was delivered to a calendar at a barrier. A mismatch
        // means a cross-domain event was dropped or double-delivered.
        let emitted = self.lane.exchange_out + self.shared.exchange_out;
        assert_eq!(
            emitted, self.exchange_delivered,
            "exchange counters desynchronized: a cross-domain event was lost or duplicated"
        );
    }

    /// Deliberately corrupts the lane calendar's free list so
    /// checked-mode tests can prove the audit detects real damage.
    #[cfg(feature = "invariants")]
    pub fn corrupt_event_queue_for_test(&mut self) {
        self.lane.q.corrupt_free_list_for_test();
    }

    /// Deliberately unbalances the exchange conservation counters (a
    /// dropped cross-domain event), the barrier audit's negative-test
    /// hook.
    #[cfg(feature = "invariants")]
    pub fn corrupt_exchange_for_test(&mut self) {
        self.exchange_delivered += 1;
    }

    /// Deliberately desynchronizes the L2 TLB overflow queue's key index
    /// (it counts a lookup that is not queued), the barrier audit's
    /// negative-test hook.
    #[cfg(feature = "invariants")]
    pub fn corrupt_l2_tlb_queue_index_for_test(&mut self) {
        self.shared.l2_tlb_queued.insert((u64::MAX, u64::MAX));
    }
}
