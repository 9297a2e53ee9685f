//! The SM lane: every SM and everything the SMs own exclusively — warp
//! state, L1 TLBs, L1 sector caches, their ports and MSHRs, and the
//! sector requests they originate — with its own calendar of
//! [`LaneEv`]s and one sequence stripe per SM.
//!
//! During Phase A of a window the lane advances on its own and reaches
//! the shared hierarchy only by emitting [`SharedEv`]s into its outbox,
//! so every request it sends pays the modeled window latency. Ideal-TLB
//! mode, which models instant translation, is the one exception: it
//! translates through an [`IdealTlb`], whose private field lets this file
//! call nothing else of the shared lane (DESIGN.md §11.3).

use super::shared_lane::{IdealTlb, SharedEv};
use super::{asid_of, record_coverage, salt, tenant_of_sm, window_base, Outbox};
use crate::addr::{translate, PhysAddr, Ppn, VirtAddr, Vpn, SECTOR_BYTES};
use crate::cache::{Probe, SectorCache, SectorFlags};
use crate::config::{Cycle, GpuConfig};
use crate::event::EventQueue;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::hooks::{FetchedSector, SpecFillAction, SpecFillContext, TranslationPolicy};
use crate::port::{MshrFile, MshrGrant, Ports};
use crate::probe::Phase;
#[cfg(feature = "probes")]
use crate::probe::{SpanPoint, Track};
use crate::reqslab::{ReqId, ReqSlab};
use crate::sm::{coalesce_into, SmState, WarpOp, WarpProgram, WarpState};
use crate::stats::{SpecOutcome, Stats};
use crate::tlb::{ContigRun, TlbFill, TlbModel};
use std::collections::VecDeque;
use std::sync::Arc;

/// An event on the lane's calendar: issued by the lane itself or
/// delivered from the shared lane's outbox at a barrier.
#[derive(Debug, Clone)]
pub(super) enum LaneEv {
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
}

#[derive(Debug, Clone, Copy)]
struct SpecState {
    ppn: Ppn,
    ideal: bool,
    killed: bool,
    /// The request waits on its speculated sector's L1 MSHR entry: set
    /// when it joins the entry, cleared when a fill drains the entry.
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

/// Every SM and everything the SMs own exclusively (see the module
/// doc). Its fields are private to this file; the engine drives it
/// through the `pub(super)` methods below.
pub(super) struct SmLane<'a> {
    cfg: GpuConfig,
    /// Striping modulus for sequence numbers: one stripe per SM plus one
    /// for the shared actor.
    actors: u64,
    q: EventQueue<LaneEv>,
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
    // a per-element hot structure.
    tlb_overflow: Vec<Vec<ReqId>>,
    l1_mshrs: Vec<MshrFile<u64, ReqId>>,
    l1_mshr_overflow: Vec<VecDeque<ReqId>>,
    /// Requests that found a present-but-unguaranteed sector and wait for
    /// its validation outcome instead of duplicating the fetch.
    unguaranteed_waiters: FxHashMap<(u32, u64), Vec<ReqId>>,
    warp_outstanding: Vec<u32>,
    warp_issue_time: Vec<Cycle>,
    program: Box<dyn WarpProgram + 'a>,
    stats: Stats,
    /// Events bound for the shared lane, delivered at the next barrier.
    /// The sequence is assigned here, by the emitting SM's stripe.
    outbox: Outbox<SharedEv>,
    /// Scratch for the coalescer: reused across warp instructions so the
    /// issue loop does not allocate in steady state.
    coalesce_buf: Vec<VirtAddr>,
    /// Scratch key list for shootdown wakes (reused, see
    /// `wake_all_unguaranteed`).
    scratch_keys: Vec<u64>,
    /// Deferred probe records, replayed into the engine sink at
    /// `finish`, before the shared lane's.
    #[cfg(feature = "probes")]
    log: crate::probe::RecordLog,
}

impl<'a> SmLane<'a> {
    pub(super) fn new(
        cfg: &GpuConfig,
        l1_tlbs: Vec<Box<dyn TlbModel>>,
        program: Box<dyn WarpProgram + 'a>,
    ) -> Self {
        let n = cfg.num_sms;
        SmLane {
            cfg: cfg.clone(),
            actors: n as u64 + 1,
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
            l1_mshr_overflow: vec![VecDeque::new(); n],
            unguaranteed_waiters: FxHashMap::default(),
            warp_outstanding: vec![0; n * cfg.warps_per_sm],
            warp_issue_time: vec![0; n * cfg.warps_per_sm],
            program,
            stats: Stats::default(),
            outbox: Vec::new(),
            coalesce_buf: Vec::new(),
            scratch_keys: Vec::new(),
            #[cfg(feature = "probes")]
            log: crate::probe::RecordLog::default(),
        }
    }

    /// Seeds the calendar with every warp's first issue event.
    pub(super) fn start(&mut self) {
        // Warp-major: each SM's n-th event gets sequence number
        // `n * actors + sm` in either loop order, but only this one
        // schedules them in ascending order, so each insert appends to the
        // cycle-0 bucket instead of walking it.
        for warp in 0..self.cfg.warps_per_sm as u32 {
            for sm in 0..self.cfg.num_sms as u32 {
                self.sched(sm, 0, LaneEv::WarpIssue { sm, warp });
            }
        }
    }

    /// The cycle of the earliest pending event.
    pub(super) fn next_time(&self) -> Option<Cycle> {
        self.q.peek_key().map(|(t, _)| t)
    }

    /// The cycle this lane has advanced to.
    pub(super) fn now(&self) -> Cycle {
        self.q.now()
    }

    /// Drains this lane's queue up to (strictly before) `horizon`,
    /// touching only lane-owned state plus the read-only speculation
    /// policy. `ideal` is `Some` only in ideal-TLB mode, which resolves
    /// translations synchronously against the shared lane's page tables
    /// instead of paying the window latency. Returns the number of
    /// events processed and the window's busy mask (see `window_base`).
    pub(super) fn drain(
        &mut self,
        horizon: Cycle,
        accel: &dyn TranslationPolicy,
        mut ideal: Option<&mut IdealTlb<'_, '_>>,
    ) -> (u64, u64) {
        let base = window_base(horizon);
        let (mut n, mut busy) = (0, 0u64);
        while let Some((now, ev)) = self.q.pop_before(horizon) {
            n += 1;
            busy |= 1 << (now - base);
            self.handle(now, ev, accel, ideal.as_deref_mut());
        }
        self.stats.events_processed += n;
        (n, busy)
    }

    /// Schedules the shared lane's emissions, all timed at or beyond the
    /// horizon, on this lane's calendar.
    pub(super) fn deliver(&mut self, events: &mut Outbox<LaneEv>) {
        for (t, seq, ev) in events.drain(..) {
            self.q.schedule_at_seq(t, seq, ev);
        }
    }

    /// The events this window emitted for the shared lane.
    pub(super) fn outbox(&mut self) -> &mut Outbox<SharedEv> {
        &mut self.outbox
    }

    /// The deferred probe log.
    #[cfg(feature = "probes")]
    pub(super) fn log(&mut self) -> &mut crate::probe::RecordLog {
        &mut self.log
    }

    /// Sector requests allocated and not yet freed.
    pub(super) fn live_requests(&self) -> usize {
        self.reqs.len()
    }

    /// This lane's statistics at cycle `now`: SM stall accounting, and
    /// the count of requests that never completed. A run the cycle cap
    /// stopped (`timed_out`) counts the requests it left in flight. With
    /// both calendars drained every request should have completed and
    /// been recycled; anything left is a lost event. Counted in all builds
    /// (so `--features invariants` release runs report it through
    /// `Stats::lost_requests` instead of dying); debug builds additionally
    /// halt on a drained run so the bug cannot slip through development.
    pub(super) fn finish(&mut self, now: Cycle, timed_out: bool) -> Stats {
        for sm in &mut self.sms {
            sm.finish(now);
        }
        self.stats.stall_cycles = self.sms.iter().map(|s| s.stall_cycles).sum();
        let halt = cfg!(debug_assertions) && !timed_out;
        let mut lost = 0u64;
        self.reqs.for_each(|id, r| {
            if !r.completed {
                lost += 1;
                if halt {
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
        self.stats.lost_requests = lost;
        if halt {
            assert!(
                lost == 0 && self.reqs.is_empty(),
                "all sector requests must complete and be freed (lost events?)"
            );
        }
        std::mem::take(&mut self.stats)
    }

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
    fn sched(&mut self, sm: u32, t: Cycle, ev: LaneEv) {
        let seq = self.next_seq(sm);
        self.q.schedule_at_seq(t, seq, ev);
    }

    /// Emits an event to the shared lane (delivered at the next barrier).
    fn send(&mut self, sm: u32, t: Cycle, ev: SharedEv) {
        let seq = self.next_seq(sm);
        self.outbox.push((t, seq, ev));
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

    /// The speculation state of `id`, which speculated.
    fn spec_mut(&mut self, id: ReqId) -> &mut SpecState {
        self.req_mut(id).spec.as_mut().expect("a speculating request keeps its spec state")
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

    /// Dispatches one lane event. `ideal` is `Some` only in ideal-TLB
    /// mode (see [`Self::drain`]).
    fn handle(
        &mut self,
        now: Cycle,
        ev: LaneEv,
        accel: &dyn TranslationPolicy,
        ideal: Option<&mut IdealTlb<'_, '_>>,
    ) {
        match ev {
            LaneEv::WarpIssue { sm, warp } => self.warp_issue(now, sm, warp, ideal),
            // Request-carrying events hold one pin on their request for
            // the lifetime of the event; it is consumed here, after the
            // handler, so the request stays live throughout.
            LaneEv::L1TlbResult { req } => {
                self.l1_tlb_result(now, req);
                self.req_unref(req);
            }
            LaneEv::SpecL1Result { req } => {
                self.spec_l1_result(now, req);
                self.req_unref(req);
            }
            LaneEv::L1Result { req } => {
                self.l1_result(now, req);
                self.req_unref(req);
            }
            LaneEv::L1Fill { sm, pa, meta } => self.l1_fill(now, sm, PhysAddr(pa), meta, accel),
            // RemoteDone pins its request only in ideal-TLB mode (where
            // no MSHR waiter holds it); the handler balances the books.
            LaneEv::RemoteDone { req } => self.remote_done(now, req),
            // Token event: never pinned, the handler tolerates a freed id.
            LaneEv::SpecDispatch { req, ppn, ideal } => self.spec_dispatch(now, req, Ppn(ppn), ideal),
            LaneEv::ResolveSm { sm, svpn, ppn, pages, run, via_eaf } => {
                self.resolve_sm(now, sm, svpn, Ppn(ppn), pages, run, via_eaf);
            }
            LaneEv::Shootdown { sm, first_svpn, pages, frames } => {
                self.shootdown(now, sm, first_svpn, pages, &frames);
            }
        }
    }

    // ------------------------------------------------------------------
    // Warp issue
    // ------------------------------------------------------------------

    fn warp_issue(&mut self, now: Cycle, sm: u32, warp: u32, mut ideal: Option<&mut IdealTlb<'_, '_>>) {
        let li = sm as usize;
        let issue_free = self.sms[li].issue_free_at;
        if issue_free > now {
            self.sched(sm, issue_free, LaneEv::WarpIssue { sm, warp });
            return;
        }
        let (pc, addrs, is_store) = match self.program.next_op(sm as usize, warp as usize) {
            None => {
                self.sms[li].set_warp(warp as usize, WarpState::Retired, now);
                return;
            }
            Some(WarpOp::Compute { cycles }) => {
                self.stats.instructions += 1;
                self.sms[li].issue_free_at = now + 1;
                self.sms[li].set_warp(warp as usize, WarpState::Computing, now);
                self.sched(sm, now + cycles.max(1), LaneEv::WarpIssue { sm, warp });
                return;
            }
            Some(WarpOp::Load { pc, addrs }) => (pc, addrs, false),
            Some(WarpOp::Store { pc, addrs }) => (pc, addrs, true),
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
        if !sectors.is_empty() && self.fast_path_classify(now, sm, &sectors, ideal.as_deref()) {
            // Every sector is a guaranteed L1 TLB + L1 data hit and the
            // ports have a free slot this cycle: resolve the whole
            // instruction at issue with the Table II latency arithmetic
            // instead of per-sector events.
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
        ideal: Option<&IdealTlb<'_, '_>>,
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
            let ppn = if let Some(tlb) = ideal {
                tlb.lookup(tenant, vpn)
            } else {
                match self.l1_tlbs[li].probe(Vpn(salt(tenant, vpn))) {
                    Some(Some(hit)) => Some(hit.ppn),
                    // A probe miss — or a model that cannot preview its
                    // lookups (the coalescing CoLT/SnakeByte designs) —
                    // takes the event path.
                    _ => None,
                }
            };
            let Some(ppn) = ppn else { return false };
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
        mut ideal: Option<&mut IdealTlb<'_, '_>>,
    ) {
        let tenant = self.tenant(sm);
        let li = sm as usize;
        let tlb_lat = self.cfg.l1_tlb.latency;
        let cache_lat = self.cfg.l1_cache.latency;
        self.stats.fast_path_hits += 1;
        self.stats.fast_path_sectors += sectors.len() as u64;
        let mut t_done = now;
        for &vaddr in sectors {
            self.stats.sector_requests += 1;
            let vpn = vaddr.vpn();
            let (ppn, done) = if let Some(tlb) = ideal.as_deref_mut() {
                let ppn = tlb.translate(now, tenant, vpn, 0);
                let ppn = ppn.expect("fast path classified a non-resident page as resident");
                (ppn, self.l1_cache_ports[li].grant(now))
            } else {
                self.stats.l1_tlb_lookups += 1;
                let g_tlb = self.l1_tlb_ports[li].grant(now);
                let svpn = salt(tenant, vpn);
                let hit = self.l1_tlbs[li]
                    .lookup(Vpn(svpn))
                    .expect("fast path classified an L1 TLB miss as a hit");
                self.stats.l1_tlb_hits += 1;
                record_coverage(&mut self.stats, hit.coverage_pages);
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
        if self.log.is_active() && self.log.sampled(warp) {
            let track = Track::sm_warp(sm, warp);
            self.log.span(SpanPoint::FastPath, track, now, t_done, sectors.len() as u64);
        }
        // The warp re-issues one cycle after its last sector completes —
        // the same wake point `complete_req` produces.
        self.sched(sm, t_done + 1, LaneEv::WarpIssue { sm, warp });
    }

    fn start_translation(&mut self, now: Cycle, id: ReqId, ideal: Option<&mut IdealTlb<'_, '_>>) {
        let (vpn, sm) = {
            let r = self.req(id);
            (r.vpn(), r.sm)
        };
        let tenant = self.tenant(sm);
        if let Some(tlb) = ideal {
            // Ideal-TLB mode: the translation resolves synchronously
            // against the shared page tables.
            let Some(ppn) = tlb.translate(now, tenant, vpn, id.slot() as u64) else {
                // Cold page below the migration threshold: the GMMU
                // faults and the access is serviced from host memory over
                // the interconnect. No GPU TLB entry is installed and MOD
                // is not trained (the paper restricts updates to
                // GPU-mapped regions).
                self.probe_phase(now, id, Phase::Fetch);
                self.req_ref(id);
                self.sched(sm, now + self.cfg.uvm.remote_latency, LaneEv::RemoteDone { req: id });
                return;
            };
            let r = self.req_mut(id);
            r.real_ppn = Some(ppn);
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
        self.sched(sm, grant + self.cfg.l1_tlb.latency, LaneEv::L1TlbResult { req: id });
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
            record_coverage(&mut self.stats, hit.coverage_pages);
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
                self.send(sm, now + 1, SharedEv::TlbMiss { req: id, sm, svpn, pc, is_store, need_l2: true });
            }
            MshrGrant::Merged => {
                self.send(sm, now + 1, SharedEv::TlbMiss { req: id, sm, svpn, pc, is_store, need_l2: false });
            }
            MshrGrant::Full => {
                self.stats.l1_tlb_mshr_full += 1;
                self.tlb_overflow[li].push(id);
            }
        }
    }

    /// Handles [`LaneEv::SpecDispatch`]: the shared-side policy predicted a
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
        self.sched(sm, grant + self.cfg.l1_cache.latency, LaneEv::SpecL1Result { req: id });
    }

    /// Handles [`LaneEv::ResolveSm`]: fills this SM's L1 TLB with a resolved
    /// translation and wakes its waiting requests.
    #[allow(clippy::too_many_arguments, reason = "the parameter list mirrors the event's fields one-to-one")]
    fn resolve_sm(
        &mut self,
        now: Cycle,
        sm: u32,
        svpn: u64,
        ppn: Ppn,
        pages: u64,
        run: Option<ContigRun>,
        via_eaf: bool,
    ) {
        let fill = TlbFill { vpn: Vpn(svpn), ppn, pages, run };
        self.l1_tlbs[sm as usize].fill(&fill);
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
                self.send(sm, now + 1, SharedEv::AccelTrain { sm, pc, svpn, ppn: ppn.0 });
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

    /// Handles [`LaneEv::RemoteDone`]: a remote (host-memory) access
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
                    self.spec_mut(id).fetch_registered = true;
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
            self.spec_mut(id).killed = true;
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
        self.sched(sm, grant + latency, LaneEv::L1Result { req: id });
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

    /// Wakes every unguaranteed-sector waiter of an SM (shootdown path),
    /// in address order: each wake takes a port grant and the SM's next
    /// sequence number, so hash-map order would leak into the schedule.
    #[allow(clippy::disallowed_methods, reason = "the keys are sorted before any wake")]
    fn wake_all_unguaranteed(&mut self, now: Cycle, sm: u32) {
        let mut keys = std::mem::take(&mut self.scratch_keys);
        keys.clear();
        keys.extend(self.unguaranteed_waiters.keys().filter(|(s, _)| *s == sm).map(|(_, pa)| *pa));
        keys.sort_unstable();
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
                self.send(sm, now + 1, SharedEv::L2Req { sm, pa: pa.0 });
            }
            MshrGrant::Merged => {}
            MshrGrant::Full => {
                self.stats.cache_mshr_full += 1;
                self.l1_mshr_overflow[li].push_back(id);
            }
        }
    }

    fn spec_l1_result(&mut self, now: Cycle, id: ReqId) {
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
                    self.eaf_local(now, sm, vpn, spec.ppn);
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
                        self.spec_mut(id).fetch_registered = true;
                        self.probe_phase(now, id, Phase::Validate);
                        #[cfg(feature = "probes")]
                        {
                            self.req_mut(id).spec_started = now;
                        }
                        self.send(sm, now + 1, SharedEv::L2Req { sm, pa: spec_pa.0 });
                    }
                    MshrGrant::Merged => {
                        self.req_ref(id);
                        self.stats.spec_fetches += 1;
                        self.spec_mut(id).fetch_registered = true;
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
                    self.send(sm, now + 1, SharedEv::WritebackL2 { pa: spa.0 });
                }
            }
        }
        let mut guarantee = false;
        let mut dirty = false;
        let mut all_killed_specs = true;
        if let Some(mut waiters) = self.l1_mshrs[li].complete(pa.0) {
            for id in waiters.drain(..) {
                // Off the sector's MSHR entry: completed below or left to
                // await its translation, whose correct resolution must
                // then merge into any later fetch of this sector.
                if let Some(spec) = self.req_mut(id).spec.as_mut() {
                    spec.fetch_registered = false;
                }
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
                        self.eaf_local(now, sm, vpn, spec.ppn);
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
                                self.eaf_local(now, sm, vpn, spec.ppn);
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
                            self.spec_mut(id).killed = true;
                        }
                    }
                }
                self.req_unref(id);
            }
            self.l1_mshrs[li].recycle(waiters);
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
    fn eaf_local(&mut self, now: Cycle, sm: u32, vpn: Vpn, ppn: Ppn) {
        self.stats.eaf_fills += 1;
        let svpn = salt(self.tenant(sm), vpn);
        self.l1_tlbs[sm as usize].fill(&TlbFill { vpn: Vpn(svpn), ppn, pages: 1, run: None });
        self.complete_tlb_waiters(now, sm, svpn, ppn, true);
        self.retry_tlb_overflow(now, sm);
        self.send(sm, now + 1, SharedEv::EafResolve { sm, svpn, ppn: ppn.0 });
    }

    /// Handles [`LaneEv::Shootdown`]: a UVM chunk eviction reaching this SM.
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
            self.sched(sm, now + 1, LaneEv::WarpIssue { sm, warp });
        } else {
            self.sms[li].set_warp(
                warp as usize,
                WarpState::WaitingMemory { outstanding: left },
                now,
            );
        }
    }

    // ------------------------------------------------------------------
    // Audit
    // ------------------------------------------------------------------

    /// Asserts the lane's consistency at a barrier: every structure's own
    /// audit (calendar, request slab, L1 caches, TLBs and MSHR files), an
    /// empty outbox, the per-warp outstanding counters summing to exactly
    /// the incomplete sector requests, and request pin counts matching
    /// their stored copies.
    #[allow(clippy::disallowed_methods, reason = "counts pins per request; order-free")]
    pub(super) fn audit_invariants(&self) {
        self.q.audit_invariants();
        self.reqs.audit_invariants();
        for c in &self.l1_caches {
            c.audit_invariants();
        }
        for t in &self.l1_tlbs {
            t.audit_invariants();
        }
        for m in &self.l1_tlb_mshrs {
            m.audit_invariants();
        }
        for m in &self.l1_mshrs {
            m.audit_invariants();
        }
        assert!(self.outbox.is_empty(), "lane outbox not drained at the barrier");

        // Waiter conservation: each warp's outstanding counter drops
        // by one exactly when one of its sector requests completes
        // (fast-path warps allocate no requests and zero their
        // counter at issue), so the sums must agree at every barrier.
        let outstanding: u64 = self.warp_outstanding.iter().map(|&o| o as u64).sum();
        let mut incomplete = 0u64;
        self.reqs.for_each(|_, r| {
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
        // Request ids never cross to the shared lane as pins (its events
        // carry `(sm, svpn)` keys or unpinned tokens), so the scan is
        // lane-local — except RemoteDone, which is pinned only in ideal
        // mode where it stays on the lane's own calendar.
        let ideal = self.cfg.ideal_tlb;
        let mut counted: FxHashMap<ReqId, u32> = FxHashMap::default();
        {
            let mut bump = |id: ReqId| *counted.entry(id).or_insert(0) += 1;
            self.q.for_each_event(|ev| match *ev {
                LaneEv::L1TlbResult { req }
                | LaneEv::SpecL1Result { req }
                | LaneEv::L1Result { req } => bump(req),
                LaneEv::RemoteDone { req } if ideal => bump(req),
                _ => {}
            });
            for m in &self.l1_tlb_mshrs {
                m.for_each_waiter(|&id| bump(id));
            }
            for m in &self.l1_mshrs {
                m.for_each_waiter(|&id| bump(id));
            }
            for v in &self.tlb_overflow {
                for &id in v {
                    bump(id);
                }
            }
            for dq in &self.l1_mshr_overflow {
                for &id in dq {
                    bump(id);
                }
            }
            for v in self.unguaranteed_waiters.values() {
                for &id in v {
                    bump(id);
                }
            }
        }
        for (&id, &n) in &counted {
            assert!(
                self.reqs.get(id).is_some(),
                "stale request id {id:?} still referenced by {n} holder(s)"
            );
        }
        self.reqs.for_each(|id, r| {
            let stored = counted.get(&id).copied().unwrap_or(0);
            assert_eq!(r.refs, stored, "request {id:?} pin count disagrees with its stored copies");
            assert!(
                r.refs > 0,
                "live request {id:?} is unreachable: no event or waiter references it"
            );
        });
    }

    /// Deliberately corrupts the calendar's free list so checked-mode
    /// tests can prove the audit detects real damage.
    #[cfg(feature = "invariants")]
    pub(super) fn corrupt_event_queue_for_test(&mut self) {
        self.q.corrupt_free_list_for_test();
    }
}
