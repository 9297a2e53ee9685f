//! The shared lane: everything below the per-SM structures — the L2
//! TLB and cache, the page-walk system, DRAM, the UVM managers, and the
//! plugged policies — with its own calendar of [`SharedEv`]s and one
//! sequence stripe.
//!
//! It advances in Phase B of each window, after the SM lane, and answers
//! the SMs only by emitting [`LaneEv`]s into its outbox, each timed at
//! least one window ahead. [`IdealTlb`] is the SM lane's one synchronous
//! way in: ideal-TLB mode models instant translation.

use super::sm_lane::LaneEv;
use super::{asid_of, record_coverage, tenant_of_sm, unsalt, Outbox, ASID_SHIFT};
use crate::addr::{PhysAddr, Ppn, Vpn, SECTOR_BYTES};
use crate::cache::{Probe, SectorCache, SectorFlags};
use crate::config::{Cycle, GpuConfig, DEFAULT_RESPONSE_LOOKAHEAD};
use crate::dram::{Dram, DramOp};
use crate::event::EventQueue;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::hooks::{FetchedSector, PageMeta, SectorCompression, TranslationPolicy, ValidationKind};
use crate::page_table::PT_BASE;
use crate::port::{MshrFile, MshrGrant, Ports};
use crate::probe::{SpanPoint, Track};
use crate::reqslab::ReqId;
use crate::stats::Stats;
use crate::tlb::{ContigRun, TlbFill, TlbModel};
use crate::uvm::Uvm;
use crate::walker::{PageWalkSystem, WalkId, WalkProgress};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};
use std::sync::Arc;

/// An event on the shared lane's calendar: issued by the shared lane
/// itself or delivered from the SM lane's outbox at a barrier.
#[derive(Debug, Clone)]
pub(super) enum SharedEv {
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
    /// shared-lane state; the SM lane cannot call it mutably).
    AccelTrain { sm: u32, pc: u64, svpn: u64, ppn: u64 },
    /// Early-TLB-Fill release: the SM lane validated an embedded
    /// translation and the shared side releases walks/MSHRs and
    /// propagates it.
    EafResolve { sm: u32, svpn: u64, ppn: u64 },
    /// Rapid validation-on-use verdict arriving for a correct
    /// speculation ([`ValidationKind::Rapid`]): the shared lane
    /// re-checks the mapping, fills the TLBs, and releases walk
    /// resources early, like EAF without the compressed-sector channel.
    RapidResolve { sm: u32, svpn: u64, ppn: u64 },
    /// A dirty sector evicted from an L1 writing back to the L2.
    WritebackL2 { pa: u64 },
}

/// Waiter kinds on the shared L2 cache MSHRs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum L2Waiter {
    Sector { sm: u32 },
    Walk { walk: WalkId },
}

fn tenant_of_svpn(svpn: u64) -> usize {
    (svpn >> ASID_SHIFT) as usize
}

/// Salts a contiguity run so its reach stays within the tenant's key
/// space.
fn salt_run(tenant: usize, run: Option<ContigRun>) -> Option<ContigRun> {
    run.map(|r| ContigRun { start_vpn: super::salt(tenant, Vpn(r.start_vpn)), ..r })
}

/// Everything below the per-SM structures (see the module doc). Its
/// fields are private to this file; the engine drives it through the
/// `pub(super)` methods below.
pub(super) struct SharedLane<'a> {
    cfg: GpuConfig,
    actors: u64,
    q: EventQueue<SharedEv>,
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
    l2_mshr_overflow: VecDeque<(u64, L2Waiter)>,
    walk_of_vpn: FxHashMap<u64, WalkId>,
    vpn_of_walk: FxHashMap<WalkId, Vpn>,
    walk_started: FxHashMap<u64, Cycle>,
    pw_overflow: VecDeque<u64>,
    /// Mirror of which `(sm, salted vpn)` translations are in flight on
    /// the shared side. The L1 TLB MSHRs live in the SM lane, so this set
    /// is what dedups L2 lookups and what `ResolveSm` emission clears.
    pending_resolve: FxHashSet<(u32, u64)>,
    stats: Stats,
    /// Events bound for the SM lane, delivered at the end of Phase B.
    outbox: Outbox<LaneEv>,
    /// Distinct cycles at which this lane processed events in the
    /// current window (see the SM lane's twin).
    times: Vec<Cycle>,
    /// Deferred probe records, replayed into the engine sink at
    /// `finish`, after the SM lane's.
    #[cfg(feature = "probes")]
    log: crate::probe::RecordLog,
}

/// The SM lane's synchronous view of the page tables in ideal-TLB mode,
/// which models instant translation. Its field is private to this file,
/// so [`Self::lookup`] and [`Self::translate`] are all the SM lane can
/// reach of the shared lane: rustc, not a convention, keeps every other
/// shared-domain access behind the window latency.
pub(super) struct IdealTlb<'s, 'a> {
    lane: &'s mut SharedLane<'a>,
}

impl IdealTlb<'_, '_> {
    /// The frame `vpn` maps to if the page is resident and mapped.
    /// Read-only.
    pub(super) fn lookup(&self, tenant: usize, vpn: Vpn) -> Option<Ppn> {
        let uvm = &self.lane.uvms[tenant];
        if !uvm.is_resident(vpn) {
            return None;
        }
        uvm.page_table.translate(vpn).map(|t| t.ppn)
    }

    /// Touches `vpn` and returns its frame, or `None` when the access is
    /// served from host memory (a cold page below the migration
    /// threshold), which is counted and traced as a remote span tagged
    /// `arg`.
    pub(super) fn translate(&mut self, now: Cycle, tenant: usize, vpn: Vpn, arg: u64) -> Option<Ppn> {
        let lane = &mut *self.lane;
        if lane.touch_page(now, tenant, vpn) {
            lane.stats.remote_accesses += 1;
            let end = now + lane.cfg.uvm.remote_latency;
            lane.probe_span(SpanPoint::Remote, Track::uvm(tenant as u32), now, end, arg);
            return None;
        }
        Some(lane.uvms[tenant].page_table.translate(vpn).expect("page just touched").ppn)
    }
}

impl<'a> SharedLane<'a> {
    pub(super) fn new(
        cfg: &GpuConfig,
        l2_tlb: Box<dyn TlbModel>,
        accel: Box<dyn TranslationPolicy>,
        compression: Box<dyn SectorCompression + 'a>,
    ) -> Self {
        // Spatial sharing partitions GPU memory evenly among tenants.
        let mut uvm_cfg = cfg.uvm.clone();
        if cfg.tenants > 1 && uvm_cfg.gpu_memory_bytes != u64::MAX {
            uvm_cfg.gpu_memory_bytes /= cfg.tenants as u64;
        }
        let uvms =
            (0..cfg.tenants).map(|t| Uvm::for_tenant(uvm_cfg.clone(), cfg.seed, t)).collect();
        SharedLane {
            cfg: cfg.clone(),
            actors: cfg.num_sms as u64 + 1,
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
            l2_mshr_overflow: VecDeque::new(),
            walk_of_vpn: FxHashMap::default(),
            vpn_of_walk: FxHashMap::default(),
            walk_started: FxHashMap::default(),
            pw_overflow: VecDeque::new(),
            pending_resolve: FxHashSet::default(),
            stats: Stats::default(),
            outbox: Vec::new(),
            times: Vec::new(),
            #[cfg(feature = "probes")]
            log: crate::probe::RecordLog::default(),
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

    /// The speculation policy, read-only: what the SM lane consults while
    /// it drains.
    pub(super) fn policy(&self) -> &dyn TranslationPolicy {
        &*self.accel
    }

    /// Drains the shared queue up to (strictly before) `horizon`.
    /// Returns the number of events processed.
    pub(super) fn drain(&mut self, horizon: Cycle) -> u64 {
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

    /// Schedules the SM lane's emissions of this window, every one timed
    /// at least one cycle after it was sent, on this lane's calendar.
    pub(super) fn deliver(&mut self, events: &mut Outbox<SharedEv>) {
        for (t, seq, ev) in events.drain(..) {
            self.q.schedule_at_seq(t, seq, ev);
        }
    }

    /// The events this window emitted for the SM lane.
    pub(super) fn outbox(&mut self) -> &mut Outbox<LaneEv> {
        &mut self.outbox
    }

    /// Moves this window's processed cycles into `into`.
    pub(super) fn take_times(&mut self, into: &mut Vec<Cycle>) {
        into.append(&mut self.times);
    }

    /// The deferred probe log.
    #[cfg(feature = "probes")]
    pub(super) fn log(&mut self) -> &mut crate::probe::RecordLog {
        &mut self.log
    }

    /// This lane's statistics, with the counters DRAM and the policy keep
    /// themselves read out.
    pub(super) fn finish(&mut self) -> Stats {
        let s = &mut self.stats;
        s.dram_read_bytes = self.dram.read_bytes;
        s.dram_write_bytes = self.dram.write_bytes;
        s.dram_row_hits = self.dram.row_hits;
        s.dram_row_misses = self.dram.row_misses;
        // Per-policy table-activity counters. All zero for policies
        // keeping the trait default.
        let pc = self.accel.policy_counters();
        s.policy_installs = pc.installs;
        s.policy_evictions = pc.evictions;
        s.policy_hits = pc.hits;
        #[cfg(feature = "probes")]
        s.dram_service_hist.merge(&self.dram.service_hist);
        std::mem::take(&mut self.stats)
    }

    /// The ideal-TLB view of this lane, for one SM-lane drain.
    pub(super) fn ideal_tlb(&mut self) -> IdealTlb<'_, 'a> {
        IdealTlb { lane: self }
    }

    /// Next sequence number on the shared actor's stripe.
    #[inline]
    fn next_seq(&mut self) -> u64 {
        let c = self.seq;
        self.seq += 1;
        c * self.actors + (self.actors - 1)
    }

    /// Schedules a shared-internal event.
    fn sched(&mut self, t: Cycle, ev: SharedEv) {
        let seq = self.next_seq();
        self.q.schedule_at_seq(t, seq, ev);
    }

    /// Emits an event to the SM lane (delivered at the end of Phase B).
    fn send(&mut self, t: Cycle, ev: LaneEv) {
        let seq = self.next_seq();
        self.outbox.push((t, seq, ev));
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

    /// Dispatches one shared-lane event.
    fn handle(&mut self, now: Cycle, ev: SharedEv) {
        match ev {
            SharedEv::TlbMiss { req, sm, svpn, pc, is_store, need_l2 } => {
                self.tlb_miss(now, req, sm, svpn, pc, is_store, need_l2);
            }
            SharedEv::L2TlbResult { sm, svpn } => self.l2_tlb_result(now, sm, svpn),
            SharedEv::WalkL2 { walk, pa } => self.walk_l2(now, walk, PhysAddr(pa)),
            SharedEv::L2Req { sm, pa } => self.l2_req(now, sm, PhysAddr(pa)),
            SharedEv::L2Access { sm, pa } => self.l2_access(now, sm, PhysAddr(pa)),
            SharedEv::DramDone { pa } => self.dram_done(now, PhysAddr(pa)),
            SharedEv::AccelTrain { sm, pc, svpn, ppn } => {
                self.accel.on_translation_resolved(sm as usize, pc, unsalt(svpn), Ppn(ppn));
            }
            SharedEv::EafResolve { sm, svpn, ppn } => self.eaf_resolve(now, sm, svpn, Ppn(ppn)),
            SharedEv::RapidResolve { sm, svpn, ppn } => self.rapid_resolve(now, sm, svpn, Ppn(ppn)),
            SharedEv::WritebackL2 { pa } => self.writeback_to_l2(now, PhysAddr(pa)),
        }
    }

    // ------------------------------------------------------------------
    // Translation path (shared side)
    // ------------------------------------------------------------------

    /// Handles [`SharedEv::TlbMiss`]: the shared half of an L1 TLB miss.
    /// Residency (and hence remoteness), the speculation policy, and the
    /// L2 TLB all live here, behind the horizon barrier.
    #[allow(clippy::too_many_arguments, reason = "the parameter list mirrors the event's fields one-to-one")]
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
                LaneEv::RemoteDone { req: id },
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
                    LaneEv::SpecDispatch { req: id, ppn: spec_ppn.0, ideal: false },
                );
                if correct {
                    self.sched(now + latency, SharedEv::RapidResolve { sm, svpn, ppn: spec_ppn.0 });
                }
            } else {
                let ideal = kind == ValidationKind::Ideal;
                if !ideal || correct {
                    // Ideal validation confirms speculations before
                    // fetching; incorrect ones never fetch.
                    self.send(
                        now + DEFAULT_RESPONSE_LOOKAHEAD,
                        LaneEv::SpecDispatch { req: id, ppn: spec_ppn.0, ideal },
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
        self.sched(grant + self.cfg.l2_tlb.latency, SharedEv::L2TlbResult { sm, svpn });
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
            record_coverage(&mut self.stats, hit.coverage_pages);
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
    #[allow(clippy::too_many_arguments, reason = "the parameter list mirrors the event's fields one-to-one")]
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
            LaneEv::ResolveSm { sm, svpn, ppn: ppn.0, pages, run, via_eaf },
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
                // queue.
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
        self.sched(grant + self.cfg.l2_cache.latency, SharedEv::WalkL2 { walk, pa: pa.0 });
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
                    self.sched(done, SharedEv::DramDone { pa: pa.0 });
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

    /// Shared half of Early TLB Fill ([`SharedEv::EafResolve`]): installs the
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

    /// Handles [`SharedEv::RapidResolve`]: the rapid validation-on-use verdict
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

    /// Handles [`SharedEv::L2Req`]: a lane-side L1 miss arriving at the L2.
    /// The port is charged at arrival, matching the pre-shard engine's
    /// grant-at-allocation.
    fn l2_req(&mut self, now: Cycle, sm: u32, pa: PhysAddr) {
        let grant = self.l2_cache_ports.grant(now);
        self.sched(grant + self.cfg.l2_cache.latency, SharedEv::L2Access { sm, pa: pa.0 });
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
                    self.sched(done, SharedEv::DramDone { pa: pa.0 });
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
        self.send(now + DEFAULT_RESPONSE_LOOKAHEAD + extra, LaneEv::L1Fill { sm, pa: pa.0, meta });
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
                    self.sched(done, SharedEv::DramDone { pa: pa.0 });
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
    /// [`LaneEv::Shootdown`] per SM for the L1 side.
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
                    LaneEv::Shootdown {
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

    // ------------------------------------------------------------------
    // Audit
    // ------------------------------------------------------------------

    /// Asserts the shared lane's consistency at a barrier: every
    /// structure's own audit (calendar, L2 cache and TLB, MSHR files,
    /// walker, UVM), an empty outbox, and the invariants only this lane
    /// can see — the walk-to-page maps are mutual inverses, every walk the
    /// walker tracks is known here, walk start-times belong to live walks,
    /// pending resolutions name real SMs, and every queued L2 TLB lookup
    /// would find the MSHR file full again unless its key is dirty.
    #[allow(clippy::disallowed_methods, reason = "asserts a property of every entry; order-free")]
    pub(super) fn audit_invariants(&self) {
        self.q.audit_invariants();
        self.l2_cache.audit_invariants();
        self.l2_tlb.audit_invariants();
        self.l2_tlb_mshr.audit_invariants();
        self.l2_mshr.audit_invariants();
        self.walks.audit_invariants();
        for u in &self.uvms {
            u.audit_invariants();
        }
        assert!(self.outbox.is_empty(), "shared outbox not drained at the barrier");

        // The walk maps are mutual inverses (keys are salted VPNs).
        assert_eq!(
            self.walk_of_vpn.len(),
            self.vpn_of_walk.len(),
            "walk maps disagree on live walk count"
        );
        for (&svpn, &walk) in &self.walk_of_vpn {
            #[allow(clippy::panic, reason = "audit code: a broken invariant must stop the run")]
            let back = self
                .vpn_of_walk
                .get(&walk)
                .unwrap_or_else(|| panic!("walk {} for page {svpn} has no inverse entry", walk.0));
            assert_eq!(back.0, svpn, "walk {} maps back to page {}, not {svpn}", walk.0, back.0);
        }
        for &svpn in self.walk_started.keys() {
            assert!(
                self.walk_of_vpn.contains_key(&svpn),
                "walk start-time recorded for page {svpn} with no live walk"
            );
        }
        for id in self.walks.pending_walk_ids() {
            assert!(
                self.vpn_of_walk.contains_key(&id),
                "walker tracks walk {} unknown to the shared lane",
                id.0
            );
        }
        for &(sm, _) in &self.pending_resolve {
            assert!(
                (sm as usize) < self.cfg.num_sms,
                "pending-resolve entry names nonexistent SM {sm}"
            );
        }

        // A queued L2 TLB lookup that a retry would not find the MSHR file
        // full for has a dirty key, which is what lets the drain skip the
        // others (DESIGN.md §5 item 6).
        let queued: BTreeSet<(u64, u64)> =
            self.l2_tlb_overflow.iter().map(|(&arrival, &(_, svpn))| (svpn, arrival)).collect();
        assert_eq!(queued, self.l2_tlb_queued, "L2 TLB overflow key index desynchronized");
        for &(sm, svpn) in self.l2_tlb_overflow.values() {
            assert!(
                self.l2_tlb_retry_finds_full(sm, svpn) || self.l2_tlb_dirty_keys.contains(&svpn),
                "queued L2 TLB lookup ({sm}, {svpn:#x}) may not find the MSHR file full, \
                 but its key is not dirty"
            );
        }
        assert!(
            self.l2_tlb_overflow.is_empty() || self.l2_tlb_mshr.is_full(),
            "L2 TLB lookups queued behind an MSHR file with free slots"
        );
    }

    /// Deliberately desynchronizes the L2 TLB overflow queue's key index
    /// (it counts a lookup that is not queued), the barrier audit's
    /// negative-test hook.
    #[cfg(feature = "invariants")]
    pub(super) fn corrupt_l2_tlb_queue_index_for_test(&mut self) {
        self.l2_tlb_queued.insert((u64::MAX, u64::MAX));
    }
}
