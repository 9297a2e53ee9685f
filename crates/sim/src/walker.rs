//! The shared, multi-threaded page-walk system: walkers, the page-walk
//! buffer, and the page-walk cache.
//!
//! The walker system is a state machine driven by the engine: the engine
//! performs each walk's memory references through the L2 cache and DRAM
//! (page-structure entries are cacheable) and advances the walk as each
//! reference completes. EAF can abort an in-flight walk to release the
//! walker and buffer resources early.

use crate::addr::{PhysAddr, Vpn};
use crate::config::{Cycle, WalkerConfig};
use crate::page_table::PageTable;
use std::collections::VecDeque;

/// A queued walk request: the page plus the number of radix levels the
/// walk must reference (captured at enqueue; 4 for a 4KB leaf, 3 for a
/// promoted 2MB leaf).
#[derive(Debug, Clone, Copy)]
struct QueuedWalk {
    id: WalkId,
    vpn: Vpn,
    levels: usize,
    enqueued: Cycle,
}

/// Identifier of an in-flight walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WalkId(pub u64);

/// Progress report after a walk memory reference completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkProgress {
    /// The walk needs another page-structure reference at this address.
    Access(PhysAddr),
    /// The walk has reached the leaf PTE; translation can be resolved.
    Done,
}

/// An in-flight walk, flattened to fixed-width fields: the level cursor
/// replaces the seed's per-walk `VecDeque<usize>` (levels advance strictly
/// in order, so a counter suffices — no per-walk heap allocation).
#[derive(Debug, Clone, Copy)]
struct ActiveWalk {
    id: WalkId,
    vpn: Vpn,
    /// Level currently being referenced.
    level: u8,
    /// Total levels in this walk (for prefix insertion on completion).
    levels: u8,
    started_at: Cycle,
}

/// An LRU cache of page-structure pointer entries, keyed (level, prefix).
///
/// Keys are packed into one word (`prefix << 2 | level`; levels fit in two
/// bits, prefixes stay far below 2^62), so the scan compares a flat `u64`
/// array instead of tuples.
#[derive(Debug, Clone)]
pub struct PwCache {
    capacity: usize,
    entries: Vec<(u64, u64)>,
    stamp: u64,
}

#[inline]
fn pw_key(level: usize, prefix: u64) -> u64 {
    debug_assert!(level < 4);
    (prefix << 2) | level as u64
}

impl PwCache {
    /// Creates a cache with `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Self { capacity, entries: Vec::with_capacity(capacity), stamp: 0 }
    }

    /// Whether (level, prefix) is cached; touches LRU on hit.
    pub fn contains(&mut self, level: usize, prefix: u64) -> bool {
        self.stamp += 1;
        let stamp = self.stamp;
        let key = pw_key(level, prefix);
        if let Some(e) = self.entries.iter_mut().find(|(k, _)| *k == key) {
            e.1 = stamp;
            true
        } else {
            false
        }
    }

    /// Inserts (level, prefix), evicting LRU at capacity.
    pub fn insert(&mut self, level: usize, prefix: u64) {
        self.stamp += 1;
        let stamp = self.stamp;
        let key = pw_key(level, prefix);
        if let Some(e) = self.entries.iter_mut().find(|(k, _)| *k == key) {
            e.1 = stamp;
            return;
        }
        if self.entries.len() >= self.capacity {
            let victim = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, t))| *t)
                .map(|(i, _)| i)
                .expect("nonempty");
            self.entries.swap_remove(victim);
        }
        self.entries.push((key, stamp));
    }

    /// Drops every entry (full shootdown).
    pub fn flush(&mut self) {
        self.entries.clear();
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Asserts cache consistency: within capacity, unique keys, no LRU
    /// stamp ahead of the global counter.
    ///
    /// # Panics
    ///
    /// Panics on the first violated invariant.
    pub fn audit_invariants(&self) {
        assert!(self.entries.len() <= self.capacity, "pw cache over capacity");
        for (i, &(k, t)) in self.entries.iter().enumerate() {
            assert!(t <= self.stamp, "pw cache stamp {t} ahead of global {}", self.stamp);
            assert!(
                !self.entries[..i].iter().any(|&(k2, _)| k2 == k),
                "pw cache key {k} present twice"
            );
        }
    }
}

/// The page-walk system: finite walkers fed from a finite walk buffer.
///
/// Active walks live in a small flat vector (there are at most
/// `cfg.walkers` ≈ 16): a linear id scan beats hashing at this size and
/// keeps the per-walk state in two cache lines.
#[derive(Debug)]
pub struct PageWalkSystem {
    cfg: WalkerConfig,
    pw_cache: PwCache,
    queue: VecDeque<QueuedWalk>,
    active: Vec<ActiveWalk>,
    next_id: u64,
}

impl PageWalkSystem {
    /// Creates the system from configuration.
    pub fn new(cfg: WalkerConfig) -> Self {
        let pw_cache = PwCache::new(cfg.pw_cache_entries);
        let active = Vec::with_capacity(cfg.walkers);
        Self { cfg, pw_cache, queue: VecDeque::new(), active, next_id: 0 }
    }

    /// Whether the walk buffer can accept another request.
    pub fn has_buffer_space(&self) -> bool {
        self.queue.len() + self.active.len() < self.cfg.buffer_entries
    }

    /// Whether a walker is idle.
    pub fn has_free_walker(&self) -> bool {
        self.active.len() < self.cfg.walkers
    }

    /// Enqueues a walk request for a walk of `levels` radix levels;
    /// `None` if the buffer is full.
    pub fn enqueue(&mut self, vpn: Vpn, levels: usize, now: Cycle) -> Option<WalkId> {
        if !self.has_buffer_space() {
            return None;
        }
        let id = WalkId(self.next_id);
        self.next_id += 1;
        self.queue.push_back(QueuedWalk { id, vpn, levels, enqueued: now });
        Some(id)
    }

    /// Dispatches one queued walk onto a free walker, consulting the
    /// page-walk cache to skip already-cached upper levels.
    ///
    /// Returns the walk id and its first memory reference. Every walk
    /// performs at least the leaf PTE reference.
    pub fn dispatch(&mut self) -> Option<(WalkId, PhysAddr)> {
        if !self.has_free_walker() {
            return None;
        }
        let QueuedWalk { id, vpn, levels, enqueued: started_at } = self.queue.pop_front()?;
        // Deepest cached pointer level (pointers are levels 0..levels-1).
        let mut start = 0;
        for level in (0..levels - 1).rev() {
            if self.pw_cache.contains(level, PageTable::prefix(vpn, level)) {
                start = level + 1;
                break;
            }
        }
        let addr = PageTable::entry_address(vpn, start);
        self.active.push(ActiveWalk {
            id,
            vpn,
            level: start as u8,
            levels: levels as u8,
            started_at,
        });
        Some((id, addr))
    }

    /// Advances a walk after its current memory reference completed.
    ///
    /// On `Done` the walk is retired: its pointer prefixes enter the PW
    /// cache and the walker frees. Returns `None` for unknown (e.g.
    /// aborted) walks.
    pub fn step(&mut self, id: WalkId) -> Option<WalkProgress> {
        let i = self.active.iter().position(|w| w.id == id)?;
        let walk = &mut self.active[i];
        walk.level += 1;
        if walk.level < walk.levels {
            let addr = PageTable::entry_address(walk.vpn, walk.level as usize);
            return Some(WalkProgress::Access(addr));
        }
        let walk = self.active.swap_remove(i);
        for level in 0..walk.levels as usize - 1 {
            self.pw_cache.insert(level, PageTable::prefix(walk.vpn, level));
        }
        Some(WalkProgress::Done)
    }

    /// Start cycle of a live walk (for latency stats).
    pub fn started_at(&self, id: WalkId) -> Option<Cycle> {
        self.active.iter().find(|w| w.id == id).map(|w| w.started_at)
    }

    /// Aborts a walk (EAF early release). Returns `true` if it was live.
    ///
    /// Queued entries are removed from the buffer; active walks free their
    /// walker immediately — subsequent [`step`](Self::step) calls for the
    /// id are ignored by returning `None`.
    pub fn abort(&mut self, id: WalkId) -> bool {
        if let Some(i) = self.active.iter().position(|w| w.id == id) {
            self.active.swap_remove(i);
            return true;
        }
        let before = self.queue.len();
        self.queue.retain(|q| q.id != id);
        before != self.queue.len()
    }

    /// Queued (not yet dispatched) walks.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Active (dispatched) walks.
    pub fn active(&self) -> usize {
        self.active.len()
    }

    /// Access to the page-walk cache (tests, stats).
    pub fn pw_cache(&self) -> &PwCache {
        &self.pw_cache
    }

    /// Ids of every live (queued or active) walk, queued first. Checked
    /// mode cross-checks these against the engine's walk-to-VPN maps.
    pub fn pending_walk_ids(&self) -> impl Iterator<Item = WalkId> + '_ {
        self.queue.iter().map(|q| q.id).chain(self.active.iter().map(|w| w.id))
    }

    /// Asserts system consistency: walker and buffer limits respected,
    /// every live walk id unique and below the allocation cursor, every
    /// active walk's level cursor inside its walk, and the page-walk
    /// cache internally consistent. Read-only; called periodically by the
    /// engine in checked (`invariants` feature) builds.
    ///
    /// # Panics
    ///
    /// Panics on the first violated invariant.
    pub fn audit_invariants(&self) {
        assert!(
            self.active.len() <= self.cfg.walkers,
            "{} active walks exceed {} walkers",
            self.active.len(),
            self.cfg.walkers
        );
        assert!(
            self.queue.len() + self.active.len() <= self.cfg.buffer_entries,
            "walk buffer over capacity: {} queued + {} active > {}",
            self.queue.len(),
            self.active.len(),
            self.cfg.buffer_entries
        );
        let ids: Vec<WalkId> = self.pending_walk_ids().collect();
        for (i, id) in ids.iter().enumerate() {
            assert!(id.0 < self.next_id, "walk id {} from the future", id.0);
            assert!(!ids[..i].contains(id), "walk id {} live twice", id.0);
        }
        for w in &self.active {
            assert!(
                (w.level as usize) < w.levels as usize,
                "active walk {} past its last level",
                w.id.0
            );
        }
        self.pw_cache.audit_invariants();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Ppn;
    use crate::config::GpuConfig;

    fn system() -> PageWalkSystem {
        PageWalkSystem::new(GpuConfig::default().walker)
    }

    fn mapped_pt(vpn: u64) -> PageTable {
        let mut pt = PageTable::new();
        pt.map_page(Vpn(vpn), Ppn(vpn + 1000));
        pt
    }

    fn enqueue_for(ws: &mut PageWalkSystem, pt: &PageTable, vpn: Vpn) -> WalkId {
        ws.enqueue(vpn, pt.walk_levels(vpn), 0).expect("buffer space")
    }

    fn drive_to_completion(ws: &mut PageWalkSystem, id: WalkId) -> usize {
        let mut accesses = 1; // the dispatch access
        loop {
            match ws.step(id).expect("walk live") {
                WalkProgress::Access(_) => accesses += 1,
                WalkProgress::Done => return accesses,
            }
        }
    }

    #[test]
    fn cold_walk_references_four_levels() {
        let mut ws = system();
        let pt = mapped_pt(42);
        let id = enqueue_for(&mut ws, &pt, Vpn(42));
        let (id2, _first) = ws.dispatch().unwrap();
        assert_eq!(id, id2);
        assert_eq!(drive_to_completion(&mut ws, id), 4);
        assert_eq!(ws.active(), 0);
    }

    #[test]
    fn warm_pw_cache_shortens_walk() {
        let mut ws = system();
        let pt = mapped_pt(42);
        let id = enqueue_for(&mut ws, &pt, Vpn(42));
        ws.dispatch();
        drive_to_completion(&mut ws, id);
        // Neighbouring page shares all pointer levels: only the leaf ref.
        let id2 = enqueue_for(&mut ws, &pt, Vpn(43));
        ws.dispatch();
        assert_eq!(drive_to_completion(&mut ws, id2), 1);
    }

    #[test]
    fn promoted_chunk_walks_three_levels() {
        let mut ws = system();
        let mut pt = PageTable::new();
        pt.promote_chunk(5, Ppn(0));
        let vpn = Vpn(5 * crate::addr::PAGES_PER_CHUNK);
        let id = enqueue_for(&mut ws, &pt, vpn);
        ws.dispatch();
        assert_eq!(drive_to_completion(&mut ws, id), 3);
    }

    #[test]
    fn walker_limit_respected() {
        let mut cfg = GpuConfig::default().walker;
        cfg.walkers = 2;
        let mut ws = PageWalkSystem::new(cfg);
        let _pt = mapped_pt(1);
        for v in 0..3 {
            ws.enqueue(Vpn(1000 + v), 4, 0).unwrap();
        }
        assert!(ws.dispatch().is_some());
        assert!(ws.dispatch().is_some());
        assert!(ws.dispatch().is_none(), "third walk must wait for a walker");
        assert_eq!(ws.queued(), 1);
    }

    #[test]
    fn buffer_capacity_respected() {
        let mut cfg = GpuConfig::default().walker;
        cfg.buffer_entries = 2;
        let mut ws = PageWalkSystem::new(cfg);
        assert!(ws.enqueue(Vpn(1), 4, 0).is_some());
        assert!(ws.enqueue(Vpn(2), 4, 0).is_some());
        assert!(ws.enqueue(Vpn(3), 4, 0).is_none());
    }

    #[test]
    fn abort_frees_walker_and_ignores_steps() {
        let mut ws = system();
        let pt = mapped_pt(7);
        let id = enqueue_for(&mut ws, &pt, Vpn(7));
        ws.dispatch();
        assert_eq!(ws.active(), 1);
        assert!(ws.abort(id));
        assert_eq!(ws.active(), 0);
        assert_eq!(ws.step(id), None);
    }

    #[test]
    fn abort_queued_walk() {
        let mut ws = system();
        let id = ws.enqueue(Vpn(9), 4, 0).unwrap();
        assert!(ws.abort(id));
        assert_eq!(ws.queued(), 0);
        assert!(!ws.abort(id));
    }

    #[test]
    fn pw_cache_lru_eviction() {
        let mut c = PwCache::new(2);
        c.insert(0, 1);
        c.insert(0, 2);
        assert!(c.contains(0, 1)); // touch 1
        c.insert(0, 3);
        assert!(c.contains(0, 1));
        assert!(!c.contains(0, 2));
        assert!(c.contains(0, 3));
    }

    #[test]
    fn pw_cache_flush() {
        let mut c = PwCache::new(4);
        c.insert(1, 1);
        c.flush();
        assert!(c.is_empty());
    }
}
