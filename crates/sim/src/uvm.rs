//! UVM memory management: 2MB logical chunks, demand paging with
//! neighborhood prefetching, page promotion, and chunk eviction under
//! oversubscription.
//!
//! The allocator reproduces the contiguity behaviour of the CUDA runtime
//! the paper relies on (§II-C): each virtual 2MB chunk reserves a physical
//! 2MB chunk, and pages migrate into their reserved slots, so pages within
//! a chunk share one virtual→physical offset. Two knobs perturb this ideal:
//!
//! * `fragmentation` — probability a chunk cannot reserve a contiguous
//!   region and its pages scatter to arbitrary free frames;
//! * `cross_chunk_contiguity` — probability consecutive virtual chunks land
//!   in consecutive physical chunks (bump allocation naturally yields this;
//!   a miss inserts a hole).
//!
//! These make CAST's speculation accuracy and coverage *emergent* rather
//! than assumed. Page-fault handling latency is excluded from simulated
//! time (paper §IV-B), but migrations still move data (traffic), update the
//! page table, embed page information, and trigger promotion/eviction.

use crate::addr::{Ppn, Vpn, PAGES_PER_CHUNK};
use crate::config::UvmConfig;
use crate::page_table::PageTable;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::rng::SimRng;

/// Who owns a physical frame (for embedded-page-info lookups at fetch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameOwner {
    /// The virtual page whose data occupies the frame.
    pub vpn: Vpn,
    /// Whether page information was embedded into the frame's compressible
    /// sectors at migration time (CAVA support).
    pub embedded: bool,
}

/// A chunk evicted under memory pressure; the engine must shoot down TLBs
/// and flush the freed frames from on-chip caches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvictedChunk {
    /// First VPN of the evicted 2MB region.
    pub first_vpn: Vpn,
    /// Pages invalidated (always the whole chunk region).
    pub pages: u64,
    /// Whether the chunk was a promoted 2MB page (splintered on eviction).
    pub was_promoted: bool,
    /// The frames that were freed (for cache flushes and traffic
    /// accounting).
    pub frames: Vec<Ppn>,
}

/// Result of touching a page.
#[derive(Debug, Clone, Default)]
pub struct TouchResult {
    /// Pages migrated in (empty when already resident).
    pub migrated: Vec<Vpn>,
    /// Chunks evicted to make room.
    pub evicted: Vec<EvictedChunk>,
    /// Whether this touch promoted the chunk to a 2MB page.
    pub promoted: bool,
    /// Whether a page fault was taken.
    pub faulted: bool,
    /// The page stayed cold (below the access-counter migration
    /// threshold): the access must be served remotely from host memory.
    pub remote: bool,
}

/// First physical chunk of the arena region (chunk 0 is reserved).
const ARENA_BASE_CHUNK: u64 = 1;
/// First physical chunk of the spill region (non-contiguous reservations
/// and post-eviction refaults land here, far from the arena).
const SPILL_BASE_CHUNK: u64 = 1 << 20;
/// Physical-chunk stride between tenants' regions: each tenant owns a
/// disjoint slice of the frame space (paper §III-D multi-tenancy).
pub const TENANT_CHUNK_STRIDE: u64 = 1 << 24;

/// The tenant owning a physical frame, derived from the region layout.
pub fn tenant_of_frame(ppn: Ppn) -> usize {
    ((ppn.0 / PAGES_PER_CHUNK) / TENANT_CHUNK_STRIDE) as usize
}

/// Frame→owner directory, chunk-granular: one hash lookup finds a 512-slot
/// array for the frame's physical 2MB chunk. Slots pack the owner into one
/// word (`vpn << 1 | embedded`, all-ones = free): migrations fill whole
/// fault blocks, so owners cluster and the dense arrays stay warm on the
/// per-fill `frame_owner` probes.
#[derive(Debug, Default)]
struct FrameOwners {
    chunks: FxHashMap<u64, Box<[u64; PAGES_PER_CHUNK as usize]>>,
}

const NO_OWNER: u64 = u64::MAX;

impl FrameOwners {
    fn get(&self, ppn: u64) -> Option<FrameOwner> {
        let arr = self.chunks.get(&(ppn / PAGES_PER_CHUNK))?;
        let v = arr[(ppn % PAGES_PER_CHUNK) as usize];
        if v == NO_OWNER {
            None
        } else {
            Some(FrameOwner { vpn: Vpn(v >> 1), embedded: v & 1 == 1 })
        }
    }

    fn insert(&mut self, ppn: u64, owner: FrameOwner) {
        let arr = self
            .chunks
            .entry(ppn / PAGES_PER_CHUNK)
            .or_insert_with(|| Box::new([NO_OWNER; PAGES_PER_CHUNK as usize]));
        arr[(ppn % PAGES_PER_CHUNK) as usize] = (owner.vpn.0 << 1) | owner.embedded as u64;
    }

    fn remove(&mut self, ppn: u64) {
        if let Some(arr) = self.chunks.get_mut(&(ppn / PAGES_PER_CHUNK)) {
            arr[(ppn % PAGES_PER_CHUNK) as usize] = NO_OWNER;
        }
    }
}

#[derive(Debug, Clone)]
struct ChunkState {
    phys_base: Option<u64>,
    resident: [u64; 8],
    resident_count: u64,
    last_touch: u64,
}

impl ChunkState {
    fn is_resident(&self, page_in_chunk: u64) -> bool {
        self.resident[(page_in_chunk / 64) as usize] >> (page_in_chunk % 64) & 1 == 1
    }

    fn set_resident(&mut self, page_in_chunk: u64) {
        self.resident[(page_in_chunk / 64) as usize] |= 1 << (page_in_chunk % 64);
        self.resident_count += 1;
    }
}

/// The UVM manager for one GPU address space.
#[derive(Debug)]
pub struct Uvm {
    cfg: UvmConfig,
    rng: SimRng,
    /// The GPU-local page table.
    pub page_table: PageTable,
    chunks: FxHashMap<u64, ChunkState>,
    frame_owner: FrameOwners,
    /// First chunk of this address space's physical region.
    base_chunk: u64,
    next_chunk: u64,
    free_chunks: Vec<u64>,
    scatter_pool: Vec<u64>,
    /// Virtual chunks that lost their arena slot to an eviction; refaults
    /// re-reserve from the spill range with a different offset.
    displaced: FxHashSet<u64>,
    /// Access counters for cold (not yet migrated) pages, used by the
    /// threshold-based migration scheme.
    cold_counts: FxHashMap<u64, u32>,
    capacity_frames: u64,
    used_frames: u64,
    touch_epoch: u64,
}

impl Uvm {
    /// Creates a manager with the given behaviour and a deterministic seed.
    pub fn new(cfg: UvmConfig, seed: u64) -> Self {
        Self::for_tenant(cfg, seed, 0)
    }

    /// Creates the manager for tenant `tenant`, whose physical region is a
    /// disjoint [`TENANT_CHUNK_STRIDE`]-sized slice of the frame space.
    pub fn for_tenant(cfg: UvmConfig, seed: u64, tenant: usize) -> Self {
        let capacity_frames = if cfg.gpu_memory_bytes == u64::MAX {
            u64::MAX
        } else {
            cfg.gpu_memory_bytes / crate::addr::PAGE_BYTES
        };
        let base = tenant as u64 * TENANT_CHUNK_STRIDE;
        Self {
            cfg,
            rng: SimRng::seed_from_u64(seed ^ (tenant as u64).wrapping_mul(0x9E37_79B9)),
            page_table: PageTable::new(),
            chunks: FxHashMap::default(),
            frame_owner: FrameOwners::default(),
            base_chunk: base,
            next_chunk: base + SPILL_BASE_CHUNK,
            free_chunks: Vec::new(),
            scatter_pool: Vec::new(),
            displaced: FxHashSet::default(),
            cold_counts: FxHashMap::default(),
            capacity_frames,
            used_frames: 0,
            touch_epoch: 0,
        }
    }

    /// The owner of a physical frame, if it holds migrated data.
    pub fn frame_owner(&self, ppn: Ppn) -> Option<FrameOwner> {
        self.frame_owner.get(ppn.0)
    }

    /// Frames currently holding resident pages.
    pub fn used_frames(&self) -> u64 {
        self.used_frames
    }

    /// Touches `vpn`: migrates its fault block if non-resident (instant, as
    /// fault latency is excluded from timing), evicting LRU chunks under
    /// memory pressure, and promoting the chunk if it becomes fully
    /// resident and contiguous.
    pub fn touch(&mut self, vpn: Vpn) -> TouchResult {
        self.touch_epoch += 1;
        let epoch = self.touch_epoch;
        let vchunk = vpn.chunk();
        if let Some(c) = self.chunks.get_mut(&vchunk) {
            c.last_touch = epoch;
            if c.is_resident(vpn.page_in_chunk()) {
                return TouchResult::default();
            }
        }

        // Access-counter migration: cold pages stay host-resident until
        // they accumulate enough touches (paper §III-D).
        if self.cfg.migration_threshold > 1 {
            let count = self.cold_counts.entry(vpn.0).or_insert(0);
            *count += 1;
            if *count < self.cfg.migration_threshold {
                return TouchResult { remote: true, ..TouchResult::default() };
            }
            self.cold_counts.remove(&vpn.0);
        }

        let mut result = TouchResult { faulted: true, ..TouchResult::default() };

        // Fault block: the base page, widened to 64KB by the TBN-style
        // neighborhood prefetcher.
        let block_pages = if self.cfg.tbn_prefetch {
            self.cfg.base_page.pages().max(16)
        } else {
            self.cfg.base_page.pages()
        };
        let block_start = Vpn(vpn.0 & !(block_pages - 1));

        // Gather the non-resident pages of the block.
        let mut to_migrate = Vec::new();
        for i in 0..block_pages {
            let v = Vpn(block_start.0 + i);
            let resident = self
                .chunks
                .get(&v.chunk())
                .map(|c| c.is_resident(v.page_in_chunk()))
                .unwrap_or(false);
            if !resident {
                to_migrate.push(v);
            }
        }

        // Make room (never evicting the chunk being touched).
        while self.capacity_frames != u64::MAX
            && self.used_frames + to_migrate.len() as u64 > self.capacity_frames
        {
            match self.evict_lru_chunk(vchunk) {
                Some(e) => result.evicted.push(e),
                None => break, // nothing evictable; proceed best-effort
            }
        }

        for v in to_migrate {
            self.migrate_page(v, epoch);
            result.migrated.push(v);
        }

        // Promotion check (Mosaic-style): fully resident + contiguous.
        // Chunks that were evicted once are not re-promoted: with fault
        // latency excluded from timing, instant re-promotion would hide
        // the churn cost that Fig 5b/Fig 19 measure (re-filling a 2MB
        // chunk over the interconnect takes milliseconds in reality).
        if self.cfg.promotion
            && !self.displaced.contains(&vchunk)
            && !self.page_table.is_promoted(vchunk)
        {
            if let Some(c) = self.chunks.get(&vchunk) {
                if c.resident_count == PAGES_PER_CHUNK {
                    if let Some(base) = c.phys_base {
                        self.page_table.promote_chunk(vchunk, Ppn(base));
                        result.promoted = true;
                    }
                }
            }
        }
        result
    }

    fn migrate_page(&mut self, vpn: Vpn, epoch: u64) {
        let vchunk = vpn.chunk();
        if !self.chunks.contains_key(&vchunk) {
            let phys_base = self.reserve_chunk(vchunk);
            self.chunks.insert(
                vchunk,
                ChunkState { phys_base, resident: [0; 8], resident_count: 0, last_touch: epoch },
            );
        }
        let phys_base = self.chunks.get(&vchunk).expect("just inserted").phys_base;
        let ppn = match phys_base {
            Some(base) => Ppn(base + vpn.page_in_chunk()),
            None => {
                if self.scatter_pool.is_empty() {
                    let c = self.free_chunks.pop().unwrap_or_else(|| {
                        let c = self.next_chunk;
                        self.next_chunk += 1;
                        c
                    });
                    let first = c * PAGES_PER_CHUNK;
                    self.scatter_pool.extend(first..first + PAGES_PER_CHUNK);
                    // Shuffle so scattered chunks really break contiguity.
                    for i in (1..self.scatter_pool.len()).rev() {
                        let j = self.rng.range_inclusive(0, i as u64) as usize;
                        self.scatter_pool.swap(i, j);
                    }
                }
                Ppn(self.scatter_pool.pop().expect("refilled"))
            }
        };
        let chunk = self.chunks.get_mut(&vchunk).expect("chunk entry was inserted at the top of migrate_page");
        chunk.last_touch = epoch;
        chunk.set_resident(vpn.page_in_chunk());
        self.page_table.map_page(vpn, ppn);
        self.frame_owner.insert(ppn.0, FrameOwner { vpn, embedded: self.cfg.embed_page_info });
        self.used_frames += 1;
    }

    /// Reserves the physical 2MB chunk for a virtual chunk.
    ///
    /// Models the CUDA-runtime arena behaviour the paper's contiguity
    /// rests on: each allocation's virtual chunks map into a physical
    /// arena with one region-wide V2P offset, so MOD's per-instruction
    /// offsets hold across chunk boundaries. The `cross_chunk_contiguity`
    /// knob is the probability a chunk actually lands in its arena slot;
    /// misses (driver spills) and post-eviction refaults draw from a
    /// distant spill range, changing the offset. `fragmentation` makes
    /// the reservation fail entirely, scattering the chunk's pages.
    fn reserve_chunk(&mut self, vchunk: u64) -> Option<u64> {
        if self.rng.next_f64() < self.cfg.fragmentation {
            return None;
        }
        // Refaults after an eviction land in whatever frames are free at
        // that moment — physical contiguity is gone (the oversubscription
        // effect Fig 5b/Fig 19 measure: evictions break the contiguity
        // every reach-based technique depends on).
        if self.displaced.contains(&vchunk) {
            return None;
        }
        if self.rng.next_f64() < self.cfg.cross_chunk_contiguity {
            return Some((self.base_chunk + ARENA_BASE_CHUNK + vchunk) * PAGES_PER_CHUNK);
        }
        let c = if let Some(c) = self.free_chunks.pop() {
            c
        } else {
            let c = self.next_chunk;
            self.next_chunk += 1;
            c
        };
        Some(c * PAGES_PER_CHUNK)
    }

    #[allow(
        clippy::disallowed_methods,
        reason = "each touch stamps one chunk with a fresh epoch, so the least-recent chunk is unique"
    )]
    fn evict_lru_chunk(&mut self, exclude_vchunk: u64) -> Option<EvictedChunk> {
        let victim = self
            .chunks
            .iter()
            .filter(|(&v, c)| v != exclude_vchunk && c.resident_count > 0)
            .min_by_key(|(_, c)| c.last_touch)
            .map(|(&v, _)| v)?;
        Some(self.evict_chunk(victim))
    }

    /// Evicts a specific chunk: splinters if promoted, unmaps its pages,
    /// clears frame owners (the DRAM in-sector info zeroing the paper
    /// integrates into migration reads), and frees the frames.
    pub fn evict_chunk(&mut self, vchunk: u64) -> EvictedChunk {
        let was_promoted = self.page_table.is_promoted(vchunk);
        if was_promoted {
            self.page_table.splinter_chunk(vchunk);
        }
        let chunk = self.chunks.remove(&vchunk).expect("evicting unknown chunk");
        let first_vpn = Vpn(vchunk * PAGES_PER_CHUNK);
        let mut frames = Vec::new();
        for i in 0..PAGES_PER_CHUNK {
            if chunk.is_resident(i) {
                let vpn = Vpn(first_vpn.0 + i);
                if let Some(ppn) = self.page_table.unmap_page(vpn) {
                    self.frame_owner.remove(ppn.0);
                    if chunk.phys_base.is_none() {
                        self.scatter_pool.push(ppn.0);
                    }
                    self.used_frames -= 1;
                    frames.push(ppn);
                }
            }
        }
        if let Some(base) = chunk.phys_base {
            let c = base / PAGES_PER_CHUNK;
            if c >= self.base_chunk + SPILL_BASE_CHUNK {
                self.free_chunks.push(c);
            }
        }
        self.displaced.insert(vchunk);
        EvictedChunk { first_vpn, pages: PAGES_PER_CHUNK, was_promoted, frames }
    }

    /// Number of chunks with resident pages.
    pub fn resident_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Whether `vpn` is resident in GPU memory.
    pub fn is_resident(&self, vpn: Vpn) -> bool {
        self.chunks
            .get(&vpn.chunk())
            .map(|c| c.is_resident(vpn.page_in_chunk()))
            .unwrap_or(false)
    }

    /// Asserts manager consistency: every chunk's resident counter matches
    /// its bitmap, `used_frames` equals both the total resident pages and
    /// the total owned frames, every resident page round-trips through the
    /// page table to a frame owned by exactly that page (and back), and
    /// cold-page access counters sit strictly below the migration
    /// threshold. Read-only; called periodically by the engine in checked
    /// (`invariants` feature) builds.
    ///
    /// # Panics
    ///
    /// Panics on the first violated invariant.
    pub fn audit_invariants(&self) {
        let mut resident_total = 0u64;
        for (&vchunk, c) in &self.chunks {
            let popcount: u64 = c.resident.iter().map(|w| w.count_ones() as u64).sum();
            assert_eq!(
                c.resident_count, popcount,
                "chunk {vchunk}: resident_count desynchronized from bitmap"
            );
            assert!(c.resident_count <= PAGES_PER_CHUNK);
            assert!(c.last_touch <= self.touch_epoch, "chunk {vchunk} touched in the future");
            resident_total += c.resident_count;
            for i in 0..PAGES_PER_CHUNK {
                if !c.is_resident(i) {
                    continue;
                }
                let vpn = Vpn(vchunk * PAGES_PER_CHUNK + i);
                let t = self
                    .page_table
                    .translate(vpn)
                    // Audit code: panicking is the whole point. lint:allow(hot-path-panic)
                    .unwrap_or_else(|| panic!("resident page {} not mapped", vpn.0));
                let owner = self
                    .frame_owner
                    .get(t.ppn.0)
                    // Audit code: panicking is the whole point. lint:allow(hot-path-panic)
                    .unwrap_or_else(|| panic!("frame {} of resident page {} unowned", t.ppn.0, vpn.0));
                assert_eq!(
                    owner.vpn, vpn,
                    "frame {} owned by page {}, mapped from page {}",
                    t.ppn.0, owner.vpn.0, vpn.0
                );
            }
        }
        assert_eq!(resident_total, self.used_frames, "used_frames desynchronized from chunk bitmaps");
        // The inverse direction: every owned frame belongs to a page that
        // is resident and maps back to that frame.
        let mut owned_total = 0u64;
        for (&pchunk, arr) in &self.frame_owner.chunks {
            for (slot, &v) in arr.iter().enumerate() {
                if v == NO_OWNER {
                    continue;
                }
                owned_total += 1;
                let ppn = pchunk * PAGES_PER_CHUNK + slot as u64;
                let vpn = Vpn(v >> 1);
                assert!(self.is_resident(vpn), "frame {ppn} owned by non-resident page {}", vpn.0);
                let t = self
                    .page_table
                    .translate(vpn)
                    // Audit code: panicking is the whole point. lint:allow(hot-path-panic)
                    .unwrap_or_else(|| panic!("owned frame {ppn}: page {} unmapped", vpn.0));
                assert_eq!(t.ppn.0, ppn, "frame {ppn} owner maps elsewhere ({})", t.ppn.0);
            }
        }
        assert_eq!(owned_total, self.used_frames, "frame-owner directory desynchronized");
        if self.cfg.migration_threshold > 1 {
            for (&vpn, &count) in &self.cold_counts {
                assert!(
                    count > 0 && count < self.cfg.migration_threshold,
                    "cold counter for page {vpn} is {count}, threshold {}",
                    self.cfg.migration_threshold
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BasePage, GpuConfig};

    fn cfg() -> UvmConfig {
        UvmConfig { fragmentation: 0.0, cross_chunk_contiguity: 1.0, ..GpuConfig::default().uvm }
    }

    #[test]
    fn first_touch_faults_and_migrates_block() {
        let mut u = Uvm::new(cfg(), 1);
        let r = u.touch(Vpn(5));
        assert!(r.faulted);
        assert_eq!(r.migrated.len(), 16, "TBN prefetch widens to 64KB");
        assert!(u.is_resident(Vpn(0)));
        assert!(u.is_resident(Vpn(15)));
        assert!(!u.is_resident(Vpn(16)));
        // Second touch: resident, no fault.
        let r2 = u.touch(Vpn(5));
        assert!(!r2.faulted);
    }

    #[test]
    fn no_prefetch_migrates_single_page() {
        let mut u = Uvm::new(UvmConfig { tbn_prefetch: false, ..cfg() }, 1);
        let r = u.touch(Vpn(5));
        assert_eq!(r.migrated, vec![Vpn(5)]);
    }

    #[test]
    fn contiguous_chunk_shares_offset() {
        let mut u = Uvm::new(cfg(), 1);
        u.touch(Vpn(0));
        u.touch(Vpn(100));
        let t0 = u.page_table.translate(Vpn(0)).unwrap();
        let t100 = u.page_table.translate(Vpn(100)).unwrap();
        assert_eq!(t100.ppn.0 - t0.ppn.0, 100, "one V2P offset per chunk");
    }

    #[test]
    fn cross_chunk_contiguity_with_bump_allocation() {
        let mut u = Uvm::new(cfg(), 1);
        u.touch(Vpn(0));
        u.touch(Vpn(PAGES_PER_CHUNK));
        let a = u.page_table.translate(Vpn(0)).unwrap().ppn.0;
        let b = u.page_table.translate(Vpn(PAGES_PER_CHUNK)).unwrap().ppn.0;
        assert_eq!(b - a, PAGES_PER_CHUNK, "consecutive chunks stay contiguous");
    }

    #[test]
    fn fragmented_chunk_scatters_pages() {
        let mut u = Uvm::new(UvmConfig { fragmentation: 1.0, ..cfg() }, 7);
        u.touch(Vpn(0));
        let t0 = u.page_table.translate(Vpn(0)).unwrap().ppn.0;
        let t1 = u.page_table.translate(Vpn(1)).unwrap().ppn.0;
        let t2 = u.page_table.translate(Vpn(2)).unwrap().ppn.0;
        assert!(
            t1 != t0 + 1 || t2 != t0 + 2,
            "shuffled frames must not be fully contiguous: {t0} {t1} {t2}"
        );
    }

    #[test]
    fn promotion_on_full_residency() {
        let mut u = Uvm::new(UvmConfig { promotion: true, ..cfg() }, 1);
        let mut promoted = false;
        for p in (0..PAGES_PER_CHUNK).step_by(16) {
            promoted |= u.touch(Vpn(p)).promoted;
        }
        assert!(promoted, "chunk fully resident and contiguous must promote");
        assert!(u.page_table.is_promoted(0));
    }

    #[test]
    fn fragmented_chunk_never_promotes() {
        let mut u = Uvm::new(UvmConfig { promotion: true, fragmentation: 1.0, ..cfg() }, 3);
        for p in (0..PAGES_PER_CHUNK).step_by(16) {
            assert!(!u.touch(Vpn(p)).promoted);
        }
        assert!(!u.page_table.is_promoted(0));
    }

    #[test]
    fn oversubscription_evicts_lru_chunk() {
        // Capacity: 2 chunks worth of frames.
        let mut u = Uvm::new(
            UvmConfig {
                gpu_memory_bytes: 2 * crate::addr::CHUNK_BYTES,
                ..cfg()
            },
            1,
        );
        u.touch(Vpn(0));
        // Fill chunk 0 fully.
        for p in (0..PAGES_PER_CHUNK).step_by(16) {
            u.touch(Vpn(p));
        }
        // Fill chunk 1 fully.
        for p in (PAGES_PER_CHUNK..2 * PAGES_PER_CHUNK).step_by(16) {
            u.touch(Vpn(p));
        }
        // Chunk 2: must evict chunk 0 (LRU).
        let r = u.touch(Vpn(2 * PAGES_PER_CHUNK));
        assert_eq!(r.evicted.len(), 1);
        assert_eq!(r.evicted[0].first_vpn, Vpn(0));
        assert!(!u.is_resident(Vpn(0)));
        assert!(u.is_resident(Vpn(PAGES_PER_CHUNK)));
    }

    #[test]
    fn eviction_clears_frame_owner_and_refault_remaps() {
        let mut u = Uvm::new(
            UvmConfig { gpu_memory_bytes: 2 * crate::addr::CHUNK_BYTES, ..cfg() },
            1,
        );
        for p in (0..PAGES_PER_CHUNK).step_by(16) {
            u.touch(Vpn(p));
        }
        let old = u.page_table.translate(Vpn(0)).unwrap().ppn;
        assert!(u.frame_owner(old).is_some());
        for p in (PAGES_PER_CHUNK..3 * PAGES_PER_CHUNK).step_by(16) {
            u.touch(Vpn(p));
        }
        assert!(u.frame_owner(old).map(|o| o.vpn != Vpn(0)).unwrap_or(true));
        // Refault: the chunk returns at a (generally) different base.
        let r = u.touch(Vpn(0));
        assert!(r.faulted);
        assert!(u.page_table.translate(Vpn(0)).is_some());
    }

    #[test]
    fn frame_owner_records_embedding() {
        let mut u = Uvm::new(UvmConfig { embed_page_info: true, ..cfg() }, 1);
        u.touch(Vpn(3));
        let ppn = u.page_table.translate(Vpn(3)).unwrap().ppn;
        let owner = u.frame_owner(ppn).unwrap();
        assert_eq!(owner.vpn, Vpn(3));
        assert!(owner.embedded);
    }

    #[test]
    fn base_64k_without_prefetch_migrates_16_pages() {
        let mut u = Uvm::new(
            UvmConfig { base_page: BasePage::Size64K, tbn_prefetch: false, ..cfg() },
            1,
        );
        let r = u.touch(Vpn(20));
        assert_eq!(r.migrated.len(), 16);
        assert!(u.is_resident(Vpn(16)));
        assert!(u.is_resident(Vpn(31)));
    }

    #[test]
    fn displaced_chunks_do_not_repromote() {
        let mut u = Uvm::new(
            UvmConfig {
                promotion: true,
                gpu_memory_bytes: 2 * crate::addr::CHUNK_BYTES,
                ..cfg()
            },
            1,
        );
        for p in (0..PAGES_PER_CHUNK).step_by(16) {
            u.touch(Vpn(p));
        }
        assert!(u.page_table.is_promoted(0));
        // Force chunk 0 out.
        for p in (PAGES_PER_CHUNK..3 * PAGES_PER_CHUNK).step_by(16) {
            u.touch(Vpn(p));
        }
        assert!(!u.page_table.is_promoted(0));
        // Refill chunk 0 fully: it must stay 4KB-mapped (hysteresis).
        for p in (0..PAGES_PER_CHUNK).step_by(16) {
            u.touch(Vpn(p));
        }
        assert!(!u.page_table.is_promoted(0), "displaced chunks never re-promote");
        assert!(u.is_resident(Vpn(0)));
    }

    #[test]
    fn threshold_migration_defers_cold_pages() {
        let mut u = Uvm::new(UvmConfig { migration_threshold: 3, ..cfg() }, 1);
        let r1 = u.touch(Vpn(5));
        assert!(r1.remote && !r1.faulted, "first touch stays remote");
        let r2 = u.touch(Vpn(5));
        assert!(r2.remote, "second touch still below threshold");
        let r3 = u.touch(Vpn(5));
        assert!(!r3.remote && r3.faulted, "third touch migrates");
        assert!(u.is_resident(Vpn(5)));
        // Once resident, later touches are ordinary hits.
        let r4 = u.touch(Vpn(5));
        assert!(!r4.remote && !r4.faulted);
    }

    #[test]
    fn audit_passes_across_migrate_evict_churn() {
        let mut u = Uvm::new(
            UvmConfig {
                gpu_memory_bytes: 2 * crate::addr::CHUNK_BYTES,
                promotion: true,
                ..cfg()
            },
            1,
        );
        u.audit_invariants();
        for p in (0..4 * PAGES_PER_CHUNK).step_by(16) {
            u.touch(Vpn(p));
            u.audit_invariants();
        }
        assert!(u.resident_chunks() > 0);
    }

    #[test]
    fn used_frames_tracks_migrations_and_evictions() {
        let mut u = Uvm::new(
            UvmConfig { gpu_memory_bytes: 2 * crate::addr::CHUNK_BYTES, ..cfg() },
            1,
        );
        u.touch(Vpn(0));
        assert_eq!(u.used_frames(), 16);
        for p in (0..PAGES_PER_CHUNK).step_by(16) {
            u.touch(Vpn(p));
        }
        assert_eq!(u.used_frames(), PAGES_PER_CHUNK);
    }
}
