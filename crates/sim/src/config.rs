//! Simulated system configuration (paper Table II, RTX3070-like).

/// A simulation timestamp in GPU core cycles (1132 MHz).
pub type Cycle = u64;

/// L1 data-cache arrangement relative to address translation (paper
/// §III-D "Cache Designs").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheArrangement {
    /// Virtually indexed, physically tagged (the baseline): the L1 lookup
    /// proceeds in parallel with the L1 TLB, so a TLB hit only pays the
    /// non-overlapped part of the cache latency.
    Vipt,
    /// Physically indexed, physically tagged: the data lookup starts only
    /// after translation completes.
    Pipt,
}

/// Base page size selector (paper §IV-C1 evaluates 4KB and 64KB bases).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BasePage {
    /// 4KB base pages (default UVM fault granularity).
    Size4K,
    /// 64KB base pages (prefetch-enlarged fault granularity).
    Size64K,
}

impl BasePage {
    /// Number of 4KB pages covered by one base page.
    pub fn pages(self) -> u64 {
        match self {
            BasePage::Size4K => 1,
            BasePage::Size64K => 16,
        }
    }
}

/// TLB hierarchy sizing and latencies.
#[derive(Debug, Clone, PartialEq)]
pub struct TlbConfig {
    /// Entries for base-page translations.
    pub base_entries: usize,
    /// Entries for 2MB large-page translations.
    pub large_entries: usize,
    /// Access latency in cycles.
    pub latency: Cycle,
    /// Associativity (0 = fully associative).
    pub assoc: usize,
    /// Lookups that may start per cycle.
    pub ports: u32,
    /// Outstanding misses.
    pub mshr_entries: usize,
}

/// Cache sizing and latencies.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub bytes: u64,
    /// Access latency in cycles.
    pub latency: Cycle,
    /// Set associativity.
    pub assoc: usize,
    /// Outstanding line misses.
    pub mshr_entries: usize,
    /// Accesses that may start per cycle.
    pub ports: u32,
}

impl CacheConfig {
    /// Number of 128B lines.
    pub fn lines(&self) -> u64 {
        self.bytes / crate::addr::LINE_BYTES
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        (self.lines() / self.assoc as u64).max(1)
    }
}

/// GDDR6 DRAM timing (converted to core cycles at 1132 MHz).
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    /// Number of channels.
    pub channels: usize,
    /// Banks per channel.
    pub banks_per_channel: usize,
    /// DRAM row (page) size in bytes.
    pub row_bytes: u64,
    /// Row activate latency (tRCD) in core cycles.
    pub t_rcd: Cycle,
    /// Column access latency (tCL) in core cycles.
    pub t_cl: Cycle,
    /// Precharge latency (tRP) in core cycles.
    pub t_rp: Cycle,
    /// Write latency (tWL) in core cycles.
    pub t_wl: Cycle,
    /// Read-to-write turnaround (tRTW) in core cycles.
    pub t_rtw: Cycle,
    /// Data-bus occupancy per 32B sector burst, in core cycles.
    pub burst: Cycle,
}

/// Page-walk system parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct WalkerConfig {
    /// Concurrent page-table walkers.
    pub walkers: usize,
    /// Page-walk buffer entries.
    pub buffer_entries: usize,
    /// Page-walk cache entries.
    pub pw_cache_entries: usize,
    /// Page-walk cache ports.
    pub pw_cache_ports: u32,
}

/// UVM memory-management behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct UvmConfig {
    /// GPU memory capacity in bytes. `u64::MAX` disables oversubscription.
    pub gpu_memory_bytes: u64,
    /// Base page (fault granularity) size.
    pub base_page: BasePage,
    /// Enable the tree-based neighborhood (TBN-style) prefetcher: faults
    /// migrate the surrounding 64KB block.
    pub tbn_prefetch: bool,
    /// Enable page promotion to 2MB when a chunk is fully resident and
    /// physically contiguous (Mosaic-style; adopted by all non-baseline
    /// configurations in the paper's Fig 15).
    pub promotion: bool,
    /// Probability that a 2MB chunk reservation fails and the chunk's pages
    /// are scattered to arbitrary free frames (physical fragmentation).
    pub fragmentation: f64,
    /// Probability that consecutive virtual chunks are placed in
    /// consecutive physical chunks (cross-chunk contiguity).
    pub cross_chunk_contiguity: f64,
    /// Compress sectors and embed page info at migration (CAVA support).
    pub embed_page_info: bool,
    /// Access-counter migration threshold (paper §III-D): a page migrates
    /// only after this many touches; earlier accesses are served remotely
    /// from host memory over the interconnect. 1 = migrate on first touch
    /// (the default UVM behaviour).
    pub migration_threshold: u32,
    /// Latency of a remote (host-memory) access over PCIe/NVLink, in core
    /// cycles.
    pub remote_latency: Cycle,
}

/// Speculation-related parameters (paper Table II, CAST/CAVA rows).
#[derive(Debug, Clone, PartialEq)]
pub struct SpecConfig {
    /// MOD (or VPN-T) entries.
    pub mod_entries: usize,
    /// State-counter confidence threshold.
    pub confidence_threshold: u8,
    /// Decompression latency added at the L2 for compressed sectors.
    pub decompression_latency: Cycle,
    /// Per-SM seed-table entries for hash-based speculative translation
    /// (Revelator-class policies). Ignored by offset predictors.
    pub seed_entries: usize,
    /// Latency of the rapid validation-on-use check, from speculative
    /// dispatch to verdict ([`ValidationKind::Rapid`]).
    ///
    /// [`ValidationKind::Rapid`]: crate::hooks::ValidationKind::Rapid
    pub rapid_latency: Cycle,
}

/// Full system configuration (paper Table II defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// Maximum resident warps per SM.
    pub warps_per_sm: usize,
    /// Per-SM private L1 TLB.
    pub l1_tlb: TlbConfig,
    /// Shared L2 TLB.
    pub l2_tlb: TlbConfig,
    /// Per-SM private L1 data cache (sectored, VIPT).
    pub l1_cache: CacheConfig,
    /// Shared L2 cache (sectored).
    pub l2_cache: CacheConfig,
    /// DRAM timing.
    pub dram: DramConfig,
    /// Page-walk system.
    pub walker: WalkerConfig,
    /// UVM behaviour.
    pub uvm: UvmConfig,
    /// Speculation parameters.
    pub spec: SpecConfig,
    /// L1 cache arrangement (VIPT default, PIPT for the §III-D study).
    pub l1_arrangement: CacheArrangement,
    /// Spatially shared tenants (paper §III-D multi-tenancy): SMs are
    /// partitioned contiguously among `tenants` isolated address spaces,
    /// each with its own page table, physical region, and ASID.
    pub tenants: usize,
    /// Ideal-TLB mode: every translation resolves instantly (used for the
    /// Fig 3 ideal baseline).
    pub ideal_tlb: bool,
    /// Deterministic seed for allocation randomness.
    pub seed: u64,
}

/// The engine's window span (cycles): the modeled turnaround of the
/// SM↔shared-domain interconnect. SM→shared hops take 1 cycle;
/// shared→SM responses are deferred by one full window plus the device
/// latency, so this is the effective round-trip overhead added to every
/// cross-domain exchange.
pub const DEFAULT_RESPONSE_LOOKAHEAD: Cycle = 8;

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig {
            num_sms: 46,
            warps_per_sm: 48,
            l1_tlb: TlbConfig {
                base_entries: 32,
                large_entries: 16,
                latency: 25,
                assoc: 0,
                ports: 4,
                mshr_entries: 32,
            },
            l2_tlb: TlbConfig {
                base_entries: 1024,
                large_entries: 128,
                latency: 90,
                assoc: 8,
                ports: 8,
                mshr_entries: 128,
            },
            l1_cache: CacheConfig {
                bytes: 128 * 1024,
                latency: 39,
                assoc: 4,
                // Outstanding 32B sector fetches per SM. Modern GPUs keep
                // hundreds of sectors in flight per SM; a tight file here
                // would artificially suppress speculative fetches.
                mshr_entries: 512,
                ports: 8,
            },
            l2_cache: CacheConfig {
                bytes: 4 * 1024 * 1024,
                latency: 187,
                assoc: 16,
                mshr_entries: 2048,
                // One slice per memory channel with dual-ported tag pipes.
                ports: 32,
            },
            dram: DramConfig {
                channels: 16,
                banks_per_channel: 16,
                row_bytes: 4096,
                // Table II nanoseconds at 1132MHz core clock:
                // 13.7ns ≈ 16, 15.3ns ≈ 17, 4.6ns ≈ 5, 6.3ns ≈ 7 cycles.
                t_rcd: 16,
                t_cl: 16,
                t_rp: 17,
                t_wl: 5,
                t_rtw: 7,
                // 32B at 28GB/s ≈ 1.14ns ≈ 2 core cycles.
                burst: 2,
            },
            walker: WalkerConfig {
                walkers: 16,
                buffer_entries: 128,
                pw_cache_entries: 64,
                pw_cache_ports: 8,
            },
            uvm: UvmConfig {
                gpu_memory_bytes: u64::MAX,
                base_page: BasePage::Size4K,
                tbn_prefetch: true,
                promotion: false,
                fragmentation: 0.03,
                cross_chunk_contiguity: 0.93,
                embed_page_info: false,
                migration_threshold: 1,
                // ~700ns PCIe round trip at 1132MHz.
                remote_latency: 800,
            },
            spec: SpecConfig {
                mod_entries: 32,
                confidence_threshold: 2,
                decompression_latency: 7,
                seed_entries: 256,
                rapid_latency: 20,
            },
            l1_arrangement: CacheArrangement::Vipt,
            tenants: 1,
            ideal_tlb: false,
            seed: 0x5EED,
        }
    }
}

impl GpuConfig {
    /// Table II configuration with default knobs.
    pub fn rtx3070() -> Self {
        Self::default()
    }

    /// A typed, validating builder starting from the Table II defaults.
    /// Struct-literal / field-mutation construction keeps working; the
    /// builder adds `validate()` at the end so impossible geometries
    /// fail loudly at configuration time instead of as simulation bugs.
    pub fn builder() -> GpuConfigBuilder {
        GpuConfigBuilder { cfg: GpuConfig::default() }
    }

    /// GPU memory capacity in 4KB frames.
    pub fn gpu_frames(&self) -> u64 {
        if self.uvm.gpu_memory_bytes == u64::MAX {
            u64::MAX
        } else {
            self.uvm.gpu_memory_bytes / crate::addr::PAGE_BYTES
        }
    }

    /// FNV-1a digest over every configuration field, in declaration
    /// order. This is the simulation-identity component of the bench
    /// result-cache key.
    ///
    /// Every struct is folded through an *exhaustive* destructuring
    /// pattern: adding a field to any configuration section fails
    /// compilation here until the new field is folded, so the cache key
    /// cannot silently omit simulation-relevant state (avatar-lint's
    /// `cache-key-completeness` rule additionally rejects `..` in these
    /// patterns).
    pub fn key_digest(&self) -> u64 {
        let mut h = crate::invariant::Fnv64::new();
        let GpuConfig {
            num_sms,
            warps_per_sm,
            l1_tlb,
            l2_tlb,
            l1_cache,
            l2_cache,
            dram,
            walker,
            uvm,
            spec,
            l1_arrangement,
            tenants,
            ideal_tlb,
            seed,
        } = self;
        h.write_u64(*num_sms as u64);
        h.write_u64(*warps_per_sm as u64);
        for tlb in [l1_tlb, l2_tlb] {
            let TlbConfig { base_entries, large_entries, latency, assoc, ports, mshr_entries } =
                tlb;
            h.write_u64(*base_entries as u64);
            h.write_u64(*large_entries as u64);
            h.write_u64(*latency);
            h.write_u64(*assoc as u64);
            h.write_u64(u64::from(*ports));
            h.write_u64(*mshr_entries as u64);
        }
        for cache in [l1_cache, l2_cache] {
            let CacheConfig { bytes, latency, assoc, mshr_entries, ports } = cache;
            h.write_u64(*bytes);
            h.write_u64(*latency);
            h.write_u64(*assoc as u64);
            h.write_u64(*mshr_entries as u64);
            h.write_u64(u64::from(*ports));
        }
        let DramConfig {
            channels,
            banks_per_channel,
            row_bytes,
            t_rcd,
            t_cl,
            t_rp,
            t_wl,
            t_rtw,
            burst,
        } = dram;
        h.write_u64(*channels as u64);
        h.write_u64(*banks_per_channel as u64);
        h.write_u64(*row_bytes);
        h.write_u64(*t_rcd);
        h.write_u64(*t_cl);
        h.write_u64(*t_rp);
        h.write_u64(*t_wl);
        h.write_u64(*t_rtw);
        h.write_u64(*burst);
        let WalkerConfig { walkers, buffer_entries, pw_cache_entries, pw_cache_ports } = walker;
        h.write_u64(*walkers as u64);
        h.write_u64(*buffer_entries as u64);
        h.write_u64(*pw_cache_entries as u64);
        h.write_u64(u64::from(*pw_cache_ports));
        let UvmConfig {
            gpu_memory_bytes,
            base_page,
            tbn_prefetch,
            promotion,
            fragmentation,
            cross_chunk_contiguity,
            embed_page_info,
            migration_threshold,
            remote_latency,
        } = uvm;
        h.write_u64(*gpu_memory_bytes);
        h.write_u64(base_page.pages());
        h.write_u64(u64::from(*tbn_prefetch));
        h.write_u64(u64::from(*promotion));
        h.write_u64(fragmentation.to_bits());
        h.write_u64(cross_chunk_contiguity.to_bits());
        h.write_u64(u64::from(*embed_page_info));
        h.write_u64(u64::from(*migration_threshold));
        h.write_u64(*remote_latency);
        let SpecConfig {
            mod_entries,
            confidence_threshold,
            decompression_latency,
            seed_entries,
            rapid_latency,
        } = spec;
        h.write_u64(*mod_entries as u64);
        h.write_u64(u64::from(*confidence_threshold));
        h.write_u64(*decompression_latency);
        h.write_u64(*seed_entries as u64);
        h.write_u64(*rapid_latency);
        h.write_u64(match l1_arrangement {
            CacheArrangement::Vipt => 0,
            CacheArrangement::Pipt => 1,
        });
        h.write_u64(*tenants as u64);
        h.write_u64(u64::from(*ideal_tlb));
        h.write_u64(*seed);
        h.finish()
    }

    /// Rejects impossible geometries: zero-sized structures, sector/set
    /// counts that break the power-of-two indexing the caches assume,
    /// more tenants than SMs to partition among them, and out-of-range
    /// probabilities. Called by [`GpuConfigBuilder::build`]; harnesses
    /// that mutate fields directly can call it themselves.
    pub fn validate(&self) -> Result<(), ConfigError> {
        fn fail(msg: String) -> Result<(), ConfigError> {
            Err(ConfigError(msg))
        }
        if self.num_sms == 0 {
            return fail("num_sms must be at least 1".into());
        }
        if self.warps_per_sm == 0 {
            return fail("warps_per_sm must be at least 1".into());
        }
        if self.tenants == 0 || self.tenants > self.num_sms {
            return fail(format!(
                "tenants must be in 1..={} (one SM cannot be shared), got {}",
                self.num_sms, self.tenants
            ));
        }
        for (name, tlb) in [("l1_tlb", &self.l1_tlb), ("l2_tlb", &self.l2_tlb)] {
            if tlb.base_entries == 0 {
                return fail(format!("{name}.base_entries must be at least 1"));
            }
            if tlb.assoc > 0 && tlb.base_entries % tlb.assoc != 0 {
                return fail(format!(
                    "{name}: base_entries {} not divisible by assoc {}",
                    tlb.base_entries, tlb.assoc
                ));
            }
            if tlb.ports == 0 {
                return fail(format!("{name}.ports must be at least 1"));
            }
            if tlb.mshr_entries == 0 {
                return fail(format!("{name}.mshr_entries must be at least 1"));
            }
        }
        for (name, cache) in [("l1_cache", &self.l1_cache), ("l2_cache", &self.l2_cache)] {
            if cache.bytes < crate::addr::LINE_BYTES || cache.bytes % crate::addr::LINE_BYTES != 0
            {
                return fail(format!(
                    "{name}.bytes {} is not a positive multiple of the {}B line",
                    cache.bytes,
                    crate::addr::LINE_BYTES
                ));
            }
            if cache.assoc == 0 {
                return fail(format!("{name}.assoc must be at least 1"));
            }
            if !cache.sets().is_power_of_two() {
                return fail(format!(
                    "{name}: {} sets ({} lines / {}-way) is not a power of two, breaking set indexing",
                    cache.sets(),
                    cache.lines(),
                    cache.assoc
                ));
            }
            if cache.ports == 0 {
                return fail(format!("{name}.ports must be at least 1"));
            }
            if cache.mshr_entries == 0 {
                return fail(format!("{name}.mshr_entries must be at least 1"));
            }
        }
        if self.dram.channels == 0 || self.dram.banks_per_channel == 0 {
            return fail("dram needs at least one channel and one bank per channel".into());
        }
        if !self.dram.row_bytes.is_power_of_two() || self.dram.row_bytes < crate::addr::LINE_BYTES
        {
            return fail(format!(
                "dram.row_bytes {} must be a power of two of at least one {}B line",
                self.dram.row_bytes,
                crate::addr::LINE_BYTES
            ));
        }
        if self.walker.walkers == 0 {
            return fail("walker.walkers must be at least 1".into());
        }
        if self.walker.buffer_entries < self.walker.walkers {
            return fail(format!(
                "walker.buffer_entries {} below walkers {} would starve idle walkers",
                self.walker.buffer_entries, self.walker.walkers
            ));
        }
        if self.walker.pw_cache_entries == 0 || self.walker.pw_cache_ports == 0 {
            return fail("page-walk cache needs at least one entry and one port".into());
        }
        for (name, p) in [
            ("uvm.fragmentation", self.uvm.fragmentation),
            ("uvm.cross_chunk_contiguity", self.uvm.cross_chunk_contiguity),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return fail(format!("{name} must be a probability in [0, 1], got {p}"));
            }
        }
        if self.uvm.migration_threshold == 0 {
            return fail("uvm.migration_threshold must be at least 1 (1 = first touch)".into());
        }
        if self.spec.mod_entries == 0 {
            return fail("spec.mod_entries must be at least 1".into());
        }
        if self.spec.seed_entries == 0 {
            return fail("spec.seed_entries must be at least 1".into());
        }
        if !self.spec.seed_entries.is_power_of_two() {
            return fail(format!(
                "spec.seed_entries must be a power of two (the seed table is hash-masked), \
                 got {}",
                self.spec.seed_entries
            ));
        }
        if self.spec.rapid_latency == 0 {
            return fail("spec.rapid_latency must be at least 1 cycle".into());
        }
        Ok(())
    }
}

/// A rejected [`GpuConfig::validate`] geometry, with the reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid GpuConfig: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Typed builder for [`GpuConfig`] (see [`GpuConfig::builder`]).
///
/// Scalar knobs get direct setters; structured sections are tweaked
/// in place through closures so a caller changes only what it means
/// to change:
///
/// ```
/// use avatar_sim::config::GpuConfig;
/// let cfg = GpuConfig::builder()
///     .num_sms(4)
///     .warps_per_sm(8)
///     .uvm(|u| u.migration_threshold = 8)
///     .build()
///     .expect("valid geometry");
/// assert_eq!(cfg.uvm.migration_threshold, 8);
/// assert!(GpuConfig::builder().num_sms(0).build().is_err());
/// ```
#[derive(Debug, Clone)]
pub struct GpuConfigBuilder {
    cfg: GpuConfig,
}

impl GpuConfigBuilder {
    /// Number of streaming multiprocessors.
    pub fn num_sms(mut self, n: usize) -> Self {
        self.cfg.num_sms = n;
        self
    }

    /// Maximum resident warps per SM.
    pub fn warps_per_sm(mut self, n: usize) -> Self {
        self.cfg.warps_per_sm = n;
        self
    }

    /// Spatially shared tenants (must not exceed `num_sms`).
    pub fn tenants(mut self, n: usize) -> Self {
        self.cfg.tenants = n;
        self
    }

    /// Deterministic seed for allocation randomness.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Ideal-TLB mode (Fig 3 baseline).
    pub fn ideal_tlb(mut self, on: bool) -> Self {
        self.cfg.ideal_tlb = on;
        self
    }

    /// L1 cache arrangement (VIPT default, PIPT for the §III-D study).
    pub fn l1_arrangement(mut self, a: CacheArrangement) -> Self {
        self.cfg.l1_arrangement = a;
        self
    }

    /// Base page size (shorthand for `uvm(|u| u.base_page = ...)`).
    pub fn base_page(mut self, p: BasePage) -> Self {
        self.cfg.uvm.base_page = p;
        self
    }

    /// Tweak the per-SM L1 TLB section.
    pub fn l1_tlb(mut self, f: impl FnOnce(&mut TlbConfig)) -> Self {
        f(&mut self.cfg.l1_tlb);
        self
    }

    /// Tweak the shared L2 TLB section.
    pub fn l2_tlb(mut self, f: impl FnOnce(&mut TlbConfig)) -> Self {
        f(&mut self.cfg.l2_tlb);
        self
    }

    /// Tweak the per-SM L1 data-cache section.
    pub fn l1_cache(mut self, f: impl FnOnce(&mut CacheConfig)) -> Self {
        f(&mut self.cfg.l1_cache);
        self
    }

    /// Tweak the shared L2 cache section.
    pub fn l2_cache(mut self, f: impl FnOnce(&mut CacheConfig)) -> Self {
        f(&mut self.cfg.l2_cache);
        self
    }

    /// Tweak DRAM timing.
    pub fn dram(mut self, f: impl FnOnce(&mut DramConfig)) -> Self {
        f(&mut self.cfg.dram);
        self
    }

    /// Tweak the page-walk system.
    pub fn walker(mut self, f: impl FnOnce(&mut WalkerConfig)) -> Self {
        f(&mut self.cfg.walker);
        self
    }

    /// Tweak UVM behaviour.
    pub fn uvm(mut self, f: impl FnOnce(&mut UvmConfig)) -> Self {
        f(&mut self.cfg.uvm);
        self
    }

    /// Tweak speculation parameters.
    pub fn spec(mut self, f: impl FnOnce(&mut SpecConfig)) -> Self {
        f(&mut self.cfg.spec);
        self
    }

    /// Validate and return the configuration.
    pub fn build(self) -> Result<GpuConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_defaults() {
        let c = GpuConfig::rtx3070();
        assert_eq!(c.num_sms, 46);
        assert_eq!(c.warps_per_sm, 48);
        assert_eq!(c.l1_tlb.base_entries, 32);
        assert_eq!(c.l2_tlb.base_entries, 1024);
        assert_eq!(c.l1_cache.bytes, 128 * 1024);
        assert_eq!(c.l2_cache.bytes, 4 * 1024 * 1024);
        assert_eq!(c.dram.channels, 16);
        assert_eq!(c.walker.walkers, 16);
        assert_eq!(c.spec.mod_entries, 32);
    }

    #[test]
    fn cache_geometry() {
        let c = GpuConfig::default();
        assert_eq!(c.l1_cache.lines(), 1024);
        assert_eq!(c.l1_cache.sets(), 256);
        assert_eq!(c.l2_cache.lines(), 32768);
    }

    #[test]
    fn base_page_sizes() {
        assert_eq!(BasePage::Size4K.pages(), 1);
        assert_eq!(BasePage::Size64K.pages(), 16);
    }

    #[test]
    fn defaults_validate_clean() {
        assert_eq!(GpuConfig::default().validate(), Ok(()));
        let built = GpuConfig::builder().build().expect("Table II defaults are valid");
        assert_eq!(built, GpuConfig::default());
    }

    #[test]
    fn builder_rejects_impossible_geometries() {
        let cases: [(&str, GpuConfigBuilder); 9] = [
            ("zero SMs", GpuConfig::builder().num_sms(0)),
            ("zero warps", GpuConfig::builder().warps_per_sm(0)),
            ("tenants over SMs", GpuConfig::builder().num_sms(4).tenants(5)),
            // 3 sets below: 384 lines / 4-way = 96 sets, not a power of two.
            ("non-pow2 sets", GpuConfig::builder().l1_cache(|c| c.bytes = 48 * 1024)),
            ("walkers over buffer", GpuConfig::builder().walker(|w| w.buffer_entries = 4)),
            ("probability out of range", GpuConfig::builder().uvm(|u| u.fragmentation = 1.5)),
            ("zero migration threshold", GpuConfig::builder().uvm(|u| u.migration_threshold = 0)),
            // The Revelator seed table is hash-masked: size must be 2^k.
            ("non-pow2 seed entries", GpuConfig::builder().spec(|s| s.seed_entries = 48)),
            ("zero rapid latency", GpuConfig::builder().spec(|s| s.rapid_latency = 0)),
        ];
        for (what, builder) in cases {
            assert!(builder.build().is_err(), "validate accepted {what}");
        }
    }

    #[test]
    fn builder_sets_scalars_and_sections() {
        let cfg = GpuConfig::builder()
            .num_sms(8)
            .warps_per_sm(16)
            .tenants(2)
            .seed(99)
            .ideal_tlb(true)
            .l1_arrangement(CacheArrangement::Pipt)
            .base_page(BasePage::Size64K)
            .l2_tlb(|t| t.base_entries = 2048)
            .dram(|d| d.channels = 8)
            .spec(|s| s.mod_entries = 64)
            .build()
            .expect("valid custom geometry");
        assert_eq!(cfg.num_sms, 8);
        assert_eq!(cfg.tenants, 2);
        assert_eq!(cfg.seed, 99);
        assert!(cfg.ideal_tlb);
        assert_eq!(cfg.l1_arrangement, CacheArrangement::Pipt);
        assert_eq!(cfg.uvm.base_page, BasePage::Size64K);
        assert_eq!(cfg.l2_tlb.base_entries, 2048);
        assert_eq!(cfg.dram.channels, 8);
        assert_eq!(cfg.spec.mod_entries, 64);
    }

    #[test]
    fn config_error_displays_reason() {
        let err = GpuConfig::builder().num_sms(0).build().expect_err("zero SMs must fail");
        let text = format!("{err}");
        assert!(text.contains("num_sms"), "unhelpful error: {text}");
    }

    #[test]
    fn key_digest_is_stable_and_field_sensitive() {
        let base = GpuConfig::default();
        assert_eq!(base.key_digest(), base.clone().key_digest());
        // Every class of field flips the digest: scalar, nested-section,
        // enum, float, and bool knobs.
        let variants: [GpuConfig; 6] = [
            GpuConfig { seed: base.seed + 1, ..base.clone() },
            GpuConfig { num_sms: base.num_sms + 1, ..base.clone() },
            GpuConfig { l1_arrangement: CacheArrangement::Pipt, ..base.clone() },
            GpuConfig {
                uvm: UvmConfig { fragmentation: 0.5, ..base.uvm.clone() },
                ..base.clone()
            },
            GpuConfig { ideal_tlb: !base.ideal_tlb, ..base.clone() },
            GpuConfig {
                l2_tlb: TlbConfig { mshr_entries: 64, ..base.l2_tlb.clone() },
                ..base.clone()
            },
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(base.key_digest(), v.key_digest(), "variant {i} digest collided");
        }
    }

    #[test]
    fn unlimited_memory_means_unlimited_frames() {
        let c = GpuConfig::default();
        assert_eq!(c.gpu_frames(), u64::MAX);
        let mut c2 = c.clone();
        c2.uvm.gpu_memory_bytes = 8 << 20;
        assert_eq!(c2.gpu_frames(), 2048);
    }
}
