//! Workload specifications: the Table III suite and the Fig 23 ML models.

use crate::content::ContentModel;
use crate::trace::TraceProgram;

/// TLB-sensitivity class by L2 TLB misses per million instructions
/// (paper Table III: L < 10, 10 ≤ M < 60, H ≥ 60).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// Low TLB pressure.
    L,
    /// Medium TLB pressure.
    M,
    /// High TLB pressure.
    H,
}

/// Dominant data type of the workload (Table III), which shapes sector
/// contents and hence BPC compressibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Signed integers (graph indices, grid cells).
    Int,
    /// Unsigned integers (histograms, color maps).
    Uint,
    /// Single-precision floats.
    Float,
    /// Double-precision floats.
    Double,
    /// Mixed int + float (SPMV).
    IntFloat,
    /// Mixed int + double (XSBench).
    IntDouble,
    /// Half-precision floats (ML FP16).
    Half,
}

/// Memory access pattern archetype.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pattern {
    /// Dense, tiled array traversal (GEMM-like): few PCs, streaming
    /// sectors, strong chunk locality.
    DenseTiled,
    /// Stencil sweeps (FDTD, pathfinder): rows plus neighbour rows.
    Stencil,
    /// CSR graph traversal: sequential row pointers, irregular edge and
    /// node accesses with memory divergence.
    GraphCsr,
    /// Hash/table lookups (XSBench, histogram): near-random, divergent.
    HashRandom,
    /// Mixed streaming + indexed gather (SPMV, CFD).
    Gather,
}

/// A workload: identity, classification, sizing, and behaviour knobs.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Full benchmark name as in the paper.
    pub name: &'static str,
    /// Paper abbreviation (Fig 15 x-axis).
    pub abbr: &'static str,
    /// TLB-pressure class.
    pub class: Class,
    /// Dominant data type.
    pub data_type: DataType,
    /// Access pattern archetype.
    pub pattern: Pattern,
    /// Working-set size in bytes at scale 1.0, matching the paper's real
    /// footprints per class (L ≈ 14.5MB, M ≈ 80.4MB, H ≈ 701.7MB on
    /// average, XSBench at the 2.24GB maximum). Simulation cost scales
    /// with the number of accesses, not the footprint, so full-size sets
    /// are tractable; `--scale` shrinks them for quick runs.
    pub working_set: u64,
    /// Target fraction of 32B sectors compressible to 22B (paper Fig 10 /
    /// Fig 23a); the content generator is tuned so *measured*
    /// compressibility lands near this.
    pub compressibility: f64,
    /// Loads issued per warp per iteration round (pattern PCs).
    pub loads_per_round: u32,
    /// Iteration rounds per warp at scale 1.0.
    pub rounds: u32,
    /// Compute cycles between successive loads (memory-boundedness knob).
    pub compute_cycles: u32,
    /// Memory divergence: distinct sectors touched per irregular load
    /// (1 = fully coalesced, up to 8).
    pub divergence: u32,
    /// Temporal page reuse: consecutive visits a load instruction makes to
    /// a page before moving on (real kernels consume pages over many
    /// accesses; this sets the trace's intra-page locality).
    pub page_revisits: u32,
    /// Deterministic per-workload seed.
    pub seed: u64,
}

const MB: u64 = 1 << 20;

macro_rules! workload {
    ($name:literal, $abbr:literal, $class:ident, $dt:ident, $pat:ident,
     ws: $ws:expr, comp: $comp:expr, lpr: $lpr:expr, rounds: $rounds:expr,
     cc: $cc:expr, div: $div:expr, seed: $seed:expr) => {
        Workload {
            name: $name,
            abbr: $abbr,
            class: Class::$class,
            data_type: DataType::$dt,
            pattern: Pattern::$pat,
            working_set: $ws,
            compressibility: $comp,
            loads_per_round: $lpr,
            rounds: $rounds,
            compute_cycles: $cc,
            divergence: $div,
            // Class-L kernels (dense BLAS-like) reuse tiles heavily;
            // class-H irregulars consume pages in fewer touches.
            page_revisits: match Class::$class {
                Class::L => 16,
                Class::M => 8,
                Class::H => 4,
            },
            seed: $seed,
        }
    };
}

impl Workload {
    /// The 20-benchmark Table III suite.
    pub fn all() -> Vec<Workload> {
        vec![
            // ---- class L ----
            workload!("fw", "FW", L, Int, DenseTiled, ws: 6 * MB, comp: 0.85,
                lpr: 2, rounds: 8, cc: 40, div: 1, seed: 11),
            workload!("lavaMD", "LMD", L, Double, Stencil, ws: 12 * MB, comp: 0.70,
                lpr: 3, rounds: 6, cc: 60, div: 1, seed: 12),
            workload!("gemm", "GEMM", L, Float, DenseTiled, ws: 20 * MB, comp: 0.75,
                lpr: 3, rounds: 8, cc: 50, div: 1, seed: 13),
            workload!("sgemm", "SGEM", L, Float, DenseTiled, ws: 20 * MB, comp: 0.75,
                lpr: 3, rounds: 8, cc: 50, div: 1, seed: 14),
            // ---- class M ----
            workload!("backprop", "BP", M, Float, Stencil, ws: 64 * MB, comp: 0.70,
                lpr: 3, rounds: 8, cc: 45, div: 2, seed: 21),
            workload!("shoc-MD", "MD", M, Int, GraphCsr, ws: 48 * MB, comp: 0.80,
                lpr: 3, rounds: 7, cc: 45, div: 2, seed: 22),
            workload!("histo", "HIS", M, Uint, HashRandom, ws: 96 * MB, comp: 0.75,
                lpr: 2, rounds: 9, cc: 45, div: 2, seed: 23),
            workload!("pathfinder", "PAF", M, Int, Stencil, ws: 112 * MB, comp: 0.80,
                lpr: 3, rounds: 8, cc: 45, div: 2, seed: 24),
            // ---- class H ----
            workload!("lulesh", "LUL", H, Float, Gather, ws: 512 * MB, comp: 0.60,
                lpr: 4, rounds: 7, cc: 32, div: 3, seed: 31),
            workload!("color_max", "GC", H, Int, GraphCsr, ws: 640 * MB, comp: 0.85,
                lpr: 3, rounds: 8, cc: 30, div: 3, seed: 32),
            workload!("fdtd2d", "FDT", H, Float, Stencil, ws: 384 * MB, comp: 0.65,
                lpr: 4, rounds: 8, cc: 30, div: 2, seed: 33),
            workload!("betweenness", "BET", H, Uint, GraphCsr, ws: 768 * MB, comp: 0.80,
                lpr: 3, rounds: 8, cc: 30, div: 3, seed: 34),
            workload!("conv.Sepa", "CON", H, Float, Stencil, ws: 320 * MB, comp: 0.70,
                lpr: 3, rounds: 8, cc: 30, div: 2, seed: 35),
            workload!("cfd", "CFD", H, Float, Gather, ws: 448 * MB, comp: 0.60,
                lpr: 4, rounds: 7, cc: 32, div: 3, seed: 36),
            workload!("sssp", "SSSP", H, Int, GraphCsr, ws: 896 * MB, comp: 0.85,
                lpr: 3, rounds: 8, cc: 26, div: 3, seed: 37),
            workload!("spmv", "SPMV", H, IntFloat, Gather, ws: 768 * MB, comp: 0.70,
                lpr: 4, rounds: 8, cc: 26, div: 3, seed: 38),
            workload!("connected", "CC", H, Uint, GraphCsr, ws: 832 * MB, comp: 0.85,
                lpr: 3, rounds: 8, cc: 26, div: 3, seed: 39),
            workload!("s.cluster", "SC", H, Float, HashRandom, ws: 1024 * MB, comp: 0.135,
                lpr: 3, rounds: 8, cc: 32, div: 3, seed: 40),
            workload!("kmeans", "KM", H, Float, Gather, ws: 512 * MB, comp: 0.60,
                lpr: 3, rounds: 8, cc: 30, div: 3, seed: 41),
            workload!("XSBench", "XSB", H, IntDouble, HashRandom, ws: 2240 * MB, comp: 0.30,
                lpr: 3, rounds: 8, cc: 30, div: 4, seed: 42),
        ]
    }

    /// The Fig 23 ML workloads: four models in FP16 and FP32.
    ///
    /// Compressibility targets average 28.4% as the paper measures (all-
    /// zero sectors excluded), with FP32 models compressing better than
    /// FP16.
    pub fn ml_suite() -> Vec<Workload> {
        vec![
            workload!("opt-LLM-fp16", "OPT16", M, Half, DenseTiled, ws: 256 * MB, comp: 0.20,
                lpr: 3, rounds: 6, cc: 30, div: 1, seed: 51),
            workload!("opt-LLM-fp32", "OPT32", M, Float, DenseTiled, ws: 512 * MB, comp: 0.45,
                lpr: 3, rounds: 6, cc: 30, div: 1, seed: 52),
            workload!("ResNet50-fp16", "RES16", M, Half, DenseTiled, ws: 96 * MB, comp: 0.18,
                lpr: 3, rounds: 7, cc: 35, div: 1, seed: 53),
            workload!("ResNet50-fp32", "RES32", M, Float, DenseTiled, ws: 192 * MB, comp: 0.40,
                lpr: 3, rounds: 7, cc: 35, div: 1, seed: 54),
            workload!("VGG16-fp16", "VGG16", M, Half, DenseTiled, ws: 128 * MB, comp: 0.20,
                lpr: 3, rounds: 7, cc: 35, div: 1, seed: 55),
            workload!("VGG16-fp32", "VGG32", M, Float, DenseTiled, ws: 256 * MB, comp: 0.42,
                lpr: 3, rounds: 7, cc: 35, div: 1, seed: 56),
            workload!("EfficientNet-fp16", "EFF16", M, Half, DenseTiled, ws: 64 * MB, comp: 0.15,
                lpr: 3, rounds: 7, cc: 35, div: 1, seed: 57),
            workload!("EfficientNet-fp32", "EFF32", M, Float, DenseTiled, ws: 128 * MB, comp: 0.35,
                lpr: 3, rounds: 7, cc: 35, div: 1, seed: 58),
        ]
    }

    /// Finds a workload by its paper abbreviation in either suite.
    pub fn by_abbr(abbr: &str) -> Option<Workload> {
        Self::all().into_iter().chain(Self::ml_suite()).find(|w| w.abbr == abbr)
    }

    /// Working-set size in bytes at the given scale, rounded up to whole
    /// 2MB chunks.
    pub fn scaled_working_set(&self, scale: f64) -> u64 {
        let ws = (self.working_set as f64 * scale) as u64;
        ws.max(2 * MB).next_multiple_of(2 * MB)
    }

    /// Builds the warp program (address stream) for a GPU with `num_sms` ×
    /// `warps_per_sm` warp slots at the given scale.
    pub fn program(&self, num_sms: usize, warps_per_sm: usize, scale: f64) -> TraceProgram {
        TraceProgram::new(self.clone(), num_sms, warps_per_sm, scale)
    }

    /// Builds the data-content / compressibility model.
    pub fn content(&self) -> ContentModel {
        ContentModel::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iii_has_twenty_workloads() {
        let all = Workload::all();
        assert_eq!(all.len(), 20);
        assert_eq!(all.iter().filter(|w| w.class == Class::L).count(), 4);
        assert_eq!(all.iter().filter(|w| w.class == Class::M).count(), 4);
        assert_eq!(all.iter().filter(|w| w.class == Class::H).count(), 12);
    }

    #[test]
    fn ml_suite_has_eight() {
        assert_eq!(Workload::ml_suite().len(), 8);
    }

    #[test]
    fn abbreviations_unique_and_resolvable() {
        let all = Workload::all();
        for w in &all {
            assert_eq!(Workload::by_abbr(w.abbr).unwrap().name, w.name);
        }
        let mut abbrs: Vec<_> = all.iter().map(|w| w.abbr).collect();
        abbrs.sort_unstable();
        abbrs.dedup();
        assert_eq!(abbrs.len(), 20);
    }

    #[test]
    fn class_working_sets_ordered() {
        let all = Workload::all();
        let avg = |c: Class| {
            let v: Vec<_> = all.iter().filter(|w| w.class == c).map(|w| w.working_set).collect();
            v.iter().sum::<u64>() / v.len() as u64
        };
        assert!(avg(Class::L) < avg(Class::M));
        assert!(avg(Class::M) < avg(Class::H));
    }

    #[test]
    fn average_compressibility_near_paper() {
        let all = Workload::all();
        let avg: f64 = all.iter().map(|w| w.compressibility).sum::<f64>() / all.len() as f64;
        assert!((avg - 0.675).abs() < 0.05, "paper reports 67.5%, spec avg {avg}");
        let ml = Workload::ml_suite();
        let ml_avg: f64 = ml.iter().map(|w| w.compressibility).sum::<f64>() / ml.len() as f64;
        assert!((ml_avg - 0.284).abs() < 0.05, "paper reports 28.4%, got {ml_avg}");
    }

    #[test]
    fn scaled_working_set_is_chunk_aligned_mb() {
        let w = Workload::by_abbr("SSSP").unwrap();
        let ws = w.scaled_working_set(0.25);
        assert_eq!(ws % MB, 0);
        assert!(ws >= MB);
    }

    #[test]
    fn sc_is_the_low_compressibility_outlier() {
        let sc = Workload::by_abbr("SC").unwrap();
        assert!((sc.compressibility - 0.135).abs() < 1e-9);
    }
}
