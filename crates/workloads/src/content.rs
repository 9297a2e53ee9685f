//! Deterministic sector-content synthesis and the compressibility model.
//!
//! Every 32-byte sector of a workload's virtual address space has
//! deterministic contents derived from (workload seed, sector index). Each
//! sector is either *structured* — carrying the workload's dominant data
//! type with the value correlation GPU data exhibits (delta-correlated
//! indices, shared-exponent floats…) — or *high-entropy*. The structured
//! fraction is tuned per workload to the compressibility the paper
//! measures with NVBit dumps (Fig 10, Fig 23a); the actual decision of
//! whether a sector fits the 22-byte CAVA budget is always made by running
//! the real BPC codec from `avatar-bpc` over the synthesized bytes.

use crate::spec::{DataType, Workload};
use avatar_bpc::embed::PAYLOAD_BITS;
use avatar_bpc::Codec;
use avatar_sim::addr::{Vpn, SECTORS_PER_PAGE};
use avatar_sim::fxhash::FxHashMap;
use avatar_sim::hooks::SectorCompression;

/// SplitMix64: a deterministic hash for per-sector decisions.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Synthesizes the 32 bytes stored at `sector_id` (global sector index,
/// i.e. virtual address / 32) for a workload.
pub fn sector_bytes(w: &Workload, sector_id: u64) -> [u8; 32] {
    let h = mix(w.seed ^ sector_id.wrapping_mul(0xA24B_AED4_963E_E407));
    if unit(h) < w.compressibility {
        structured_sector(w.data_type, mix(h ^ 0x5EED), sector_id)
    } else {
        noise_sector(mix(h ^ 0xBAD5_EC70))
    }
}

fn structured_sector(dt: DataType, h: u64, sector_id: u64) -> [u8; 32] {
    let mut words = [0u32; 8];
    match dt {
        DataType::Int | DataType::Uint => {
            // Delta-correlated indices: a base id with small strides, the
            // classic CSR / grid-index pattern.
            let mut v = (h & 0xF_FFFF) as u32;
            for (i, w) in words.iter_mut().enumerate() {
                *w = v;
                v = v.wrapping_add(((h >> (i * 4)) & 0x7) as u32 + 1);
            }
        }
        DataType::Float => {
            // Shared exponent, slowly varying mantissa (dense numeric
            // arrays of similar magnitude).
            let exp = 0x3F00_0000 | (((h >> 8) & 0x7F) as u32) << 16;
            for (i, w) in words.iter_mut().enumerate() {
                let mantissa = ((h >> (i * 6)) & 0x3F) as u32;
                *w = exp | mantissa;
            }
        }
        DataType::Half => {
            // Two FP16 values per word, shared exponents.
            let half = 0x3C00 | ((h >> 4) & 0x3F) as u32;
            for (i, w) in words.iter_mut().enumerate() {
                let lo = half + ((h >> (i * 3)) & 0x7) as u32;
                let hi = half + ((h >> (i * 3 + 12)) & 0x7) as u32;
                *w = (hi << 16) | lo;
            }
        }
        DataType::Double => {
            // Four doubles: constant exponent words, low words varying in
            // the bottom bits only.
            let hi = 0x3FF0_0000 | ((h >> 40) & 0xFF) as u32;
            for i in 0..4 {
                words[2 * i] = ((h >> (i * 4)) & 0xF) as u32;
                words[2 * i + 1] = hi;
            }
        }
        DataType::IntFloat => {
            return structured_sector(
                if sector_id.is_multiple_of(2) { DataType::Int } else { DataType::Float },
                h,
                sector_id,
            );
        }
        DataType::IntDouble => {
            return structured_sector(
                if sector_id.is_multiple_of(2) { DataType::Int } else { DataType::Double },
                h,
                sector_id,
            );
        }
    }
    to_bytes(words)
}

fn noise_sector(mut h: u64) -> [u8; 32] {
    let mut out = [0u8; 32];
    for chunk in out.chunks_exact_mut(8) {
        h ^= h << 13;
        h ^= h >> 7;
        h ^= h << 17;
        chunk.copy_from_slice(&h.to_le_bytes());
    }
    out
}

fn to_bytes(words: [u32; 8]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (i, w) in words.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&w.to_le_bytes());
    }
    out
}

/// The compressibility model plugged into the simulator: synthesizes
/// sector bytes and runs the real BPC codec, memoizing per sector.
#[derive(Debug)]
pub struct ContentModel {
    workload: Workload,
    codec: Codec,
    memo: FxHashMap<u64, bool>,
    /// Sectors evaluated (model statistic).
    pub evaluated: u64,
    /// Sectors that fit the 22-byte budget (model statistic).
    pub fit: u64,
}

impl ContentModel {
    /// Creates the model for a workload with the paper's codec (BPC).
    pub fn new(workload: Workload) -> Self {
        Self::with_codec(workload, Codec::Bpc)
    }

    /// Creates the model with an explicit compression codec (for the
    /// codec-choice ablation).
    pub fn with_codec(workload: Workload, codec: Codec) -> Self {
        Self { workload, codec, memo: FxHashMap::default(), evaluated: 0, fit: 0 }
    }

    /// The bytes stored at a global sector index.
    pub fn bytes(&self, sector_id: u64) -> [u8; 32] {
        sector_bytes(&self.workload, sector_id)
    }

    /// Exact compressed size in bits for a sector under the model's codec
    /// (uncached; used by the Fig 10 harness).
    pub fn compressed_bits(&self, sector_id: u64) -> usize {
        self.codec.compressed_bits(&self.bytes(sector_id))
    }
}

impl SectorCompression for ContentModel {
    fn compressible(&mut self, vpn: Vpn, sector_in_page: u32) -> bool {
        let sector_id = vpn.0 * SECTORS_PER_PAGE + u64::from(sector_in_page);
        if let Some(&hit) = self.memo.get(&sector_id) {
            return hit;
        }
        // Early-exit budget check: same verdict as sizing fully, but
        // incompressible sectors stop scanning once the budget is blown.
        let fits = self.codec.fits_within(&sector_bytes(&self.workload, sector_id), PAYLOAD_BITS);
        self.memo.insert(sector_id, fits);
        self.evaluated += 1;
        if fits {
            self.fit += 1;
        }
        fits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Workload;

    fn measured_fraction(w: &Workload, samples: u64) -> f64 {
        let mut model = ContentModel::new(w.clone());
        let hits = (0..samples)
            .filter(|&i| model.compressible(Vpn(i / 128), (i % 128) as u32))
            .count();
        hits as f64 / samples as f64
    }

    #[test]
    fn measured_compressibility_tracks_targets() {
        for w in Workload::all() {
            let frac = measured_fraction(&w, 4000);
            assert!(
                (frac - w.compressibility).abs() < 0.06,
                "{}: target {} measured {}",
                w.abbr,
                w.compressibility,
                frac
            );
        }
    }

    #[test]
    fn ml_compressibility_tracks_targets() {
        for w in Workload::ml_suite() {
            let frac = measured_fraction(&w, 4000);
            assert!(
                (frac - w.compressibility).abs() < 0.06,
                "{}: target {} measured {}",
                w.abbr,
                w.compressibility,
                frac
            );
        }
    }

    #[test]
    fn contents_are_deterministic() {
        let w = Workload::by_abbr("GEMM").unwrap();
        assert_eq!(sector_bytes(&w, 12345), sector_bytes(&w, 12345));
        assert_ne!(sector_bytes(&w, 12345), sector_bytes(&w, 12346));
    }

    #[test]
    fn different_workloads_different_contents() {
        let a = Workload::by_abbr("GEMM").unwrap();
        let b = Workload::by_abbr("SSSP").unwrap();
        assert_ne!(sector_bytes(&a, 7), sector_bytes(&b, 7));
    }

    #[test]
    fn structured_sectors_roundtrip_through_bpc() {
        let w = Workload::by_abbr("FW").unwrap();
        for id in 0..200 {
            let bytes = sector_bytes(&w, id);
            let c = avatar_bpc::compress(&bytes);
            assert_eq!(avatar_bpc::decompress(&c), bytes);
        }
    }

    #[test]
    fn codecs_disagree_on_marginal_sectors() {
        // The three codecs must each produce sane fractions; BPC (the
        // paper's pick) should be at least as strong as FPC/BDI on the
        // delta-correlated structured data it was designed for.
        let w = Workload::by_abbr("GC").unwrap();
        let frac = |codec: Codec| {
            let mut m = ContentModel::with_codec(w.clone(), codec);
            let hits =
                (0..2000).filter(|&i| m.compressible(Vpn(i / 128), (i % 128) as u32)).count();
            hits as f64 / 2000.0
        };
        let bpc = frac(Codec::Bpc);
        let fpc = frac(Codec::Fpc);
        let bdi = frac(Codec::Bdi);
        assert!((0.0..=1.0).contains(&fpc) && (0.0..=1.0).contains(&bdi));
        assert!(bpc >= fpc - 0.05, "BPC {bpc} vs FPC {fpc}");
        assert!(bpc >= bdi - 0.05, "BPC {bpc} vs BDI {bdi}");
    }

    #[test]
    fn memoization_is_consistent() {
        let w = Workload::by_abbr("XSB").unwrap();
        let mut m = ContentModel::new(w);
        let first = m.compressible(Vpn(10), 5);
        let again = m.compressible(Vpn(10), 5);
        assert_eq!(first, again);
        assert_eq!(m.evaluated, 1, "second query served from the memo");
    }

    #[test]
    fn compression_ratio_varies_by_type() {
        // Structured int sectors compress much harder than fp16 noise-ish
        // patterns on average; sanity check the generator produces typed
        // structure at all.
        let ints = Workload::by_abbr("GC").unwrap();
        let model = ContentModel::new(ints);
        let avg_bits: usize =
            (0..100).map(|i| model.compressed_bits(i)).sum::<usize>() / 100;
        assert!(avg_bits < 256, "structured data must compress on average");
    }
}
