//! Bit-Plane Compression (BPC) and compression metadata for GPU cache sectors.
//!
//! This crate implements the compression substrate that the Avatar framework
//! (MICRO 2024) builds its *In-Cache Validation* (CAVA) mechanism on:
//!
//! * [`bpc`] — the Bit-Plane Compression algorithm of Kim et al. (ISCA 2016),
//!   operating on 32-byte sectors viewed as eight 32-bit words: delta
//!   transform, bit-plane transpose (DBP), adjacent-plane XOR (DBX), and the
//!   published pattern encodings. Compression is exact: a bit-accurate
//!   decompressor restores the original sector.
//! * [`attache`] — the Attaché-style (MICRO 2018) metadata-free marking
//!   scheme: a 15-bit Compression ID (CID) in each stored sector's signature
//!   identifies compressed sectors, with an Exclusive ID (XID) escape for raw
//!   sectors that collide with the CID.
//! * [`embed`] — the CAVA sector layout: a sector compressed to at most 22
//!   bytes is stored together with 8 bytes of page information (VPN,
//!   permissions, ASID) and the 2-byte signature, all within the original 32
//!   bytes.
//!
//! # Example
//!
//! ```
//! use avatar_bpc::{bpc, embed::{self, PageInfo, Permissions}};
//!
//! // A highly regular sector (a ramp of small ints) compresses far below
//! // the 22-byte CAVA budget.
//! let mut sector = [0u8; 32];
//! for (i, w) in sector.chunks_exact_mut(4).enumerate() {
//!     w.copy_from_slice(&(i as u32 * 3).to_le_bytes());
//! }
//! let compressed = bpc::compress(&sector);
//! assert!(compressed.size_bits() <= embed::PAYLOAD_BITS);
//! assert_eq!(bpc::decompress(&compressed), sector);
//!
//! // Embed page information for rapid validation.
//! let info = PageInfo::new(0x1_2345, Permissions::READ_WRITE, 7);
//! let stored = embed::embed_sector(&sector, info);
//! let view = embed::inspect(stored.bytes()).expect("sector is marked compressed");
//! assert_eq!(view.page_info, info);
//! assert_eq!(view.data, sector);
//! ```

#![forbid(unsafe_code)]

pub mod attache;
pub mod bdi;
mod bitstream;
pub mod bpc;
pub mod embed;
pub mod fpc;

/// A sector-compression algorithm choice for the CAVA codec ablation.
///
/// The paper adopts BPC; FPC and BDI are the commonly compared
/// alternatives from the cache-compression literature it cites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Codec {
    /// Bit-Plane Compression (the paper's choice).
    #[default]
    Bpc,
    /// Frequent Pattern Compression.
    Fpc,
    /// Base-Delta-Immediate.
    Bdi,
}

impl Codec {
    /// Compressed size of a sector in bits under this codec.
    pub fn compressed_bits(self, sector: &[u8; 32]) -> usize {
        match self {
            Codec::Bpc => bpc::compressed_size_bits(sector),
            Codec::Fpc => fpc::compress(sector).1,
            Codec::Bdi => bdi::compressed_bits(sector),
        }
    }

    /// Whether the sector compresses to at most `budget_bits` under this
    /// codec. The BPC path answers with an early-exit plane scan that
    /// stops as soon as the budget is blown (see [`bpc::fits_within`]);
    /// the verdict is exactly `compressed_bits(sector) <= budget_bits`.
    pub fn fits_within(self, sector: &[u8; 32], budget_bits: usize) -> bool {
        match self {
            Codec::Bpc => bpc::fits_within(sector, budget_bits),
            Codec::Fpc | Codec::Bdi => self.compressed_bits(sector) <= budget_bits,
        }
    }

    /// Whether the sector fits the 22-byte CAVA payload budget.
    pub fn fits_cava(self, sector: &[u8; 32]) -> bool {
        self.fits_within(sector, embed::PAYLOAD_BITS)
    }

    /// All codecs, paper's choice first.
    pub const ALL: [Codec; 3] = [Codec::Bpc, Codec::Fpc, Codec::Bdi];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Codec::Bpc => "BPC",
            Codec::Fpc => "FPC",
            Codec::Bdi => "BDI",
        }
    }
}

pub use attache::{classify, SectorClass, CID, XID};
pub use bitstream::{BitReader, BitWriter};
pub use bpc::{compress, decompress, CompressedSector, SECTOR_BYTES};
pub use embed::{embed_sector, inspect, EmbeddedSector, PageInfo, Permissions};
