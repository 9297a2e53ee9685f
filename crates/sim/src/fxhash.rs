//! An FxHash-style hasher for the simulator's hot-path maps.
//!
//! The event loop hits half a dozen `HashMap`s on every simulated memory
//! access (MSHR files, walk bookkeeping, page-table lookups, UVM frame
//! ownership). The standard library's default SipHash is DoS-resistant but
//! costs tens of cycles per lookup; none of these maps are fed untrusted
//! input, so we use the multiply-fold hash popularized by rustc's
//! `FxHasher`: one `u64` multiply + rotate + xor per word of key. Keys here
//! are small integers or tuples of integers, which this hash handles well.
//!
//! No external dependency — the whole hasher is ~40 lines.
//!
//! # Iteration order is checked, not trusted
//!
//! A map's iteration order follows its hashes. No simulated result may
//! depend on it, so checked builds (`invariants` feature) XOR [`SALT`]
//! into every hash: each map then lays out, and iterates, in another
//! order than in the default build, and the default-vs-checked byte-diffs
//! of the figure output (`scripts/ci.sh`) fail on an order leak at any
//! call depth and in any loop form. The method forms (`iter`, `keys`,
//! `drain`, …) are also banned statically by the root `clippy.toml`.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant (from the golden ratio, as used by rustc's Fx).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// XORed into every hash: zero in default builds; all ones in checked
/// builds, which maps a table's bucket `i` to `mask - i`, so iteration
/// runs close to the reverse of the default build's order.
const SALT: u64 = if cfg!(feature = "invariants") { u64::MAX } else { 0 };

/// A fast, non-cryptographic hasher for trusted integer-like keys.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Fold arbitrary bytes one machine word at a time; the tail is
        // padded into a single word. Only hit for `&str`/byte-slice keys,
        // which the simulator does not use on hot paths.
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(c);
            self.add_to_hash(u64::from_le_bytes(word));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash ^ SALT
    }
}

/// `BuildHasher` for [`FxHasher`]; usable anywhere `RandomState` is.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Drop-in `HashMap` with the fast hasher.
///
/// The canonical sanctioned mention of the std collection: every other
/// use in the workspace goes through this alias (enforced by
/// `avatar-lint`'s `default-collections` rule).
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>; // lint:allow(default-collections)

/// Drop-in `HashSet` with the fast hasher (see [`FxHashMap`]).
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>; // lint:allow(default-collections)

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<(u32, u64), Vec<u32>> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert((i, (i as u64) << 20), vec![i]);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u32 {
            assert_eq!(m.get(&(i, (i as u64) << 20)), Some(&vec![i]));
        }
    }

    #[test]
    fn set_roundtrip() {
        let mut s: FxHashSet<u64> = FxHashSet::default();
        for i in 0..1000u64 {
            s.insert(i * 4096);
        }
        assert_eq!(s.len(), 1000);
        assert!(s.contains(&(999 * 4096)));
        assert!(!s.contains(&1));
    }

    #[test]
    fn checked_builds_salt_every_hash() {
        // Zero hashes to zero unsalted; the salt must show in checked
        // builds and nowhere else, or the default-vs-checked byte-diffs
        // stop testing iteration order.
        use std::hash::BuildHasher;
        let h = FxBuildHasher::default().hash_one(0u64);
        if cfg!(feature = "invariants") {
            assert_ne!(h, 0, "checked builds must salt the hasher");
        } else {
            assert_eq!(h, 0, "default builds must not salt the hasher");
        }
    }

    #[test]
    fn byte_slices_hash_consistently() {
        use std::hash::BuildHasher;
        let b = FxBuildHasher::default();
        let hash = |s: &str| b.hash_one(s);
        assert_eq!(hash("hello world"), hash("hello world"));
        assert_ne!(hash("hello world"), hash("hello worle"));
    }

    #[test]
    fn sequential_keys_spread() {
        // The map must not degenerate on the simulator's typical key shape
        // (sequential VPNs): adjacent keys should land in different buckets.
        use std::hash::BuildHasher;
        let b = FxBuildHasher::default();
        let mut low_bits: FxHashSet<u64> = FxHashSet::default();
        for vpn in 0u64..256 {
            low_bits.insert(b.hash_one(vpn) & 0xFF);
        }
        assert!(low_bits.len() > 128, "only {} distinct low bytes", low_bits.len());
    }
}
