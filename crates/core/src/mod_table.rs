//! The Mapping Offset Detection table (MOD) — CAST's predictor.
//!
//! MOD dynamically identifies contiguous virtual→physical regions per load
//! instruction (paper §III-A). Each entry is tagged by the load's PC and
//! holds a 2-bit saturating confidence counter plus the V2P offset
//! (PPN − VPN) last observed for that instruction:
//!
//! * observing the same offset again increments the counter by 1;
//! * a different offset decrements it by **2** (to catch mapping changes
//!   quickly) and only replaces the stored offset once the counter has
//!   reached zero, re-initializing the counter to 1;
//! * prediction is allowed once the counter reaches the confidence
//!   threshold (2 in the paper's configuration).
//!
//! The table is fully associative with LRU replacement; 32 entries suffice
//! because GPU kernels have few distinct load PCs.

/// Maximum value of the 2-bit saturating state counter.
pub const STATE_MAX: u8 = 3;

#[derive(Debug, Clone)]
struct ModEntry {
    pc: u64,
    state: u8,
    offset: i64,
    last_use: u64,
}

/// A Mapping Offset Detection table.
#[derive(Debug, Clone)]
pub struct ModTable {
    entries: Vec<ModEntry>,
    capacity: usize,
    threshold: u8,
    stamp: u64,
}

impl ModTable {
    /// Creates a table with `capacity` entries and the given confidence
    /// `threshold` (the paper uses 32 entries, threshold 2).
    pub fn new(capacity: usize, threshold: u8) -> Self {
        Self {
            entries: Vec::new(),
            capacity: capacity.max(1),
            threshold: threshold.min(STATE_MAX),
            stamp: 0,
        }
    }

    fn touch(&mut self) -> u64 {
        self.stamp += 1;
        self.stamp
    }

    /// Predicts the V2P offset for a load PC, if confidence suffices.
    pub fn predict(&mut self, pc: u64) -> Option<i64> {
        let stamp = self.touch();
        let threshold = self.threshold;
        let e = self.entries.iter_mut().find(|e| e.pc == pc)?;
        e.last_use = stamp;
        (e.state >= threshold).then_some(e.offset)
    }

    /// Trains the table with an observed translation for a load PC.
    ///
    /// `offset` is `ppn as i64 - vpn as i64`.
    pub fn train(&mut self, pc: u64, offset: i64) {
        let stamp = self.touch();
        if let Some(e) = self.entries.iter_mut().find(|e| e.pc == pc) {
            e.last_use = stamp;
            if e.offset == offset {
                e.state = (e.state + 1).min(STATE_MAX);
            } else if e.state == 0 {
                e.offset = offset;
                e.state = 1;
            } else {
                e.state = e.state.saturating_sub(2);
            }
            return;
        }
        if self.entries.len() >= self.capacity {
            let victim = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(i, _)| i)
                .expect("a full table holds a victim: capacity is at least 1");
            self.entries.swap_remove(victim);
        }
        self.entries.push(ModEntry { pc, state: 1, offset, last_use: stamp });
    }

    /// Current confidence for a PC (tests/introspection).
    pub fn confidence(&self, pc: u64) -> Option<u8> {
        self.entries.iter().find(|e| e.pc == pc).map(|e| e.state)
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_prediction_until_threshold() {
        let mut m = ModTable::new(32, 2);
        m.train(0x100, 50);
        assert_eq!(m.confidence(0x100), Some(1));
        assert_eq!(m.predict(0x100), None, "state 1 < threshold 2");
        m.train(0x100, 50);
        assert_eq!(m.confidence(0x100), Some(2));
        assert_eq!(m.predict(0x100), Some(50));
    }

    #[test]
    fn counter_saturates_at_three() {
        let mut m = ModTable::new(32, 2);
        for _ in 0..10 {
            m.train(0x1, 7);
        }
        assert_eq!(m.confidence(0x1), Some(STATE_MAX));
    }

    #[test]
    fn mismatch_decrements_by_two() {
        let mut m = ModTable::new(32, 2);
        for _ in 0..3 {
            m.train(0x1, 7); // state 3
        }
        m.train(0x1, 99); // state 1, offset keeps 7
        assert_eq!(m.confidence(0x1), Some(1));
        assert_eq!(m.predict(0x1), None);
        m.train(0x1, 99); // state 0 after another -2 (saturating)
        assert_eq!(m.confidence(0x1), Some(0));
        // Now a mismatch replaces the offset and re-initializes to 1.
        m.train(0x1, 99);
        assert_eq!(m.confidence(0x1), Some(1));
        m.train(0x1, 99);
        assert_eq!(m.predict(0x1), Some(99));
    }

    #[test]
    fn offset_only_replaced_at_zero() {
        let mut m = ModTable::new(32, 2);
        m.train(0x1, 7);
        m.train(0x1, 7); // state 2, offset 7
        m.train(0x1, 99); // state 0, offset still 7
        assert_eq!(m.confidence(0x1), Some(0));
        m.train(0x1, 7); // offset matches stored one again? No: state 0 + match → increments
        assert_eq!(m.confidence(0x1), Some(1));
        assert_eq!(m.predict(0x1), None);
    }

    #[test]
    fn lru_replacement() {
        let mut m = ModTable::new(2, 2);
        m.train(0xA, 1);
        m.train(0xB, 2);
        m.predict(0xA); // touch A
        m.train(0xC, 3); // evicts B
        assert!(m.confidence(0xA).is_some());
        assert!(m.confidence(0xB).is_none());
        assert!(m.confidence(0xC).is_some());
    }

    #[test]
    fn negative_offsets_supported() {
        let mut m = ModTable::new(4, 2);
        m.train(0x1, -500);
        m.train(0x1, -500);
        assert_eq!(m.predict(0x1), Some(-500));
    }

    #[test]
    fn new_entry_starts_at_one() {
        let mut m = ModTable::new(4, 2);
        m.train(0x9, 42);
        assert_eq!(m.confidence(0x9), Some(1));
        assert_eq!(m.len(), 1);
        assert!(!m.is_empty());
    }
}
