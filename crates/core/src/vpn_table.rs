//! VPN-T: the VPN-based contiguity tracking alternative to MOD
//! (paper §IV-C2, Fig 22).
//!
//! Instead of tagging by load PC, VPN-T tracks one V2P offset per 2MB
//! virtual region. It speculates *directly* — the first resolved
//! translation in a region enables predictions for every other page of
//! that region, with no confidence build-up — giving higher coverage when
//! the table is large enough, at the cost of being tied to the paging
//! scheme's contiguity granularity.

use avatar_sim::addr::Vpn;

#[derive(Debug, Clone)]
struct VpnEntry {
    vchunk: u64,
    offset: i64,
    last_use: u64,
}

/// A VPN-based contiguity tracking table.
#[derive(Debug, Clone)]
pub struct VpnTable {
    entries: Vec<VpnEntry>,
    capacity: usize,
    stamp: u64,
}

impl VpnTable {
    /// Creates a table with `capacity` entries (the paper compares a
    /// 32-entry VPN-T against the 32-entry MOD).
    pub fn new(capacity: usize) -> Self {
        Self { entries: Vec::new(), capacity: capacity.max(1), stamp: 0 }
    }

    fn touch(&mut self) -> u64 {
        self.stamp += 1;
        self.stamp
    }

    /// Predicts the V2P offset for a page, if its region is tracked.
    pub fn predict(&mut self, vpn: Vpn) -> Option<i64> {
        let stamp = self.touch();
        let vchunk = vpn.chunk();
        let e = self.entries.iter_mut().find(|e| e.vchunk == vchunk)?;
        e.last_use = stamp;
        Some(e.offset)
    }

    /// Trains with a resolved translation (direct: no confidence).
    pub fn train(&mut self, vpn: Vpn, offset: i64) {
        let stamp = self.touch();
        let vchunk = vpn.chunk();
        if let Some(e) = self.entries.iter_mut().find(|e| e.vchunk == vchunk) {
            e.offset = offset;
            e.last_use = stamp;
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
        self.entries.push(VpnEntry { vchunk, offset, last_use: stamp });
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
    use avatar_sim::addr::PAGES_PER_CHUNK;

    #[test]
    fn direct_speculation_after_one_observation() {
        let mut t = VpnTable::new(32);
        t.train(Vpn(5), 1000);
        // Any other page of the same chunk predicts immediately.
        assert_eq!(t.predict(Vpn(6)), Some(1000));
        assert_eq!(t.predict(Vpn(PAGES_PER_CHUNK - 1)), Some(1000));
        assert_eq!(t.predict(Vpn(PAGES_PER_CHUNK)), None, "next chunk untracked");
    }

    #[test]
    fn retrain_updates_offset() {
        let mut t = VpnTable::new(32);
        t.train(Vpn(0), 10);
        t.train(Vpn(1), 20);
        assert_eq!(t.predict(Vpn(2)), Some(20));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn lru_replacement() {
        let mut t = VpnTable::new(2);
        t.train(Vpn(0), 1);
        t.train(Vpn(PAGES_PER_CHUNK), 2);
        t.predict(Vpn(0));
        t.train(Vpn(2 * PAGES_PER_CHUNK), 3);
        assert!(t.predict(Vpn(0)).is_some());
        assert!(t.predict(Vpn(PAGES_PER_CHUNK)).is_none());
    }

    #[test]
    fn empty_table_never_predicts() {
        let mut t = VpnTable::new(4);
        assert!(t.is_empty());
        assert_eq!(t.predict(Vpn(1)), None);
    }
}
