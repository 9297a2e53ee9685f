//! Streaming multiprocessors: warp programs, the coalescer, and per-SM
//! occupancy/stall accounting.

use crate::addr::{VirtAddr, SECTOR_BYTES};
use crate::config::Cycle;

/// One warp-level operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WarpOp {
    /// A warp load: per-thread byte addresses (up to 32), coalesced into
    /// sector requests by the load/store unit.
    Load {
        /// Program counter of the load instruction (the MOD tag).
        pc: u64,
        /// Per-thread addresses.
        addrs: Vec<VirtAddr>,
    },
    /// A warp store: write-allocate, write-back; never speculated (GPUs
    /// cannot roll back erroneous writes).
    Store {
        /// Program counter of the store instruction.
        pc: u64,
        /// Per-thread addresses.
        addrs: Vec<VirtAddr>,
    },
    /// Non-memory work: the warp is busy for `cycles` before its next op.
    Compute {
        /// Busy time in cycles.
        cycles: Cycle,
    },
}

/// A supplier of per-warp instruction streams — implemented by the workload
/// generators.
pub trait WarpProgram {
    /// The next operation for warp `warp` of SM `sm`; `None` retires the
    /// warp.
    fn next_op(&mut self, sm: usize, warp: usize) -> Option<WarpOp>;
}

/// Coalesces a warp's per-thread addresses into unique 32B sector requests,
/// preserving first-appearance order (deterministic).
pub fn coalesce(addrs: &[VirtAddr]) -> Vec<VirtAddr> {
    let mut out = Vec::new();
    coalesce_into(addrs, &mut out);
    out
}

/// Coalesces into a caller-owned vector (cleared first), so per-instruction
/// hot loops can reuse one scratch buffer instead of allocating. Keeps the
/// first-appearance order of [`coalesce`].
pub fn coalesce_into(addrs: &[VirtAddr], out: &mut Vec<VirtAddr>) {
    out.clear();
    for a in addrs {
        let sector = VirtAddr(a.0 & !(SECTOR_BYTES - 1));
        if !out.contains(&sector) {
            out.push(sector);
        }
    }
}

/// Execution state of one warp slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarpState {
    /// Ready to issue its next operation.
    Ready,
    /// Waiting on outstanding memory requests.
    WaitingMemory {
        /// Sector requests still in flight.
        outstanding: u32,
    },
    /// Busy computing until the recorded cycle.
    Computing,
    /// Program exhausted.
    Retired,
}

/// Per-SM bookkeeping: warp states and stall-cycle accounting.
///
/// An SM is *stalled* while it has unretired warps but none ready or
/// computing — every live warp is blocked on memory. The paper's Fig 3a
/// "stall cycles waiting for memory" is the sum of these intervals.
#[derive(Debug, Clone)]
pub struct SmState {
    warps: Vec<WarpState>,
    stall_started: Option<Cycle>,
    /// Accumulated stall cycles.
    pub stall_cycles: u64,
    /// Next free issue slot (1 op/cycle issue throughput).
    pub issue_free_at: Cycle,
}

impl SmState {
    /// Creates an SM with `warps` warp slots, all ready.
    pub fn new(warps: usize) -> Self {
        Self {
            warps: vec![WarpState::Ready; warps],
            stall_started: None,
            stall_cycles: 0,
            issue_free_at: 0,
        }
    }

    /// Current state of a warp.
    pub fn warp(&self, w: usize) -> WarpState {
        self.warps[w]
    }

    /// Updates a warp's state and the stall clock.
    pub fn set_warp(&mut self, w: usize, state: WarpState, now: Cycle) {
        self.warps[w] = state;
        self.update_stall(now);
    }

    fn is_stalled(&self) -> bool {
        let mut any_live = false;
        for w in &self.warps {
            match w {
                WarpState::Ready | WarpState::Computing => return false,
                WarpState::WaitingMemory { .. } => any_live = true,
                WarpState::Retired => {}
            }
        }
        any_live
    }

    fn update_stall(&mut self, now: Cycle) {
        let stalled = self.is_stalled();
        match (self.stall_started, stalled) {
            (None, true) => self.stall_started = Some(now),
            (Some(start), false) => {
                self.stall_cycles += now.saturating_sub(start);
                self.stall_started = None;
            }
            _ => {}
        }
    }

    /// Closes any open stall interval at end of simulation.
    pub fn finish(&mut self, now: Cycle) {
        if let Some(start) = self.stall_started.take() {
            self.stall_cycles += now.saturating_sub(start);
        }
    }

    /// Whether every warp has retired.
    pub fn all_retired(&self) -> bool {
        self.warps.iter().all(|w| matches!(w, WarpState::Retired))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesce_merges_same_sector() {
        let addrs: Vec<VirtAddr> = (0..32).map(|i| VirtAddr(i * 4)).collect();
        let sectors = coalesce(&addrs);
        assert_eq!(sectors.len(), 4, "32 consecutive 4B accesses span 4 sectors");
        assert_eq!(sectors[0], VirtAddr(0));
        assert_eq!(sectors[3], VirtAddr(96));
    }

    #[test]
    fn coalesce_strided_accesses_stay_separate() {
        let addrs: Vec<VirtAddr> = (0..8).map(|i| VirtAddr(i * 128)).collect();
        assert_eq!(coalesce(&addrs).len(), 8);
    }

    #[test]
    fn coalesce_preserves_first_appearance_order() {
        let addrs = vec![VirtAddr(100), VirtAddr(0), VirtAddr(101)];
        let sectors = coalesce(&addrs);
        assert_eq!(sectors, vec![VirtAddr(96), VirtAddr(0)]);
    }

    #[test]
    fn stall_accounting_counts_only_fully_blocked_intervals() {
        let mut sm = SmState::new(2);
        sm.set_warp(0, WarpState::WaitingMemory { outstanding: 1 }, 10);
        assert_eq!(sm.stall_cycles, 0);
        // Warp 1 still Ready → not stalled yet.
        sm.set_warp(1, WarpState::WaitingMemory { outstanding: 1 }, 20);
        // Both waiting → stall starts at 20.
        sm.set_warp(0, WarpState::Ready, 50);
        assert_eq!(sm.stall_cycles, 30);
    }

    #[test]
    fn retired_warps_do_not_stall() {
        let mut sm = SmState::new(2);
        sm.set_warp(0, WarpState::Retired, 0);
        sm.set_warp(1, WarpState::Retired, 5);
        sm.finish(100);
        assert_eq!(sm.stall_cycles, 0);
        assert!(sm.all_retired());
    }

    #[test]
    fn finish_closes_open_interval() {
        let mut sm = SmState::new(1);
        sm.set_warp(0, WarpState::WaitingMemory { outstanding: 2 }, 10);
        sm.finish(25);
        assert_eq!(sm.stall_cycles, 15);
    }
}
