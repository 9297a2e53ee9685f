//! GDDR6 DRAM timing model: channels, banks, row buffers, bus occupancy.
//!
//! The model is command-level: each 32-byte sector access is mapped to a
//! (channel, bank, row) by physical address, pays activation (tRCD) on a
//! row-buffer miss plus precharge (tRP) if another row is open, the column
//! latency (tCL or tWL), and occupies the channel data bus for one burst.
//! Read→write turnaround (tRTW) is charged on direction changes.
//! Requests are serviced in arrival order per channel (FCFS), which is
//! sufficient to reproduce queueing under the speculative-fetch traffic
//! the paper studies.

use crate::addr::PhysAddr;
use crate::config::{Cycle, DramConfig};

/// Direction of a DRAM access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DramOp {
    /// Data read (fills, page-walk PTE fetches).
    Read,
    /// Data write (migrations, writebacks, zeroing).
    Write,
}

#[derive(Debug, Clone)]
struct Bank {
    open_row: Option<u64>,
    ready_at: Cycle,
}

#[derive(Debug, Clone)]
struct Channel {
    banks: Vec<Bank>,
    bus_free_at: Cycle,
    last_op: DramOp,
}

/// The DRAM device model.
#[derive(Debug, Clone)]
pub struct Dram {
    cfg: DramConfig,
    channels: Vec<Channel>,
    /// Row-buffer hit/miss counters (for stats).
    pub row_hits: u64,
    /// Row-buffer misses (activations).
    pub row_misses: u64,
    /// Bytes read.
    pub read_bytes: u64,
    /// Bytes written.
    pub write_bytes: u64,
    /// Log2-bucketed service latency (issue to data return) of every
    /// timed access. Probe-fed: merged into
    /// `Stats::dram_service_hist` at end of run (`probes` feature).
    #[cfg(feature = "probes")]
    pub service_hist: crate::stats::Histogram,
}

impl Dram {
    /// Creates the device from timing configuration.
    pub fn new(cfg: DramConfig) -> Self {
        let channels = (0..cfg.channels)
            .map(|_| Channel {
                banks: (0..cfg.banks_per_channel).map(|_| Bank { open_row: None, ready_at: 0 }).collect(),
                bus_free_at: 0,
                last_op: DramOp::Read,
            })
            .collect();
        Self {
            cfg,
            channels,
            row_hits: 0,
            row_misses: 0,
            read_bytes: 0,
            write_bytes: 0,
            #[cfg(feature = "probes")]
            service_hist: crate::stats::Histogram::default(),
        }
    }

    /// Maps a physical address to (channel, bank, row).
    ///
    /// Channel interleaving is at 128B-line granularity with the address
    /// swizzle (XOR-folding of higher address bits) GPUs use so that
    /// power-of-two strides — page-strided sweeps in particular — still
    /// spread across all channels instead of hammering one.
    pub fn map(&self, pa: PhysAddr) -> (usize, usize, u64) {
        let line = pa.0 / crate::addr::LINE_BYTES;
        let swizzled = line ^ (line >> 5) ^ (line >> 10) ^ (line >> 17);
        let ch = (swizzled % self.cfg.channels as u64) as usize;
        let above = line / self.cfg.channels as u64;
        let bank = ((above ^ (above >> 7)) % self.cfg.banks_per_channel as u64) as usize;
        let lines_per_row = self.cfg.row_bytes / crate::addr::LINE_BYTES;
        let row = above / self.cfg.banks_per_channel as u64 / lines_per_row;
        (ch, bank, row)
    }

    /// Issues a sector access at `now`; returns the cycle its data is
    /// available on the channel (read) or accepted (write).
    pub fn access(&mut self, pa: PhysAddr, op: DramOp, now: Cycle, bytes: u64) -> Cycle {
        let (ch_idx, bank_idx, row) = self.map(pa);
        let cfg = &self.cfg;
        let ch = &mut self.channels[ch_idx];
        let bank = &mut ch.banks[bank_idx];

        let mut t = now.max(bank.ready_at);
        match bank.open_row {
            Some(open) if open == row => {
                self.row_hits += 1;
            }
            Some(_) => {
                self.row_misses += 1;
                t += cfg.t_rp + cfg.t_rcd;
            }
            None => {
                self.row_misses += 1;
                t += cfg.t_rcd;
            }
        }
        bank.open_row = Some(row);

        // Column access latency, then the burst on the shared data bus.
        let col_lat = match op {
            DramOp::Read => cfg.t_cl,
            DramOp::Write => cfg.t_wl,
        };
        let mut bus_start = (t + col_lat).max(ch.bus_free_at);
        if ch.last_op != op {
            bus_start += cfg.t_rtw;
        }
        ch.last_op = op;
        let bursts = bytes.div_ceil(crate::addr::SECTOR_BYTES);
        let done = bus_start + cfg.burst * bursts;
        ch.bus_free_at = done;
        bank.ready_at = done;

        match op {
            DramOp::Read => self.read_bytes += bytes,
            DramOp::Write => self.write_bytes += bytes,
        }
        #[cfg(feature = "probes")]
        self.service_hist.add(done - now);
        done
    }

    /// Accounts traffic that bypasses timing (e.g. page migration writes
    /// when fault latency is excluded from timing but traffic still counts).
    pub fn account_untimed(&mut self, op: DramOp, bytes: u64) {
        match op {
            DramOp::Read => self.read_bytes += bytes,
            DramOp::Write => self.write_bytes += bytes,
        }
    }

    /// Total bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }

    /// The furthest-future cycle at which any channel bus frees (debug
    /// visibility into queue horizons).
    pub fn max_bus_horizon(&self) -> Cycle {
        self.channels.iter().map(|c| c.bus_free_at).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;

    fn dram() -> Dram {
        Dram::new(GpuConfig::default().dram)
    }

    #[test]
    fn mapping_stripes_lines_across_channels() {
        let d = dram();
        let (c0, _, _) = d.map(PhysAddr(0));
        let (c1, _, _) = d.map(PhysAddr(128));
        let (c2, _, _) = d.map(PhysAddr(256));
        assert_eq!(c0, 0);
        assert_eq!(c1, 1);
        assert_eq!(c2, 2);
    }

    #[test]
    fn first_access_pays_activation() {
        let mut d = dram();
        let done = d.access(PhysAddr(0), DramOp::Read, 0, 32);
        let cfg = GpuConfig::default().dram;
        assert_eq!(done, cfg.t_rcd + cfg.t_cl + cfg.burst);
        assert_eq!(d.row_misses, 1);
    }

    #[test]
    fn row_hit_is_cheaper_than_miss() {
        let mut d = dram();
        let a = PhysAddr(0);
        let first = d.access(a, DramOp::Read, 0, 32);
        // Same row, immediately after: only CL + burst beyond readiness.
        let second = d.access(PhysAddr(32), DramOp::Read, first, 32);
        assert_eq!(d.row_hits, 1);
        // A different row in the same bank forces precharge + activate.
        let channels = GpuConfig::default().dram.channels as u64;
        let banks = GpuConfig::default().dram.banks_per_channel as u64;
        let row_bytes = GpuConfig::default().dram.row_bytes;
        let far = PhysAddr(row_bytes * channels * banks);
        let third = d.access(far, DramOp::Read, second, 32);
        assert!(third - second > second - first);
        assert_eq!(d.row_misses, 2);
    }

    #[test]
    fn bus_serializes_same_channel() {
        let mut d = dram();
        let cfg = GpuConfig::default().dram;
        let stride = 128 * cfg.channels as u64; // same channel, next banks
        let t1 = d.access(PhysAddr(0), DramOp::Read, 0, 32);
        let t2 = d.access(PhysAddr(stride), DramOp::Read, 0, 32);
        assert!(t2 > t1, "second access must queue behind the bus");
    }

    #[test]
    fn different_channels_proceed_in_parallel() {
        let mut d = dram();
        let t1 = d.access(PhysAddr(0), DramOp::Read, 0, 32);
        let t2 = d.access(PhysAddr(128), DramOp::Read, 0, 32);
        assert_eq!(t1, t2, "independent channels see identical timing");
    }

    #[test]
    fn rw_turnaround_charged() {
        let mut d = dram();
        let t1 = d.access(PhysAddr(0), DramOp::Read, 0, 32);
        let before = d.channels[0].bus_free_at;
        let t2 = d.access(PhysAddr(32), DramOp::Write, t1, 32);
        assert!(t2 >= before + GpuConfig::default().dram.t_rtw);
    }

    #[test]
    fn traffic_accounting() {
        let mut d = dram();
        d.access(PhysAddr(0), DramOp::Read, 0, 32);
        d.access(PhysAddr(64), DramOp::Write, 0, 32);
        d.account_untimed(DramOp::Write, 4096);
        assert_eq!(d.read_bytes, 32);
        assert_eq!(d.write_bytes, 32 + 4096);
        assert_eq!(d.total_bytes(), 32 + 32 + 4096);
    }

    #[test]
    fn multi_sector_burst_occupies_longer() {
        let mut d = dram();
        let t32 = d.access(PhysAddr(0), DramOp::Read, 0, 32);
        let mut d2 = dram();
        let t128 = d2.access(PhysAddr(0), DramOp::Read, 0, 128);
        assert!(t128 > t32);
    }
}
