//! Checked-mode integration tests (`--features invariants`).
//!
//! Two directions: a *positive* run proving a whole simulation survives
//! auditing at the tightest possible cadence with unchanged statistics,
//! and *negative* runs proving the audits actually detect deliberately
//! corrupted state — an auditor that never fires is indistinguishable
//! from one that checks nothing.
#![cfg(feature = "invariants")]

use avatar_sim::addr::VirtAddr;
use avatar_sim::config::GpuConfig;
use avatar_sim::engine::Engine;
use avatar_sim::event::EventQueue;
use avatar_sim::hooks::{NoSpeculation, UniformCompression};
use avatar_sim::sm::{WarpOp, WarpProgram};
use avatar_sim::tlb::{BaseTlb, TlbModel};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A small strided streaming kernel on every warp of every SM.
struct Stream {
    remaining: Vec<u32>,
    warps_per_sm: usize,
}

impl WarpProgram for Stream {
    fn next_op(&mut self, sm: usize, warp: usize) -> Option<WarpOp> {
        let slot = sm * self.warps_per_sm + warp;
        let left = self.remaining.get_mut(slot)?;
        if *left == 0 {
            return None;
        }
        *left -= 1;
        let base = (slot as u64 * 131 + *left as u64) * 4096;
        Some(WarpOp::Load {
            pc: 0x100 + (*left % 4) as u64,
            addrs: (0..32).map(|i| VirtAddr(base + i * 32)).collect(),
        })
    }
}

fn small_engine() -> Engine<'static> {
    let mut cfg = GpuConfig::rtx3070();
    cfg.num_sms = 2;
    cfg.warps_per_sm = 4;
    let l1s: Vec<Box<dyn TlbModel>> = (0..cfg.num_sms)
        .map(|_| Box::new(BaseTlb::new(32, 16, 0, 1)) as Box<dyn TlbModel>)
        .collect();
    let l2 = Box::new(BaseTlb::new(1024, 128, 8, 1));
    let warps = cfg.num_sms * cfg.warps_per_sm;
    let program = Stream { remaining: vec![24; warps], warps_per_sm: cfg.warps_per_sm };
    Engine::new(
        cfg,
        l1s,
        l2,
        Box::new(NoSpeculation),
        Box::new(UniformCompression { fraction: 0.6 }),
        Box::new(program),
    )
}

#[test]
fn full_run_survives_tight_audit_cadence() {
    // A cadence orders of magnitude tighter than the default (and not a
    // divisor of anything interesting). Statistics must be identical to
    // an unaudited run — audits are read-only.
    std::env::set_var("AVATAR_INVARIANT_INTERVAL", "7");
    let audited = small_engine().run();
    std::env::set_var("AVATAR_INVARIANT_INTERVAL", "0");
    let unaudited = small_engine().run();
    std::env::remove_var("AVATAR_INVARIANT_INTERVAL");
    assert!(audited.loads > 0 && audited.cycles > 0);
    assert_eq!(
        audited.digest(),
        unaudited.digest(),
        "audit cadence changed the simulation"
    );
}

#[test]
fn corrupted_free_list_is_detected() {
    let mut q: EventQueue<u32> = EventQueue::new();
    q.schedule(5, 1);
    q.schedule(9, 2);
    q.audit_invariants(); // healthy state passes
    q.corrupt_free_list_for_test();
    let err = catch_unwind(AssertUnwindSafe(|| q.audit_invariants()))
        .expect_err("audit must detect a double-freed slot");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("slab slots leaked") || msg.contains("claimed twice") || msg.contains("still holds an event"),
        "unexpected audit failure message: {msg}"
    );
}

#[test]
fn engine_audit_detects_corrupted_calendar() {
    let mut engine = small_engine();
    engine.audit_invariants(); // healthy state passes
    engine.corrupt_event_queue_for_test();
    assert!(
        catch_unwind(AssertUnwindSafe(|| engine.audit_invariants())).is_err(),
        "engine audit must surface calendar corruption"
    );
}
