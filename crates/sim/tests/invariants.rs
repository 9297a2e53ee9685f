//! Checked-mode integration tests (`--features invariants`).
//!
//! Two directions: a *positive* run proving a whole simulation survives
//! auditing at the tightest possible cadence with unchanged statistics,
//! and *negative* runs proving the audits actually detect deliberately
//! corrupted state — an auditor that never fires is indistinguishable
//! from one that checks nothing.
#![cfg(feature = "invariants")]

use avatar_sim::addr::VirtAddr;
use avatar_sim::config::{BasePage, GpuConfig};
use avatar_sim::engine::Engine;
use avatar_sim::event::EventQueue;
use avatar_sim::hooks::{NoSpeculation, UniformCompression};
use avatar_sim::sm::{WarpOp, WarpProgram};
use avatar_sim::tlb::{BaseTlb, TlbModel};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A small strided streaming kernel on every warp of every SM. With
/// `shared_pages`, each load spans four pages, the warps of an SM step
/// through neighbouring pages together and every SM walks the same
/// pages, so translations for one page, and for pages sharing a TLB
/// entry, are in flight at once.
struct Stream {
    remaining: Vec<u32>,
    warps_per_sm: usize,
    shared_pages: bool,
}

impl WarpProgram for Stream {
    fn next_op(&mut self, sm: usize, warp: usize) -> Option<WarpOp> {
        let slot = sm * self.warps_per_sm + warp;
        let left = self.remaining.get_mut(slot)?;
        if *left == 0 {
            return None;
        }
        *left -= 1;
        let pc = 0x100 + (*left % 4) as u64;
        if self.shared_pages {
            // Each SM's warps take the pages one warp over from the
            // previous SM's, so lookups for one page queue apart.
            let w = (warp + sm) % self.warps_per_sm;
            let base = (*left as u64 * self.warps_per_sm as u64 + w as u64) * 4 * 4096;
            let addrs = (0..32).map(|i| VirtAddr(base + (i % 4) * 4096 + (i / 4) * 32)).collect();
            return Some(WarpOp::Load { pc, addrs });
        }
        let base = (slot as u64 * 131 + *left as u64) * 4096;
        Some(WarpOp::Load { pc, addrs: (0..32).map(|i| VirtAddr(base + i * 32)).collect() })
    }
}

fn small_engine() -> Engine<'static> {
    engine_with(false, |_| {})
}

fn engine_with(shared_pages: bool, tweak: impl FnOnce(&mut GpuConfig)) -> Engine<'static> {
    let mut cfg = GpuConfig::rtx3070();
    cfg.num_sms = 2;
    cfg.warps_per_sm = 4;
    tweak(&mut cfg);
    let pages = cfg.uvm.base_page.pages();
    let l1s: Vec<Box<dyn TlbModel>> = (0..cfg.num_sms)
        .map(|_| Box::new(BaseTlb::new(32, 16, 0, pages)) as Box<dyn TlbModel>)
        .collect();
    let l2 = Box::new(BaseTlb::new(1024, 128, 8, pages));
    let warps = cfg.num_sms * cfg.warps_per_sm;
    let warps_per_sm = cfg.warps_per_sm;
    let program = Stream { remaining: vec![24; warps], warps_per_sm, shared_pages };
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
    let msg = panic_message(err);
    assert!(
        msg.contains("slab slots leaked") || msg.contains("claimed twice") || msg.contains("still holds an event"),
        "unexpected audit failure message: {msg}"
    );
}

/// The text of a caught panic payload (`panic!` with arguments boxes a
/// `String`, a literal message a `&str`).
fn panic_message(err: Box<dyn std::any::Any + Send>) -> String {
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
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

#[test]
fn engine_audit_detects_unbalanced_exchange() {
    // Mid-run, at a barrier, so the exchange counters are live.
    let mut engine = small_engine();
    engine.start();
    assert!(engine.run_steps(64), "the run must still be in flight");
    engine.audit_invariants(); // healthy state passes
    engine.corrupt_exchange_for_test();
    let err = catch_unwind(AssertUnwindSafe(|| engine.audit_invariants()))
        .expect_err("engine audit must surface a lost cross-domain event");
    let msg = panic_message(err);
    assert!(
        msg.contains("exchange counters desynchronized"),
        "unexpected audit failure message: {msg}"
    );
}

#[test]
fn overflowing_l2_tlb_mshr_passes_every_barrier_audit() {
    // Two L2 TLB MSHR entries: most lookups queue behind a full file, so
    // the overflow drain counts retries as full without running them, and
    // checked mode proves each such skip. SMs share pages, and a 64KB
    // fill covers 16 of them, so walk completions resolve lookups queued
    // for other SMs and other pages. The barrier audit (which checks the
    // queue itself) runs about every 97 events.
    for base_page in [BasePage::Size4K, BasePage::Size64K] {
        let tight = |cfg: &mut GpuConfig| {
            cfg.warps_per_sm = 8;
            cfg.l2_tlb.mshr_entries = 2;
            cfg.uvm.base_page = base_page;
        };
        let mut engine = engine_with(true, tight);
        engine.start();
        while engine.run_steps(97) {
            engine.audit_invariants();
        }
        let audited = engine.finish();
        let plain = engine_with(true, tight).run();
        assert!(audited.l2_tlb_mshr_full > 0, "{base_page:?}: the MSHR file never overflowed");
        assert_eq!(audited.digest(), plain.digest(), "{base_page:?}: auditing changed the run");
    }
}

#[test]
fn engine_audit_detects_desynchronized_l2_tlb_queue_index() {
    let mut engine = small_engine();
    engine.start();
    assert!(engine.run_steps(64), "the run must still be in flight");
    engine.audit_invariants(); // healthy state passes
    engine.corrupt_l2_tlb_queue_index_for_test();
    let err = catch_unwind(AssertUnwindSafe(|| engine.audit_invariants()))
        .expect_err("engine audit must surface a desynchronized overflow index");
    let msg = panic_message(err);
    assert!(
        msg.contains("L2 TLB overflow key index desynchronized"),
        "unexpected audit failure message: {msg}"
    );
}
