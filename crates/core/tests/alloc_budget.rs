//! An allocation budget for the event loop.
//!
//! The simulator's steady state recycles what it allocates: calendar
//! slots, request slots, MSHR waiter lists and scratch buffers are all
//! reused. A structure that drops a buffer per event instead shows up
//! here, as heap allocations per sector request made inside
//! `Engine::run_steps`.
//!
//! A counting global allocator counts only on the thread that set its
//! flag, so tests running in parallel in this binary do not perturb the
//! count. The cells are `quick_grid`-sized: 4 SMs × 8 warps at scale 0.05,
//! seed 7.

use avatar_core::policy::{PolicyDef, AVATAR, BASELINE};
use avatar_core::system::{assemble_policy, RunOptions};
use avatar_workloads::Workload;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations allowed per sector request inside `run_steps`.
const BUDGET: f64 = 0.8;

thread_local! {
    /// Whether this thread's allocations are counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Allocations counted on this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation and reallocation made
/// by a thread while its `COUNTING` flag is set.
struct CountingAlloc;

fn count() {
    // `try_with`: the allocator also runs while thread locals are torn down.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            ALLOCS.with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counting touches only const-initialized thread locals, which never
// allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` and `layout` come from this allocator, which is
        // `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap allocations per sector request made inside `run_steps` by one
/// `quick_grid`-sized cell.
fn allocs_per_sector(abbr: &str, policy: &'static PolicyDef) -> f64 {
    let w = Workload::by_abbr(abbr).expect("workload table lists the cell");
    let opts =
        RunOptions { scale: 0.05, sms: Some(4), warps: Some(8), seed: 7, ..RunOptions::default() };
    let mut engine = assemble_policy(&w, policy, &opts, |_| {});
    engine.start();
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    engine.run_steps(u64::MAX);
    COUNTING.with(|on| on.set(false));
    let allocs = ALLOCS.with(Cell::get);
    let stats = engine.finish();
    assert!(stats.sector_requests > 0, "{abbr}/{}: the cell issued no sectors", policy.name);
    allocs as f64 / stats.sector_requests as f64
}

#[test]
fn run_steps_allocates_less_than_the_budget_per_sector() {
    for (abbr, policy) in [("GEMM", BASELINE), ("XSB", AVATAR)] {
        let per_sector = allocs_per_sector(abbr, policy);
        eprintln!("{abbr}/{}: {per_sector:.3} allocations per sector request", policy.name);
        assert!(
            per_sector < BUDGET,
            "{abbr}/{}: {per_sector:.3} heap allocations per sector request inside run_steps, \
             budget {BUDGET}",
            policy.name
        );
    }
}
