//! Steady-state heap-allocation budget for the per-instruction loop.
//!
//! A counting `GlobalAlloc` wraps the system allocator for this whole test
//! binary and counts per thread, so sibling tests running in parallel do
//! not leak into each other's windows. The steady-state allocation rate is
//! measured
//! *differentially*: the same scheme runs twice from identical cold state
//! at two measure lengths, so warm-up and result-assembly allocations
//! subtract out and whatever remains was allocated per simulated
//! instruction. After the flattening pass that difference must be (almost
//! exactly) zero — the budget below tolerates only a handful of events per
//! *run* (a log-growth table doubling once past the short window), which is
//! orders of magnitude below one allocation per instruction.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use prophet_bench::{Harness, L1Scheme, Scheme};
use prophet_workloads::workload_sized;

struct CountingAlloc;

thread_local! {
    // Const-initialized and drop-free: touching it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made by the calling thread while running `f`.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// Measures the marginal allocations of simulating `extra` more
/// instructions of `scheme` on a small fig15 workload behind the `l1`
/// prefetcher, and asserts the steady-state budget.
fn assert_steady_state_budget(scheme: Scheme, l1: L1Scheme, budget_per_run: u64) {
    const WARMUP: u64 = 300_000;
    const SHORT: u64 = 150_000;
    const EXTRA: u64 = 300_000;

    let run = |measure: u64| {
        let h = Harness {
            warmup: WARMUP,
            measure,
            l1,
            ..Harness::default()
        };
        let w = workload_sized("bfs_80000_8", WARMUP + measure);
        allocs_during(|| {
            h.run(scheme, w.as_ref());
        })
    };

    let short = run(SHORT);
    let long = run(SHORT + EXTRA);
    let marginal = long.saturating_sub(short);
    assert!(
        marginal <= budget_per_run,
        "{} under {l1:?}: {marginal} heap allocations across the {EXTRA} extra \
         steady-state instructions (budget {budget_per_run} per run, \
         short-run total {short}) — the per-instruction loop allocates",
        scheme.name()
    );
}

#[test]
fn baseline_steady_state_allocates_nothing() {
    assert_steady_state_budget(Scheme::Baseline, L1Scheme::Stride, 32);
}

#[test]
fn triangel_steady_state_allocates_nothing() {
    // Triangel adds the metadata table, bloom filter, and set-dueller to
    // the loop; all are preallocated or clear-in-place after warm-up.
    assert_steady_state_budget(Scheme::Triangel, L1Scheme::Stride, 32);
}

#[test]
fn prophet_steady_state_allocates_nothing() {
    // Prophet's two passes: the profiling run (simplified temporal
    // prefetcher) and the optimized run (hinted table and MVB); the
    // analysis between them runs once per run, not per instruction. Both
    // passes allocate nothing per instruction (0 marginal allocations on
    // this window), so Prophet gets the same budget as the single-pass
    // schemes.
    assert_steady_state_budget(Scheme::Prophet, L1Scheme::Stride, 32);
}

#[test]
fn ipcp_machine_steady_state_allocates_nothing() {
    // Figure 17's machine: IPCP replies carry the longest L1 lists (up to
    // 14 prefetches), and Prophet's decisions the longest L2 lists.
    assert_steady_state_budget(Scheme::Prophet, L1Scheme::Ipcp, 32);
}
