//! Allocation and stack-reuse pins for the coroutine process backend.
//!
//! A process switch on coroutines is a register swap on the calling thread,
//! so a steady sleep/yield/resume cycle must not touch the heap, and spawn
//! churn must reuse finished processes' stacks instead of mapping new ones.
#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;

use hetsim::engine::Simulation;
use hetsim::time::SimDuration;

/// Counts the allocations of each thread separately, so tests running in
/// parallel do not see each other's (processes run on the thread that runs
/// their simulation).
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One sleep/yield cycle's sleep. The engine's event wheel files an event
/// due in a later 4.1 µs bucket under that bucket's slot, and each of the
/// wheel's slots grows its vector the first time it is used — setup cost,
/// not per-event cost. So the warm-up runs one full turn of the finest
/// level (64 buckets, 262 µs) to touch every slot there, and the measured
/// cycles then stay inside the next 262 µs window, where no coarser slot is
/// needed: what remains is the cost of the switches themselves.
const CYCLE_SLEEP: SimDuration = SimDuration::from_nanos(8);

#[test]
fn steady_sleep_yield_cycle_makes_no_heap_allocations() {
    const WARM: u32 = 33_000; // 264 µs of virtual time
    const MEASURED: u32 = 20_000; // 160 µs more
    let mut sim = Simulation::new();
    // A second process cycling beside the measured one, so every resume
    // switches between two coroutines rather than back into the same one.
    // It outlives the measurement: a process's first exit grows the free
    // lists of stacks and process slots once.
    sim.spawn("beside", |ctx| {
        for _ in 0..WARM + MEASURED + 1 {
            ctx.sleep(CYCLE_SLEEP);
            ctx.yield_now();
        }
    });
    let measured = sim.spawn("measured", |ctx| {
        for _ in 0..WARM {
            ctx.sleep(CYCLE_SLEEP);
            ctx.yield_now();
        }
        let before = allocs();
        for _ in 0..MEASURED {
            ctx.sleep(CYCLE_SLEEP);
            ctx.yield_now();
        }
        allocs() - before
    });
    sim.run().expect("cycle runs to completion");
    assert_eq!(
        measured.take_result(),
        Some(0),
        "{MEASURED} sleep/yield cycles allocated on the heap"
    );
}

#[test]
fn spawn_churn_reuses_finished_stacks() {
    const SPAWNS: u64 = 10_000;
    /// Children alive at once; with the spawner, the peak live count is
    /// one more.
    const LIVE_CHILDREN: usize = 7;
    let mut sim = Simulation::new();
    sim.spawn("spawner", |ctx| {
        let mut live = VecDeque::new();
        for i in 0..SPAWNS {
            if live.len() == LIVE_CHILDREN {
                let oldest: hetsim::ProcHandle<()> = live.pop_front().expect("queue is full");
                oldest.join(ctx);
            }
            live.push_back(ctx.spawn("child", move |ctx| {
                ctx.sleep(SimDuration::from_nanos(1 + i % 5));
            }));
        }
        for child in live {
            child.join(ctx);
        }
    });
    sim.run().expect("spawn churn runs to completion");
    let mapped = sim.mapped_stacks();
    assert!(
        (1..=LIVE_CHILDREN + 1).contains(&mapped),
        "{SPAWNS} spawns with at most {} live mapped {mapped} stacks",
        LIVE_CHILDREN + 1
    );
}
