//! Allocation pins for the state layer's host data path.
//!
//! A committed version is one shared buffer on the host: a pull or attach
//! installs the master's buffer instead of copying it, so neither allocates
//! a buffer the size of the region. A read copies page slices straight into
//! its output, so a page-aligned read allocates exactly that output.
#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hetsim::engine::{ProcCtx, Simulation};
use hetsim::pu::PuId;
use hetsim::topology::Machine;
use molecule_state::{RegionSpec, StateLayer};
use xpu_shim::cluster::{ShimCluster, ShimConfig};

/// Counts the allocations of each thread separately, so tests running in
/// parallel do not see each other's (processes run on the thread that runs
/// their simulation).
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn count(size: usize) {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + size as u64));
    let _ = LARGEST.try_with(|n| n.set(n.get().max(size)));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// What one measured call allocated on this thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Tally {
    allocs: u64,
    bytes: u64,
    largest: usize,
}

fn measure<T>(f: impl FnOnce() -> T) -> (T, Tally) {
    let (allocs, bytes) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    LARGEST.with(|n| n.set(0));
    let out = f();
    let tally = Tally {
        allocs: ALLOCS.with(Cell::get) - allocs,
        bytes: BYTES.with(Cell::get) - bytes,
        largest: LARGEST.with(Cell::get),
    };
    (out, tally)
}

/// 64 standard pages: a 256 KiB region.
const PAGES: u64 = 64;
const PAGE: u64 = 4096;
const SIZE: usize = (PAGES * PAGE) as usize;

fn stamped(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8).collect()
}

/// A region on the host CPU with a whole-region version 1 committed, and a
/// replica on the DPU still at version 0.
fn committed_region(ctx: &mut ProcCtx, l: &StateLayer) {
    l.create_region(ctx, PuId(0), RegionSpec::new("weights", PAGES)).unwrap();
    l.attach(ctx, PuId(1), "weights").unwrap();
    l.write(ctx, PuId(0), "weights", 0, &stamped(SIZE), None).unwrap();
    assert_eq!(l.commit(ctx, PuId(0), "weights"), Ok(1));
}

#[test]
fn pull_and_attach_install_the_master_version_without_a_region_sized_buffer() {
    let cluster = ShimCluster::deploy(Machine::paper_cpu_dpu_server(), ShimConfig::default());
    let layer = StateLayer::new(cluster);
    let mut sim = Simulation::new();
    let l = layer.clone();
    let h = sim.spawn("pull", move |ctx| {
        committed_region(ctx, &l);
        let (pulled, pull) = measure(|| l.pull(ctx, PuId(1), "weights"));
        assert_eq!(pulled, Ok(1));
        let (_, attach) = measure(|| l.attach(ctx, PuId(2), "weights").unwrap());
        let reads = [PuId(1), PuId(2)].map(|pu| l.read(ctx, pu, "weights", 0, SIZE as u64));
        (pull, attach, reads)
    });
    sim.run().unwrap();
    let (pull, attach, reads) = h.take_result().unwrap();
    assert!(pull.largest < SIZE, "pull allocated a region-sized buffer: {pull:?}");
    assert!(attach.largest < SIZE, "attach allocated a region-sized buffer: {attach:?}");
    for read in reads {
        assert_eq!(read.unwrap(), stamped(SIZE), "the replica holds the committed version");
    }
}

#[test]
fn page_aligned_read_allocates_exactly_its_output() {
    const LEN: u64 = 64 * 1024;
    const READS: u64 = 200;
    let cluster = ShimCluster::deploy(Machine::paper_cpu_dpu_server(), ShimConfig::default());
    let layer = StateLayer::new(cluster);
    let mut sim = Simulation::new();
    let l = layer.clone();
    let h = sim.spawn("read", move |ctx| {
        committed_region(ctx, &l);
        // Every other page of the window dirty: the read alternates between
        // the working set and the committed buffer.
        for page in (0..LEN / PAGE).step_by(2) {
            l.write(ctx, PuId(0), "weights", page * PAGE, &[0xee; PAGE as usize], None).unwrap();
        }
        // Warm-up: the engine's event wheel allocates each slot's vector
        // the first time a sleep lands in it — setup cost, not read cost.
        for _ in 0..READS {
            l.read(ctx, PuId(0), "weights", 0, LEN).unwrap();
        }
        let mut tallies = Vec::new();
        for _ in 0..READS {
            let (out, tally) = measure(|| l.read(ctx, PuId(0), "weights", 0, LEN).unwrap());
            assert_eq!(out.len() as u64, LEN);
            tallies.push(tally);
        }
        let last = l.read(ctx, PuId(0), "weights", 0, LEN).unwrap();
        (tallies, last)
    });
    sim.run().unwrap();
    let (tallies, last) = h.take_result().unwrap();
    let output = Tally { allocs: 1, bytes: LEN, largest: LEN as usize };
    assert!(tallies.iter().all(|t| *t == output), "{:?}", tallies.iter().find(|t| **t != output));
    let committed = stamped(SIZE);
    for (page, bytes) in last.chunks(PAGE as usize).enumerate() {
        let lo = page * PAGE as usize;
        let want = if page % 2 == 0 {
            &[0xee; PAGE as usize][..]
        } else {
            &committed[lo..lo + PAGE as usize]
        };
        assert_eq!(bytes, want, "page {page}");
    }
}
