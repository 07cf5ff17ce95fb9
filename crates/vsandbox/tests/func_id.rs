//! Pins for [`FuncId`]: cloning an id shares it instead of copying the
//! name, and ids order and hash exactly as their strings do, so maps keyed
//! by ids iterate in the same order as maps keyed by the names.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{BuildHasher, BuildHasherDefault};

use vsandbox::spec::FuncId;

/// Counts the allocations of each thread separately, so tests running in
/// parallel do not see each other's.
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

const NAMES: [&str; 7] = ["img-resize", "a", "zeta", "Alpha", "img", "", "fn-042"];

#[test]
fn clone_does_not_allocate() {
    let id = FuncId::new("a-function-name-longer-than-any-inline-buffer");
    let before = allocs();
    let copies: [FuncId; 16] = std::array::from_fn(|_| id.clone());
    let after = allocs();
    assert_eq!(after - before, 0, "cloning a FuncId allocated");
    assert!(copies.iter().all(|c| c == &id));
}

#[test]
fn ids_order_like_their_strings() {
    let by_id: BTreeMap<FuncId, usize> =
        NAMES.iter().enumerate().map(|(i, n)| (FuncId::new(*n), i)).collect();
    let by_str: BTreeMap<&str, usize> = NAMES.iter().enumerate().map(|(i, n)| (*n, i)).collect();
    let ids: Vec<(&str, usize)> = by_id.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let strs: Vec<(&str, usize)> = by_str.into_iter().collect();
    assert_eq!(ids, strs);
}

#[test]
fn ids_hash_like_their_strings() {
    let hasher = BuildHasherDefault::<DefaultHasher>::default();
    for name in NAMES {
        assert_eq!(hasher.hash_one(FuncId::new(name)), hasher.hash_one(name), "{name:?}");
        assert_eq!(hasher.hash_one(FuncId::from(name.to_owned())), hasher.hash_one(name));
    }
}
