//! Entering a `par` must not copy its index sets.
//!
//! `push_space` looks every set of the construct up and keys the cache of
//! element-value fields on it. Both used to deep-copy the set's elements
//! (and hash them one by one), so a sweep that re-entered `par (I)` paid
//! O(|I|) bytes per entry — 65 MB per run on the benchmark's
//! `gather_router`. The elements are shared now; this test installs a
//! byte-counting global allocator and checks that a warmed run re-entering
//! `par (I)` over a 65 536-element set 64 times allocates a small constant
//! per entry.
//!
//! The test lives alone in this file so the process-wide counter
//! attributes every byte to the run under measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use uc_core::Program;

/// Counts the bytes of every allocation (fresh, zeroed, and the new size
/// of growth reallocs); frees are irrelevant to the claim.
struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const ENTRIES: u64 = 64;
const SET_BYTES: u64 = 65_536 * 8;

#[test]
fn par_entry_allocates_o1_bytes() {
    let mut p = Program::compile(
        r#"
        #define N 65536
        index_set I:i = {0..N-1}, T:t = {0..63};
        int a[N];
        main() {
            seq (T)
                par (I) a[i] = a[i] + 1;
        }
        "#,
    )
    .unwrap_or_else(|d| panic!("compile failed:\n{d}"));
    // Warm the element-field cache, the scratch arena and the pool.
    for _ in 0..2 {
        p.run().unwrap_or_else(|e| panic!("runtime error: {e}"));
    }
    let before = BYTES.load(Ordering::Relaxed);
    p.run().unwrap();
    let per_entry = (BYTES.load(Ordering::Relaxed) - before) / ENTRIES;
    assert_eq!(p.read_int_array("a").unwrap()[..3], [3 * 64; 3]);
    assert!(
        per_entry < SET_BYTES / 64,
        "{per_entry} bytes allocated per `par (I)` entry; one copy of I is {SET_BYTES}"
    );
}
