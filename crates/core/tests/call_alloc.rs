//! A scalar call must not touch the heap.
//!
//! The VM used to build a `Vec` of argument values and a fresh register
//! file for every call — two allocations each, 20 022 per run on the
//! benchmark's `scalar_vm`. Activations now share one register stack
//! (`Run::regs`, whose buffer each run hands the next): entering a
//! function appends its image, arguments are coerced from the caller's
//! registers straight into the callee's, and returning truncates. This
//! test installs a byte-counting global allocator and checks that a
//! warmed run making 10 000 calls, one of them recursing 200 deep,
//! allocates less than 1 KB in total.
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

#[test]
fn scalar_calls_allocate_nothing() {
    let mut p = Program::compile(
        r#"
        int total, deep;
        float half;
        int add(int a, int b) { return a + b; }
        float halve(int n) { return n / 2.0; }
        int down(int n) { if (n == 0) return 0; return 1 + down(n - 1); }
        main() {
            int k;
            total = 0;
            for (k = 0; k < 5000; k = k + 1) {
                total = add(total, k);
                half = halve(k);
            }
            deep = down(200);
        }
        "#,
    )
    .unwrap_or_else(|d| panic!("compile failed:\n{d}"));
    // Grow the register and frame stacks to their high-water mark.
    p.run().unwrap_or_else(|e| panic!("runtime error: {e}"));
    let before = BYTES.load(Ordering::Relaxed);
    p.run().unwrap();
    let bytes = BYTES.load(Ordering::Relaxed) - before;
    assert_eq!(p.read_int("total"), Some(4999 * 5000 / 2));
    assert_eq!(p.read_int("deep"), Some(200));
    assert_eq!(p.read_scalar("half").unwrap().as_float(), 2499.5);
    assert!(bytes < 1024, "{bytes} bytes allocated by a run of 10 201 scalar calls");
}
