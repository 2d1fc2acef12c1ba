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
//! allocates less than 1 KB in total — also when each call of `add`
//! sweeps a front-end `seq`.
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

/// `src` compiled, then the bytes its second run allocates — the first
/// grows the register, frame and sweep stacks to their high-water mark.
fn warm_run_bytes(src: &str) -> (Program, u64) {
    let mut p = Program::compile(src).unwrap_or_else(|d| panic!("compile failed:\n{d}"));
    p.run().unwrap_or_else(|e| panic!("runtime error: {e}"));
    let before = BYTES.load(Ordering::Relaxed);
    p.run().unwrap();
    (p, BYTES.load(Ordering::Relaxed) - before)
}

/// The calls of `main` below, with `ADD` the body of `add`.
const CALLS: &str = r#"
    index_set T:t = {0..1};
    int total, deep;
    float half;
    int add(int a, int b) { ADD }
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
"#;

/// Both cases run in this one test, so the counter sees one at a time.
/// The second sweeps a front-end `seq` in every call of `add`: a sweep's
/// cursor is a register of the activation, so it costs what a loop does.
#[test]
fn scalar_calls_allocate_nothing() {
    for add in ["return a + b;", "seq (T) a = a + 0; return a + b;"] {
        let (p, bytes) = warm_run_bytes(&CALLS.replace("ADD", add));
        assert_eq!(p.read_int("total"), Some(4999 * 5000 / 2), "{add}");
        assert_eq!(p.read_int("deep"), Some(200));
        assert_eq!(p.read_scalar("half").unwrap().as_float(), 2499.5);
        assert!(bytes < 1024, "{bytes} bytes allocated by a run of 10 201 scalar calls ({add})");
    }
}
