//! The parser holds no token buffer.
//!
//! `parser::parse` pulls each token from the lexer as it needs it and
//! keeps only the previous, current and next one, so what it allocates
//! beyond the AST it returns is small and independent of the source's
//! length. This test installs a live/peak counting global allocator and
//! parses 10 000 declarations (50 001 tokens, 2 MB of them as 40-byte
//! tokens in a vector): the peak reached inside `parse` may exceed the
//! live heap after it by at most 64 KiB.
//!
//! A `realloc` counts as a free then an alloc of the new size, as the
//! benchmark's counter does, so a growing vector that is still live at
//! the end adds nothing to the gap. The counter is process-wide, so the
//! test lives alone in this file.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use uc_core::diag::Diagnostics;
use uc_core::parser;

struct PeakAlloc;

static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes as i64, Ordering::SeqCst) + bytes as i64;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes as i64, Ordering::SeqCst);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters never touch the returned memory.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        p
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// `n` declarations `int x<k> = k;` under one `#define`, as
/// `front_alloc.rs` lexes them: five tokens each, plus `Eof`.
fn source(n: usize) -> String {
    let mut src = String::from("#define N 4\n");
    for k in 0..n {
        src.push_str(&format!("int x{k} = {k};\n"));
    }
    src
}

#[test]
fn parsing_peaks_at_the_ast_it_returns() {
    let src = source(10_000);
    let mut diags = Diagnostics::default();
    PEAK.store(LIVE.load(Ordering::SeqCst), Ordering::SeqCst);
    let unit = parser::parse(&src, &mut diags);
    let gap = PEAK.load(Ordering::SeqCst) - LIVE.load(Ordering::SeqCst);
    let unit = unit.unwrap_or_else(|| panic!("{diags}"));
    assert_eq!((unit.items.len(), unit.defines.len()), (10_000, 1));
    assert!(gap <= 64 * 1024, "parsing 50 001 tokens peaked {gap} bytes above the AST it returned");
}
