//! Lexing allocates per program, not per token.
//!
//! A token carries no text (an identifier's is the source its span
//! covers), and keywords and `#define` names are matched on slices of the
//! source, so `Lexer::next_token`, which the parser pulls its tokens
//! from, allocates nothing but the defines table's entries. This test
//! installs a counting global allocator and runs `lexer::lex`, which
//! collects those tokens into a vector, over declarations of 100 and of
//! 10 000 distinct identifiers: the two counts may differ only by the
//! token vector's extra doublings. (`parse_heap.rs` shows that `parse`
//! keeps no such vector.)
//!
//! The counter is process-wide, so the test lives alone in this file.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use uc_core::diag::Diagnostics;
use uc_core::lexer;

/// Counts every allocation (fresh, zeroed, and growth reallocs); frees
/// are irrelevant to the claim.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `n` declarations `int x<k> = k;` under one `#define`: keywords,
/// distinct identifiers, literals and punctuation.
fn source(n: usize) -> String {
    let mut src = String::from("#define N 4\n");
    for k in 0..n {
        src.push_str(&format!("int x{k} = {k};\n"));
    }
    src
}

/// The allocations one `lex` of `src` makes, and its token count.
fn lex_allocs(src: &str) -> (u64, usize) {
    let mut diags = Diagnostics::default();
    let before = ALLOCS.load(Ordering::SeqCst);
    let out = lexer::lex(src, &mut diags);
    let allocs = ALLOCS.load(Ordering::SeqCst) - before;
    assert!(!diags.has_errors(), "{diags}");
    assert_eq!(out.defines, [("N".to_string(), 4)]);
    (allocs, out.tokens.len())
}

#[test]
fn lexing_allocates_no_more_for_more_identifiers() {
    let (small_src, big_src) = (source(100), source(10_000));
    let (small, small_tokens) = lex_allocs(&small_src);
    let (big, big_tokens) = lex_allocs(&big_src);
    assert_eq!((small_tokens, big_tokens), (100 * 5 + 1, 10_000 * 5 + 1));
    // A doubling vector grows ceil(log2(big / small)) more times.
    let growth = (big_tokens as f64 / small_tokens as f64).log2().ceil() as u64;
    assert!(
        big <= small + growth,
        "lexing 10 000 identifiers made {big} allocations, 100 made {small} (slack {growth})"
    );
    assert!(small <= 16, "lexing 100 declarations made {small} allocations");
}
