//! Parsing allocates per operator node, not per operand or per identifier.
//!
//! An operator's operands share one box, and every occurrence of an
//! identifier in an expression shares its spelling's one `Arc<str>`, so
//! the statement `x = a + b * c;` costs three allocations: the `=`, the
//! `+` and the `*`. This test installs a counting global allocator and
//! parses `main` with 100 and with 10 000 such statements: the 9 900
//! extra statements may cost three allocations each, plus the statement
//! vector's extra doublings, and nothing per identifier.
//!
//! The counter is process-wide, so the test lives alone in this file.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use uc_core::ast::{Item, Stmt};
use uc_core::diag::Diagnostics;
use uc_core::parser;

/// Counts every allocation (fresh, zeroed, and growth reallocs); frees
/// are irrelevant to the claim.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter never touches the returned memory.
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

/// `main` with `n` copies of `x = a + b * c;`.
fn source(n: usize) -> String {
    let mut src = String::from("int x, a, b, c;\nmain() {\n");
    for _ in 0..n {
        src.push_str("    x = a + b * c;\n");
    }
    src.push_str("}\n");
    src
}

/// The allocations one `parse` of `src` makes, and its statement count.
fn parse_allocs(src: &str) -> (u64, usize) {
    let mut diags = Diagnostics::default();
    let before = ALLOCS.load(Ordering::SeqCst);
    let unit = parser::parse(src, &mut diags);
    let allocs = ALLOCS.load(Ordering::SeqCst) - before;
    let unit = unit.unwrap_or_else(|| panic!("{diags}"));
    let Some(Item::Func(main)) = unit.items.last() else { panic!("no main") };
    assert!(main.body.stmts.iter().all(|s| matches!(s, Stmt::Expr(_))));
    (allocs, main.body.stmts.len())
}

#[test]
fn parsing_allocates_once_per_operator_node() {
    let (small_src, big_src) = (source(100), source(10_000));
    let (small, small_stmts) = parse_allocs(&small_src);
    let (big, big_stmts) = parse_allocs(&big_src);
    assert_eq!((small_stmts, big_stmts), (100, 10_000));
    // A doubling vector grows ceil(log2(big / small)) more times.
    let growth = (big_stmts as f64 / small_stmts as f64).log2().ceil() as u64;
    let extra = (big_stmts - small_stmts) as u64;
    assert!(
        big <= small + 3 * extra + growth,
        "10 000 statements made {big} allocations, 100 made {small}: more than 3 per extra \
         statement (slack {growth})"
    );
}
