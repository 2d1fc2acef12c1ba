//! A warm `par` entry allocates nothing on the executor's side.
//!
//! Entering a construct, classifying its subscripts, computing router
//! addresses, caching a step's gathers and masking its arms all reuse
//! buffers each run is handed from the last (`Run::ctx_spare`, `forms`,
//! `mask_spare`, `cse_stack`), and the machine's arena serves every field
//! (`crates/cm/tests/alloc_count.rs`). This test installs a counting
//! global allocator, warms each program with two runs, and asserts that a
//! third run — hundreds of `par` entries — allocates fewer than
//! [`BUDGET`] times in total. These shapes cover the executor's access
//! paths:
//!
//! * an all-pairs-shortest-paths step, whose predicate gathers two
//!   row/column broadcasts through the router and reads one local operand
//!   that the arm body then takes from the CSE cache;
//! * a NEWS read whose shift fills the border with INF, as in an
//!   obstacle-grid sweep;
//! * router stores into `permute`-, `fold`- and `copy`-mapped arrays and
//!   through a data-dependent subscript, which take every mapping arm of
//!   the address computation;
//! * a `*par` fixpoint that keeps a value its predicate computes for its
//!   body, and an index-only term for every sweep after the first;
//! * a `*par` whose local reads are the array's own field, which also
//!   counts the machine fields a sweep allocates.
//!
//! The counter is process-wide, so the tests live alone in this file and
//! serialize on a mutex.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use uc_core::Program;

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

/// Serializes the measuring tests: the allocation counter is process-wide.
static MEASURE: Mutex<()> = Mutex::new(());

/// Allocations a whole warm run may make. Each shape enters a `par` at
/// least 64 times, so a single allocation per entry breaks it.
const BUDGET: u64 = 64;

/// Compile `src`, let `init` set it up, warm it with two runs, and return
/// the program with the allocations of a third.
fn warm_run_allocs(src: &str, init: impl Fn(&mut Program)) -> (Program, u64) {
    let mut p = Program::compile(src).unwrap_or_else(|d| panic!("compile failed:\n{d}"));
    init(&mut p);
    for _ in 0..2 {
        p.run().unwrap_or_else(|e| panic!("runtime error: {e}"));
    }
    init(&mut p);
    let before = ALLOCS.load(Ordering::SeqCst);
    p.run().unwrap();
    let allocs = ALLOCS.load(Ordering::SeqCst) - before;
    (p, allocs)
}

/// 16 sweeps of `seq (K)` over a 16 × 16 distance matrix: 256 entries of
/// the kernel the benchmark's `apsp_n2` runs.
#[test]
fn apsp_step_allocates_nothing_per_entry() {
    let _guard = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    let src = r#"
        #define N 16
        index_set I:i = {0..N-1}, J:j = I, K:k = I, T:t = {0..15};
        int d[N][N];
        main() {
            seq (T)
                seq (K)
                    par (I, J)
                        st (d[i][k] + d[k][j] < d[i][j])
                            d[i][j] = d[i][k] + d[k][j];
        }
    "#;
    // A directed ring whose edge i -> i+1 weighs 1: dist(i, j) = (j - i) mod N.
    let n = 16i64;
    let ring: Vec<i64> = (0..n * n)
        .map(|c| match (c % n - c / n).rem_euclid(n) {
            0 => 0,
            1 => 1,
            _ => 1 << 20,
        })
        .collect();
    let (p, allocs) = warm_run_allocs(src, |p| p.write_int_array("d", &ring).unwrap());
    let expect: Vec<i64> = (0..n * n).map(|c| (c % n - c / n).rem_euclid(n)).collect();
    assert_eq!(p.read_int_array("d").unwrap(), expect);
    assert!(allocs < BUDGET, "{allocs} allocations in 256 warm `par` entries");
}

/// 64 steps of a NEWS relaxation: two displaced reads per step, each
/// shifted with INF filling the border.
#[test]
fn news_read_with_border_fixup_allocates_nothing_per_entry() {
    let _guard = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    let src = r#"
        #define N 32
        index_set I:i = {0..N-1}, J:j = I, T:t = {0..63};
        int a[N][N];
        main() {
            par (I, J) a[i][j] = 1000;
            par (I, J) st (i == 0 && j == N - 1) a[i][j] = 0;
            seq (T)
                par (I, J)
                    st ((i != 0 || j != N - 1) && min(a[i-1][j], a[i][j+1]) + 1 < a[i][j])
                        a[i][j] = min(a[i-1][j], a[i][j+1]) + 1;
        }
    "#;
    let (p, allocs) = warm_run_allocs(src, |_| {});
    let a = p.read_int_array("a").unwrap();
    // Distance from the top-right corner moving down or left.
    assert_eq!(a[31 * 32], 62);
    assert_eq!(a[5 * 32 + 30], 6);
    assert!(allocs < BUDGET, "{allocs} allocations in 64 warm NEWS steps");
}

/// 64 steps of router stores through every mapping: `permute`, `fold` on
/// the stored axis and on another, `copy` (one send per replica), and a
/// data-dependent subscript whose validity is checked at run time.
#[test]
fn mapped_router_stores_allocate_nothing_per_entry() {
    let _guard = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    let src = r#"
        #define N 64
        index_set I:i = {0..N-1}, J:j = {0..3}, T:t = {0..63};
        int a[N], b[N], c[N], r[N], f[N][4];
        map (I) {
            permute (I) b[i+1] :- a[i];
            fold (I) c[i] :- c[N-1-i];
            copy (J) r[i] :- r[i];
            fold (I, J) f[i][j] :- f[N-1-i][j];
        }
        main() {
            seq (T) {
                par (I) {
                    b[i] = i + t;
                    c[i] = 2 * i + t;
                    r[i] = i - t;
                    a[(5 * i + t) % N] = i;
                }
                par (I, J) f[i][j] = 4 * i + j + t;
            }
        }
    "#;
    let (mut p, allocs) = warm_run_allocs(src, |_| {});
    let t = 63;
    let read = |p: &mut Program, name| p.read_int_array(name).unwrap();
    assert_eq!(read(&mut p, "b"), (0..64).map(|i| i + t).collect::<Vec<_>>());
    assert_eq!(read(&mut p, "c"), (0..64).map(|i| 2 * i + t).collect::<Vec<_>>());
    assert_eq!(read(&mut p, "r"), (0..64).map(|i| i - t).collect::<Vec<_>>());
    let a = read(&mut p, "a");
    assert!((0..64).all(|i| a[((5 * i + t) % 64) as usize] == i));
    assert_eq!(read(&mut p, "f"), (0..256).map(|k| k + t).collect::<Vec<_>>());
    assert!(allocs < BUDGET, "{allocs} allocations in 128 warm mapped-store entries");
}

/// Four entries of an obstacle-grid style `*par`, 31 sweeps each: every
/// sweep's body stores the `min(...) + 1` its predicate kept, and the
/// first sweep of each entry computes `(i != 0 || j != 0)` for the rest.
#[test]
fn star_par_keeping_values_allocates_nothing_per_sweep() {
    let _guard = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    let src = r#"
        #define N 16
        #define DMAX 1073741824
        index_set I:i = {0..N-1}, J:j = I, T:t = {0..3};
        int a[N][N];
        main() {
            seq (T) {
                par (I, J) st (i == 0 && j == 0) a[i][j] = 0; others a[i][j] = DMAX;
                *par (I, J)
                    st ((i != 0 || j != 0)
                        && min(min(a[i-1][j], a[i+1][j]), min(a[i][j-1], a[i][j+1])) + 1 < a[i][j])
                        a[i][j] = min(min(a[i-1][j], a[i+1][j]), min(a[i][j-1], a[i][j+1])) + 1;
            }
        }
    "#;
    let (p, allocs) = warm_run_allocs(src, |_| {});
    assert_eq!(p.read_int_array("a").unwrap(), (0..256).map(|c| c / 16 + c % 16).collect::<Vec<_>>());
    assert!(allocs < BUDGET, "{allocs} allocations in 124 warm `*par` sweeps");
}

/// A `*par` whose predicate and body read `a[i]` through operators: both
/// reads are `a`'s own field, so a sweep allocates two fields, the
/// comparison and the difference, one fewer than when the predicate
/// copied `a[i]` for the body to reuse. A warm run allocates nothing.
#[test]
fn a_borrowed_local_read_allocates_no_field() {
    let _guard = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    let src = |sweeps: i64| {
        format!(
            "#define N 64
             index_set I:i = {{0..N-1}};
             int a[N];
             main() {{
                 par (I) a[i] = i + {sweeps};
                 *par (I) st (a[i] > i) a[i] = a[i] - 1;
             }}"
        )
    };
    let fields = |sweeps| {
        let (p, allocs) = warm_run_allocs(&src(sweeps), |_| {});
        assert_eq!(p.read_int_array("a").unwrap(), (0..64).collect::<Vec<_>>());
        assert!(allocs < BUDGET, "{allocs} allocations in {sweeps} warm `*par` sweeps");
        p.machine().fields_allocated()
    };
    // The machine counts all three runs of each: 32 more sweeps, thrice.
    assert_eq!(fields(48) - fields(16), 3 * 32 * 2);
}
