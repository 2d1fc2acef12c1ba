//! Zero-allocation proof for the warmed hot paths.
//!
//! The simulator's steady-state claim (see `machine.rs` module docs) is that
//! once every scratch buffer, field slot, and context mask has been through
//! one warm-up round, the router / scan / NEWS / elementwise paths perform
//! **zero** heap allocations. This test installs a counting global allocator
//! and runs a chain covering every hot operation — including the in-place
//! (`dst` aliases a source) variants that check a copy out of the arena —
//! twice to warm the pools, then asserts the third pass allocates nothing.
//!
//! The guarantee is proved on **both sides of `par::PAR_THRESHOLD`**: a
//! 64 × 64 VP set keeps every data-parallel helper on its sequential path,
//! and a 128 × 128 VP set drives the chunked parallel paths, whose
//! bookkeeping lives in stack arrays (bounded by `par::MAX_CHUNKS`) and
//! whose pool dispatch queues `Copy` chunk descriptors — so a warm pool
//! allocates nothing at any thread count (`UC_THREADS=1` runs chunks
//! inline; larger pools reuse the steady-state queue capacity).
//!
//! The tests live alone in this file and serialize on a mutex so the
//! global allocation counter attributes every count to the pass under
//! measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use uc_cm::news::Border;
use uc_cm::{BinOp, Combine, FieldId, Machine, ReduceOp, Scalar, UnOp, VpSetId};

/// Counts every allocation (fresh, zeroed, and growth reallocs); frees are
/// irrelevant to the claim and left uncounted.
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

struct Fields {
    vp: VpSetId,
    a: FieldId,
    b: FieldId,
    c: FieldId,
    addr: FieldId,
    f: FieldId,
    g: FieldId,
    mask: FieldId,
    segs: FieldId,
    bits: FieldId,
}

fn setup(m: &mut Machine, dims: &[usize]) -> Fields {
    let vp = m.new_vp_set("grid", dims).unwrap();
    Fields {
        vp,
        a: m.alloc_int(vp, "a").unwrap(),
        b: m.alloc_int(vp, "b").unwrap(),
        c: m.alloc_int(vp, "c").unwrap(),
        addr: m.alloc_int(vp, "addr").unwrap(),
        f: m.alloc_float(vp, "f").unwrap(),
        g: m.alloc_float(vp, "g").unwrap(),
        mask: m.alloc_bool(vp, "mask").unwrap(),
        segs: m.alloc_bool(vp, "segs").unwrap(),
        bits: m.alloc_bool(vp, "bits").unwrap(),
    }
}

/// One full pass over every hot path on an `n`-element VP set. Field
/// contents are re-derived at the top so each pass is self-contained (in
/// particular the divisor is always non-zero).
fn chain(m: &mut Machine, x: &Fields, n: i64) -> uc_cm::Result<()> {
    // Elementwise ALU, including the dst-aliases-source variants.
    m.iota(x.a)?;
    m.axis_coord(x.b, 1)?;
    m.rand_int(x.c, 7, 0x5EED)?;
    m.binop_imm(BinOp::Add, x.c, x.c, Scalar::Int(1))?; // c in [1,7]: safe divisor
    m.binop(BinOp::Div, x.b, x.a, x.c)?;
    m.binop(BinOp::Add, x.a, x.a, x.b)?; // dst aliases operand
    m.binop(BinOp::BitAnd, x.b, x.a, x.c)?;
    m.binop_imm(BinOp::Shl, x.b, x.b, Scalar::Int(1))?;
    m.unop(UnOp::Neg, x.b, x.b)?; // in-place unop
    m.unop(UnOp::Abs, x.b, x.b)?;
    m.binop(BinOp::Lt, x.mask, x.b, x.a)?; // comparison makes a bool field
    m.binop(BinOp::LogAnd, x.bits, x.mask, x.bits)?; // dst aliases operand
    m.select(x.b, x.mask, x.a, x.c)?;
    m.convert(x.f, x.a)?; // int -> float
    m.convert(x.g, x.f)?; // identity cast (memcpy path)
    m.binop(BinOp::Mul, x.g, x.f, x.f)?;
    m.set_imm(x.f, Scalar::Float(1.5))?;
    m.copy(x.g, x.f)?;
    m.fill_unconditional(x.b, Scalar::Int(9))?;
    m.copy_unconditional(x.c, x.a)?;
    let _ = m.any_ne(x.a, x.c)?;
    m.read_context(x.bits)?;
    m.write_elem(x.a, 3, Scalar::Int(-5))?;
    let _ = m.read_elem(x.a, 3)?;

    // Context push/pop (the mask has both true and false bits: i = 0 fails
    // the Lt above).
    m.push_context(x.mask)?;
    m.binop_imm(BinOp::Add, x.a, x.a, Scalar::Int(1))?;
    let _ = m.active_count(x.vp)?;
    m.pop_context(x.vp)?;
    m.push_context_others(x.mask)?;
    let _ = m.any_active(x.vp)?;
    m.pop_context(x.vp)?;

    // NEWS shifts, every border policy, plus in-place.
    m.news_shift(x.b, x.a, 0, 1, Border::Wrap)?;
    m.news_shift(x.b, x.a, 1, -1, Border::Fill(Scalar::Int(0)))?;
    m.news_shift(x.b, x.b, 0, 1, Border::Keep)?;

    // Router sends and gets through the reversal permutation.
    m.iota(x.addr)?;
    m.binop_imm_l(BinOp::Sub, x.addr, Scalar::Int(n - 1), x.addr)?;
    m.send(x.b, x.addr, x.a, Combine::Add)?;
    let _ = m.send_detect(x.b, x.addr, x.a, Combine::Max)?;
    m.send(x.a, x.addr, x.a, Combine::Overwrite)?; // src aliases dst
    m.send(x.bits, x.addr, x.mask, Combine::Or)?; // bool combiner
    m.get(x.c, x.addr, x.a)?;
    m.get(x.a, x.addr, x.a)?; // src aliases dst

    // Scans and reductions: plain, segmented, in-place, bool, float.
    m.rand_int(x.c, 100, 0xBEEF)?;
    m.scan(x.b, x.c, ReduceOp::Add, true, None)?;
    m.scan(x.b, x.c, ReduceOp::Max, false, None)?;
    m.axis_coord(x.b, 1)?;
    m.binop_imm(BinOp::Eq, x.segs, x.b, Scalar::Int(0))?; // row starts
    m.scan(x.b, x.c, ReduceOp::Add, true, Some(x.segs))?;
    m.scan(x.c, x.c, ReduceOp::Add, false, None)?; // in-place scan
    m.scan(x.bits, x.mask, ReduceOp::Or, true, None)?;
    m.scan(x.g, x.f, ReduceOp::Add, false, None)?;
    let _ = m.reduce(x.c, ReduceOp::Add)?;
    let _ = m.reduce(x.f, ReduceOp::Max)?;
    let _ = m.reduce(x.mask, ReduceOp::Or)?;

    // Field alloc/free cycles drawing on the arena's retired storage.
    let t = m.alloc_int(x.vp, "t")?;
    m.set_imm(t, Scalar::Int(5))?;
    m.free(t)?;
    let t = m.alloc_float(x.vp, "t")?;
    m.free(t)?;
    let t = m.alloc_bool(x.vp, "t")?;
    m.free(t)?;
    Ok(())
}

/// Warm the machine with two passes, then assert the third allocates
/// nothing.
fn assert_warmed_chain_allocates_nothing(dims: &[usize], label: &str) {
    let _guard = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    let n: i64 = dims.iter().product::<usize>() as i64;
    let mut m = Machine::with_defaults();
    let fields = setup(&mut m, dims);

    // Two warm-up passes: the first grows every pool to its steady-state
    // shape, the second confirms the pools have the right capacities before
    // we start counting.
    chain(&mut m, &fields, n).unwrap();
    chain(&mut m, &fields, n).unwrap();

    let before = ALLOCS.load(Ordering::SeqCst);
    chain(&mut m, &fields, n).unwrap();
    let after = ALLOCS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "warmed router/scan/NEWS/ALU chain ({label}) must not touch the heap \
         ({} allocations counted)",
        after - before
    );

    // The chain really did exercise the arena's checkout paths.
    assert!(m.scratch_high_water() > 0, "aliased ops should draw on the arena");
}

/// 64 × 64 = 4096 elements: below `par::PAR_THRESHOLD`, every
/// data-parallel helper takes its sequential path.
#[test]
fn warmed_hot_paths_allocate_nothing() {
    assert_warmed_chain_allocates_nothing(&[64, 64], "sequential, 64x64");
}

/// 128 × 128 = 16384 elements: above `par::PAR_THRESHOLD`, the chunked
/// parallel paths run — chunk partials in stack arrays, chunk jobs as
/// unboxed descriptors on the pool — and still allocate nothing warm.
#[test]
fn warmed_parallel_hot_paths_allocate_nothing() {
    assert_warmed_chain_allocates_nothing(&[128, 128], "parallel, 128x128");
}
