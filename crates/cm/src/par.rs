//! Host-side data-parallel kernels.
//!
//! Every PE-array macro-instruction is one pass over its operands. Two
//! kinds of pass live here, and they split their work differently:
//!
//! * **Elementwise passes** ([`zip0`]–[`zip3`], [`zip_index`],
//!   [`axis_runs`], [`fill`], [`gather_masked`], and the NEWS run copies
//!   built on
//!   [`for_each_part_mut`]) write each destination position from that
//!   position's own inputs. [`for_each_part_mut`] is their one driver: it
//!   hands a kernel disjoint sub-slices of the destination — the whole
//!   slice below [`PAR_THRESHOLD`], a few parts per pool thread above it —
//!   and the kernel slices its sources and the mask by the same range, so
//!   every inner loop is a plain slice zip the compiler can vectorise. The
//!   split may follow the pool size because no position reads another.
//!   The `zip*` kernels store branch-free (`*d = if m { v } else { *d }`)
//!   and, like [`gather_masked`], drop the mask altogether on a part whose
//!   lanes are all active, which is every part of a `par` without `st`.
//!   The closure is still called only where the mask is set, so an op
//!   that can trap on an inactive lane (integer `Div`/`Mod` by a zero it
//!   never uses) stays safe — it just does not vectorise.
//! * **Order-sensitive folds** (scan/reduce building blocks) are chunked
//!   by [`chunk_at`], a pure function of the element count alone. Chunk
//!   layout never depends on the thread count, so even float folds, which
//!   are sensitive to association order, are bit-identical under any
//!   `UC_THREADS` — simulations stay deterministic. (The cycle clock is
//!   charged from operand shapes, never from how the host split the
//!   work, so cost accounting is thread-count-independent too.)
//!
//! The pool honours the `UC_THREADS` environment variable; see the `rayon`
//! shim. All fan-outs are allocation-free: per-chunk partials land in
//! caller-provided stack arrays (chunk counts are bounded by
//! [`MAX_CHUNKS`]) and the pool's batch dispatch queues `Copy` chunk
//! descriptors rather than boxed closures, so a warm simulator performs
//! zero heap allocations per parallel op at **any** size and thread
//! count — `crates/cm/tests/alloc_count.rs` asserts this on both sides
//! of `PAR_THRESHOLD`.

use std::ops::Range;

/// Below this many elements the sequential path is used.
pub const PAR_THRESHOLD: usize = 1 << 13;

/// Smallest number of elements one pool job processes.
pub const CHUNK_MIN: usize = 1 << 10;

/// Upper bound on the number of chunks [`chunk_count`] produces. Bounds
/// the sequential chunk-combine step of scans/reductions while leaving
/// enough chunks for every realistic pool size to balance load.
pub const MAX_CHUNKS: usize = 64;

/// Elements per chunk for a `len`-element partition: at least
/// [`CHUNK_MIN`], at most [`MAX_CHUNKS`] chunks.
fn chunk_size(len: usize) -> usize {
    len.div_ceil(MAX_CHUNKS).max(CHUNK_MIN)
}

/// Number of chunks `0..len` partitions into — a pure function of `len`
/// alone, **never** of the thread count, so order-sensitive folds over
/// these chunks (float scans/reductions) associate identically under any
/// `UC_THREADS` setting. Always `<=` [`MAX_CHUNKS`].
pub fn chunk_count(len: usize) -> usize {
    if len == 0 {
        0
    } else {
        len.div_ceil(chunk_size(len))
    }
}

/// The `k`-th chunk of the `0..len` partition (`k < chunk_count(len)`).
pub fn chunk_at(len: usize, k: usize) -> Range<usize> {
    let c = chunk_size(len);
    (k * c)..((k + 1) * c).min(len)
}

/// Apply `f` to every chunk of `0..len` in parallel, writing chunk `k`'s
/// result to `out[k]`; returns the chunk count. `out` is caller-provided
/// (a stack array, typically `[id; MAX_CHUNKS]`) so the fan-out performs
/// no heap allocation. Chunk layout is [`chunk_at`]'s, so the results
/// are deterministic for any thread count.
pub fn map_chunks_into<O, F>(len: usize, out: &mut [O; MAX_CHUNKS], f: F) -> usize
where
    O: Send,
    F: Fn(Range<usize>) -> O + Sync,
{
    let n = chunk_count(len);
    if n <= 1 || len < PAR_THRESHOLD {
        for (k, slot) in out.iter_mut().enumerate().take(n) {
            *slot = f(chunk_at(len, k));
        }
    } else {
        // SAFETY: the one-slot ranges `k..k + 1` are pairwise disjoint.
        unsafe {
            split_mut(&mut out[..n], n, |k| k..k + 1, |k, _, slot| slot[0] = f(chunk_at(len, k)))
        }
    }
    n
}

/// Run `f(k, range(k), &mut data[range(k)])` for `k` in `0..n` on the
/// pool.
///
/// # Safety
/// The `n` ranges must be pairwise disjoint; each must lie inside
/// `0..data.len()` (checked).
unsafe fn split_mut<T, R, F>(data: &mut [T], n: usize, range: R, f: F)
where
    T: Send,
    R: Fn(usize) -> Range<usize> + Sync,
    F: Fn(usize, Range<usize>, &mut [T]) + Sync,
{
    let len = data.len();
    let base = SendPtr(data.as_mut_ptr());
    rayon::pool::run_chunks(n, &|k| {
        let r = range(k);
        assert!(r.start <= r.end && r.end <= len, "part outside the slice");
        // SAFETY: in bounds (asserted above) and, by the caller's
        // contract, disjoint from every other part, so the derived
        // `&mut` slices never alias.
        let part = unsafe { std::slice::from_raw_parts_mut(base.get().add(r.start), r.len()) };
        f(k, r, part);
    });
}

/// Raw pointer that may cross threads; writes are to disjoint parts.
struct SendPtr<T>(*mut T);
// SAFETY: only `split_mut` dereferences it, into disjoint `&mut [T]`
// parts that are each used by one thread; `T: Send` lets them move there.
unsafe impl<T: Send> Sync for SendPtr<T> {}
impl<T> SendPtr<T> {
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Run `f(k, chunk, &mut data[chunk])` for every chunk of
/// `0..data.len()` in parallel — the in-place sibling of
/// [`map_chunks_into`] for per-chunk passes that write disjoint regions
/// (the blocked scan's second pass). Allocation-free.
pub fn for_each_chunk_mut<T, F>(data: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, Range<usize>, &mut [T]) + Sync,
{
    let len = data.len();
    let n = chunk_count(len);
    if n <= 1 || len < PAR_THRESHOLD {
        let mut rest = data;
        for k in 0..n {
            let r = chunk_at(len, k);
            let (head, tail) = rest.split_at_mut(r.len());
            f(k, r, head);
            rest = tail;
        }
        return;
    }
    // SAFETY: `chunk_at` partitions `0..len`.
    unsafe { split_mut(data, n, |k| chunk_at(len, k), f) }
}

/// Parts per pool thread an elementwise pass splits into: two, so a
/// thread that starts late or runs slow leaves half its share to be
/// stolen, while queue traffic stays negligible beside a part of at
/// least [`CHUNK_MIN`] elements.
const PARTS_PER_THREAD: usize = 2;

/// The driver of every elementwise pass: run `f(range, &mut dst[range])`
/// over disjoint ranges covering `dst` — one range below
/// [`PAR_THRESHOLD`] or on a single-threaded pool, `PARTS_PER_THREAD`
/// equal parts per pool thread above it. The kernel slices its sources
/// and the mask by `range`. Only position-independent maps may use this:
/// the split follows the pool size (folds use [`chunk_at`] instead).
pub fn for_each_part_mut<T, F>(dst: &mut [T], f: F)
where
    T: Send,
    F: Fn(Range<usize>, &mut [T]) + Sync,
{
    let len = dst.len();
    let threads = if len < PAR_THRESHOLD { 1 } else { rayon::current_num_threads() };
    if threads == 1 {
        return f(0..len, dst);
    }
    let parts = (threads * PARTS_PER_THREAD).min(len / CHUNK_MIN);
    let size = len.div_ceil(parts);
    let part = |k: usize| (k * size).min(len)..((k + 1) * size).min(len);
    // SAFETY: consecutive `size`-element ranges clamped to `len`.
    unsafe { split_mut(dst, parts, part, |_, r, d| f(r, d)) }
}

/// Whether every lane of `mask` is active. Blocks are AND-reduced without
/// short-circuiting (which vectorises) and the scan stops at the first
/// block holding an inactive lane, so sparse masks cost almost nothing.
#[inline]
pub fn all_active(mask: &[bool]) -> bool {
    mask.chunks(256).all(|block| block.iter().fold(true, |acc, &m| acc & m))
}

/// `dst[i] = f(dst[i])` wherever `mask[i]`: immediates captured by the
/// closure (`set_imm`, `x + 1`) and ops whose every source is `dst`.
pub fn zip0<T, F>(dst: &mut [T], mask: &[bool], f: F)
where
    T: Copy + Send,
    F: Fn(T) -> T + Sync,
{
    assert_eq!(dst.len(), mask.len(), "zip0 mask length mismatch");
    for_each_part_mut(dst, |r, d| {
        let m = &mask[r];
        if all_active(m) {
            for d in d.iter_mut() {
                *d = f(*d);
            }
        } else {
            for (d, &m) in d.iter_mut().zip(m) {
                *d = if m { f(*d) } else { *d };
            }
        }
    });
}

/// `dst[i] = f(dst[i], a[i])` wherever `mask[i]`. A kernel that ignores
/// its first argument is a plain map of `a`; one that uses it is the
/// in-place form of a two-operand op whose other source is `dst` itself.
pub fn zip1<T, A, F>(dst: &mut [T], a: &[A], mask: &[bool], f: F)
where
    T: Copy + Send,
    A: Copy + Sync,
    F: Fn(T, A) -> T + Sync,
{
    assert_eq!(dst.len(), a.len(), "zip1 length mismatch");
    assert_eq!(dst.len(), mask.len(), "zip1 mask length mismatch");
    for_each_part_mut(dst, |r, d| {
        let (a, m) = (&a[r.clone()], &mask[r]);
        if all_active(m) {
            for (d, &x) in d.iter_mut().zip(a) {
                *d = f(*d, x);
            }
        } else {
            for ((d, &x), &m) in d.iter_mut().zip(a).zip(m) {
                *d = if m { f(*d, x) } else { *d };
            }
        }
    });
}

/// `dst[i] = f(dst[i], a[i], b[i])` wherever `mask[i]`.
pub fn zip2<T, A, B, F>(dst: &mut [T], a: &[A], b: &[B], mask: &[bool], f: F)
where
    T: Copy + Send,
    A: Copy + Sync,
    B: Copy + Sync,
    F: Fn(T, A, B) -> T + Sync,
{
    assert_eq!(dst.len(), a.len(), "zip2 length mismatch");
    assert_eq!(dst.len(), b.len(), "zip2 length mismatch");
    assert_eq!(dst.len(), mask.len(), "zip2 mask length mismatch");
    for_each_part_mut(dst, |r, d| {
        let (a, b, m) = (&a[r.clone()], &b[r.clone()], &mask[r]);
        if all_active(m) {
            for ((d, &x), &y) in d.iter_mut().zip(a).zip(b) {
                *d = f(*d, x, y);
            }
        } else {
            for (((d, &x), &y), &m) in d.iter_mut().zip(a).zip(b).zip(m) {
                *d = if m { f(*d, x, y) } else { *d };
            }
        }
    });
}

/// `dst[i] = f(dst[i], a[i], b[i], c[i])` wherever `mask[i]` (`select`
/// with three distinct sources).
pub fn zip3<T, A, B, C, F>(dst: &mut [T], a: &[A], b: &[B], c: &[C], mask: &[bool], f: F)
where
    T: Copy + Send,
    A: Copy + Sync,
    B: Copy + Sync,
    C: Copy + Sync,
    F: Fn(T, A, B, C) -> T + Sync,
{
    assert_eq!(dst.len(), a.len(), "zip3 length mismatch");
    assert_eq!(dst.len(), b.len(), "zip3 length mismatch");
    assert_eq!(dst.len(), c.len(), "zip3 length mismatch");
    assert_eq!(dst.len(), mask.len(), "zip3 mask length mismatch");
    for_each_part_mut(dst, |r, d| {
        let (a, b, c, m) = (&a[r.clone()], &b[r.clone()], &c[r.clone()], &mask[r]);
        if all_active(m) {
            for (((d, &x), &y), &z) in d.iter_mut().zip(a).zip(b).zip(c) {
                *d = f(*d, x, y, z);
            }
        } else {
            for ((((d, &x), &y), &z), &m) in d.iter_mut().zip(a).zip(b).zip(c).zip(m) {
                *d = if m { f(*d, x, y, z) } else { *d };
            }
        }
    });
}

/// `dst[i] = f(i)` wherever `mask[i]` (iota, per-VP PRNG).
pub fn zip_index<T, F>(dst: &mut [T], mask: &[bool], f: F)
where
    T: Copy + Send,
    F: Fn(usize) -> T + Sync,
{
    assert_eq!(dst.len(), mask.len(), "zip_index mask length mismatch");
    for_each_part_mut(dst, |r, d| {
        let m = &mask[r.clone()];
        if all_active(m) {
            for (d, i) in d.iter_mut().zip(r) {
                *d = f(i);
            }
        } else {
            for ((d, i), &m) in d.iter_mut().zip(r).zip(m) {
                *d = if m { f(i) } else { *d };
            }
        }
    });
}

/// `dst[i] = (i / stride) % extent` wherever `mask[i]`: the coordinate
/// along an axis whose later axes span `stride` lanes. Each run of
/// `stride` lanes shares one coordinate, so a run is a fill — a plain
/// `fill` where its lanes are all active — and only a part's first lane
/// divides. On the last axis (`stride == 1`) the coordinate is a counter
/// that wraps at `extent`.
pub fn axis_runs(dst: &mut [i64], mask: &[bool], stride: usize, extent: usize) {
    assert_eq!(dst.len(), mask.len(), "axis_runs mask length mismatch");
    for_each_part_mut(dst, |r, d| {
        let len = d.len();
        if len == 0 {
            return; // an empty set: `stride` or `extent` may be 0
        }
        let m = &mask[r.clone()];
        let mut coord = ((r.start / stride) % extent) as i64;
        let extent = extent as i64;
        if stride == 1 {
            for (d, &m) in d.iter_mut().zip(m) {
                *d = if m { coord } else { *d };
                coord += 1;
                if coord == extent {
                    coord = 0;
                }
            }
            return;
        }
        let (mut lo, mut hi) = (0, (stride - r.start % stride).min(len));
        while lo < len {
            let (run, m) = (&mut d[lo..hi], &m[lo..hi]);
            if all_active(m) {
                run.fill(coord);
            } else {
                for (d, &m) in run.iter_mut().zip(m) {
                    *d = if m { coord } else { *d };
                }
            }
            coord += 1;
            if coord == extent {
                coord = 0;
            }
            (lo, hi) = (hi, (hi + stride).min(len));
        }
    });
}

/// Masked gather: `dst[i] = src[addrs[i]]` wherever `mask[i]` — the
/// router's **get** inner loop. Addresses at active positions must be in
/// bounds (the router validates before calling); inactive ones may hold
/// anything, so a masked part's store stays a branch. A part whose lanes
/// are all active, as the `zip*` kernels do, drops the mask test.
pub fn gather_masked<T: Copy + Send + Sync>(
    dst: &mut [T],
    src: &[T],
    addrs: &[i64],
    mask: &[bool],
) {
    assert_eq!(dst.len(), addrs.len(), "gather address length mismatch");
    assert_eq!(dst.len(), mask.len(), "gather mask length mismatch");
    for_each_part_mut(dst, |r, d| {
        let (a, m) = (&addrs[r.clone()], &mask[r]);
        if all_active(m) {
            for (d, &a) in d.iter_mut().zip(a) {
                *d = src[a as usize];
            }
        } else {
            for ((d, &a), &m) in d.iter_mut().zip(a).zip(m) {
                if m {
                    *d = src[a as usize];
                }
            }
        }
    });
}

/// Unmasked fill: `dst[i] = value` everywhere.
pub fn fill<T: Copy + Send + Sync>(dst: &mut [T], value: T) {
    for_each_part_mut(dst, |_, d| d.fill(value));
}

/// Parallel existence test over two slices: does `f(a[i], b[i])` hold
/// anywhere? The boolean answer is chunking-independent, so callers that
/// need a *deterministic witness* (e.g. the first offending router
/// address) re-scan sequentially after a `true` answer.
pub fn any2<A, B, F>(a: &[A], b: &[B], f: F) -> bool
where
    A: Sync,
    B: Sync,
    F: Fn(&A, &B) -> bool + Sync,
{
    assert_eq!(a.len(), b.len(), "any2 length mismatch");
    if a.len() < PAR_THRESHOLD {
        return a.iter().zip(b).any(|(x, y)| f(x, y));
    }
    let mut hits = [false; MAX_CHUNKS];
    let n = map_chunks_into(a.len(), &mut hits, |r| r.into_iter().any(|i| f(&a[i], &b[i])));
    hits[..n].iter().any(|&hit| hit)
}

/// Parallel fold of the `mask`-active elements of `v` with an associative
/// `fold`, starting from `id`: per-chunk folds run on the pool (partials
/// landing in a stack array), then the partials are folded in chunk
/// order. Chunk layout is [`chunk_at`], so the association — and hence
/// even float results — is identical for any thread count.
pub fn fold_active<T, F>(v: &[T], mask: &[bool], id: T, fold: F) -> T
where
    T: Copy + Send + Sync,
    F: Fn(T, T) -> T + Sync,
{
    assert_eq!(v.len(), mask.len(), "fold mask length mismatch");
    if v.len() < PAR_THRESHOLD {
        return v
            .iter()
            .zip(mask)
            .filter(|(_, &m)| m)
            .fold(id, |acc, (&x, _)| fold(acc, x));
    }
    let mut parts = [id; MAX_CHUNKS];
    let n = map_chunks_into(v.len(), &mut parts, |r| {
        r.into_iter()
            .filter(|&i| mask[i])
            .fold(id, |acc, i| fold(acc, v[i]))
    });
    parts[..n].iter().fold(id, |acc, &x| fold(acc, x))
}

/// Index of the first `mask`-active element, scanning chunks in parallel.
pub fn first_active(mask: &[bool]) -> Option<usize> {
    if mask.len() < PAR_THRESHOLD {
        return mask.iter().position(|&m| m);
    }
    let mut parts = [None; MAX_CHUNKS];
    let n = map_chunks_into(mask.len(), &mut parts, |r| r.into_iter().find(|&i| mask[i]));
    parts[..n].iter().find_map(|&hit| hit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_respects_mask() {
        let mut d = vec![0i64; 4];
        zip1(&mut d, &[1i64, 2, 3, 4], &[true, false, true, false], |_, s| s);
        assert_eq!(d, vec![1, 0, 3, 0]);
    }

    /// Every `zip*` kernel against a scalar loop, on both sides of the
    /// threshold and under full, empty and mixed masks.
    #[test]
    fn zip_kernels_match_scalar_loops() {
        for n in [5usize, PAR_THRESHOLD + 517] {
            let a: Vec<i64> = (0..n as i64).map(|i| i * 7 % 31).collect();
            let b: Vec<i64> = (0..n as i64).map(|i| 100 - i % 13).collect();
            let c: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
            let masks =
                [vec![true; n], vec![false; n], (0..n).map(|i| i % 5 != 1).collect::<Vec<_>>()];
            for mask in &masks {
                let expect = |f: &dyn Fn(usize) -> i64| -> Vec<i64> {
                    (0..n).map(|i| if mask[i] { f(i) } else { -1 }).collect()
                };
                let mut d = vec![-1i64; n];
                zip0(&mut d, mask, |d| d - 1);
                assert_eq!(d, expect(&|_| -2));
                let mut d = vec![-1i64; n];
                zip1(&mut d, &a, mask, |d, x| d + x);
                assert_eq!(d, expect(&|i| a[i] - 1));
                let mut d = vec![-1i64; n];
                zip2(&mut d, &a, &b, mask, |_, x, y| x * y);
                assert_eq!(d, expect(&|i| a[i] * b[i]));
                let mut d = vec![-1i64; n];
                zip3(&mut d, &c, &a, &b, mask, |_, c, x, y| if c { x } else { y });
                assert_eq!(d, expect(&|i| if c[i] { a[i] } else { b[i] }));
                let mut d = vec![-1i64; n];
                zip_index(&mut d, mask, |i| i as i64 * 2);
                assert_eq!(d, expect(&|i| i as i64 * 2));
            }
        }
    }

    /// The kernel closure runs at active lanes only, so a trapping op is
    /// safe wherever the mask hides its bad input.
    #[test]
    fn zip_kernels_skip_inactive_lanes() {
        let mut d = vec![10i64, 10, 10];
        zip1(&mut d, &[2i64, 0, 5], &[true, false, true], |d, x| d / x);
        assert_eq!(d, vec![5, 10, 2]);
    }

    #[test]
    fn parts_cover_exactly_once() {
        for len in [0usize, 7, PAR_THRESHOLD - 1, PAR_THRESHOLD, PAR_THRESHOLD + 517, 1 << 16] {
            let mut hits = vec![0u8; len];
            for_each_part_mut(&mut hits, |r, part| {
                assert_eq!(part.len(), r.len());
                part.iter_mut().for_each(|h| *h += 1);
            });
            assert!(hits.iter().all(|&h| h == 1), "len={len}");
        }
    }

    #[test]
    fn all_active_finds_any_hole() {
        assert!(all_active(&[]));
        assert!(all_active(&[true; 700]));
        for hole in [0usize, 255, 256, 699] {
            let mut m = vec![true; 700];
            m[hole] = false;
            assert!(!all_active(&m), "hole at {hole}");
        }
    }

    #[test]
    fn chunks_cover_exactly() {
        for len in [0usize, 1, CHUNK_MIN - 1, CHUNK_MIN, PAR_THRESHOLD, 1 << 16, (1 << 16) + 7] {
            let n = chunk_count(len);
            assert!(n <= MAX_CHUNKS);
            let mut next = 0;
            for k in 0..n {
                let r = chunk_at(len, k);
                assert_eq!(r.start, next, "contiguous at len={len}");
                assert!(r.end > r.start);
                next = r.end;
            }
            assert_eq!(next, len, "covers 0..len for len={len}");
        }
    }

    #[test]
    fn map_chunks_into_orders_partials() {
        let len = PAR_THRESHOLD + 17;
        let mut parts = [0usize; MAX_CHUNKS];
        let n = map_chunks_into(len, &mut parts, |r| r.len());
        assert_eq!(n, chunk_count(len));
        assert_eq!(parts[..n].iter().sum::<usize>(), len);
        for (k, &got) in parts[..n].iter().enumerate() {
            assert_eq!(got, chunk_at(len, k).len());
        }
    }

    #[test]
    fn gather_and_fill() {
        let mut d = vec![0i64; 4];
        gather_masked(&mut d, &[10, 20, 30], &[2, 0, 1, 2], &[true, true, false, true]);
        assert_eq!(d, vec![30, 10, 0, 30]);
        fill(&mut d, 7);
        assert_eq!(d, vec![7; 4]);
    }

    #[test]
    fn any2_small_and_large() {
        let a: Vec<i64> = (0..(PAR_THRESHOLD as i64 + 3)).collect();
        let b = vec![0i64; a.len()];
        assert!(any2(&a, &b, |&x, _| x == PAR_THRESHOLD as i64));
        assert!(!any2(&a, &b, |&x, _| x < 0));
        assert!(any2(&a[..3], &b[..3], |&x, &y| x > y));
    }

    #[test]
    fn fold_active_matches_sequential() {
        let n = PAR_THRESHOLD + 123;
        let v: Vec<i64> = (0..n as i64).collect();
        let mask: Vec<bool> = (0..n).map(|i| i % 3 != 0).collect();
        let par = fold_active(&v, &mask, 0i64, |a, b| a.wrapping_add(b));
        let seq: i64 = v.iter().zip(&mask).filter(|(_, &m)| m).map(|(&x, _)| x).sum();
        assert_eq!(par, seq);
        assert_eq!(fold_active(&v, &vec![false; n], i64::MAX, i64::min), i64::MAX);
    }

    #[test]
    fn first_active_finds_first() {
        let n = PAR_THRESHOLD + 50;
        let mut mask = vec![false; n];
        assert_eq!(first_active(&mask), None);
        mask[n - 2] = true;
        assert_eq!(first_active(&mask), Some(n - 2));
        mask[3] = true;
        assert_eq!(first_active(&mask), Some(3));
        assert_eq!(first_active(&[false, true]), Some(1));
    }

    #[test]
    fn for_each_chunk_mut_writes_disjoint_chunks() {
        for len in [10usize, PAR_THRESHOLD + 33] {
            let mut data = vec![0usize; len];
            for_each_chunk_mut(&mut data, |k, r, chunk| {
                assert_eq!(chunk.len(), r.len());
                for (off, d) in chunk.iter_mut().enumerate() {
                    *d = k * 1_000_000 + r.start + off;
                }
            });
            for (i, &x) in data.iter().enumerate() {
                let k = if len < PAR_THRESHOLD { 0 } else { i / chunk_at(len, 0).len() };
                assert_eq!(x, k * 1_000_000 + i, "slot {i}");
            }
        }
    }
}
