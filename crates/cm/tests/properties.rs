//! Property-based tests of the simulator's core invariants.

use proptest::prelude::*;
use uc_cm::{news::Border, BinOp, Combine, FieldData, Geometry, Machine, ReduceOp, Scalar};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Geometry address/coordinate are mutual inverses for any shape.
    #[test]
    fn geometry_roundtrip(dims in prop::collection::vec(1usize..6, 1..4)) {
        let g = Geometry::new(&dims).unwrap();
        for addr in 0..g.size() {
            let c = g.coordinate(addr).unwrap();
            prop_assert_eq!(g.address(&c), Some(addr));
            for (axis, &coord) in c.iter().enumerate() {
                prop_assert_eq!(g.axis_coordinate(addr, axis).unwrap(), coord);
            }
        }
    }

    /// Toroidal neighbours compose: +k then -k is the identity.
    #[test]
    fn wrap_neighbors_invert(dims in prop::collection::vec(1usize..6, 1..3),
                             offset in -7i64..7) {
        let g = Geometry::new(&dims).unwrap();
        for addr in 0..g.size() {
            for axis in 0..g.rank() {
                let there = g.neighbor_wrap(addr, axis, offset).unwrap();
                let back = g.neighbor_wrap(there, axis, -offset).unwrap();
                prop_assert_eq!(back, addr);
            }
        }
    }

    /// A router send along a permutation delivers exactly the permuted
    /// data (no loss, no duplication).
    #[test]
    fn router_permutation(perm in prop::collection::vec(0usize..32, 2..32)) {
        // Make `perm` a permutation of 0..n.
        let n = perm.len();
        let mut p: Vec<usize> = (0..n).collect();
        for (k, &r) in perm.iter().enumerate() {
            p.swap(k, r % n);
        }
        let mut m = Machine::with_defaults();
        let vp = m.new_vp_set("v", &[n]).unwrap();
        let src = m.alloc_int(vp, "s").unwrap();
        let addr = m.alloc_int(vp, "a").unwrap();
        let dst = m.alloc_int(vp, "d").unwrap();
        let data: Vec<i64> = (0..n as i64).map(|x| x * 10 + 1).collect();
        m.write_all(src, FieldData::I64(data.clone())).unwrap();
        m.write_all(addr, FieldData::I64(p.iter().map(|&x| x as i64).collect())).unwrap();
        let conflict = m.send_detect(dst, addr, src, Combine::Overwrite).unwrap();
        prop_assert!(!conflict, "permutation cannot collide");
        let out = match m.read_all(dst).unwrap() {
            FieldData::I64(v) => v,
            _ => unreachable!(),
        };
        for i in 0..n {
            prop_assert_eq!(out[p[i]], data[i]);
        }
    }

    /// get(send(x)) round-trips through any permutation.
    #[test]
    fn gather_inverts_scatter(perm in prop::collection::vec(0usize..24, 2..24)) {
        let n = perm.len();
        let mut p: Vec<usize> = (0..n).collect();
        for (k, &r) in perm.iter().enumerate() {
            p.swap(k, r % n);
        }
        let mut m = Machine::with_defaults();
        let vp = m.new_vp_set("v", &[n]).unwrap();
        let src = m.alloc_int(vp, "s").unwrap();
        let addr = m.alloc_int(vp, "a").unwrap();
        let mid = m.alloc_int(vp, "mid").unwrap();
        let back = m.alloc_int(vp, "back").unwrap();
        let data: Vec<i64> = (0..n as i64).map(|x| 7 - 3 * x).collect();
        m.write_all(src, FieldData::I64(data.clone())).unwrap();
        m.write_all(addr, FieldData::I64(p.iter().map(|&x| x as i64).collect())).unwrap();
        m.send(mid, addr, src, Combine::Overwrite).unwrap();
        m.get(back, addr, mid).unwrap();
        prop_assert_eq!(m.read_all(back).unwrap(), FieldData::I64(data));
    }

    /// Machine reductions equal sequential folds under arbitrary masks.
    #[test]
    fn reduce_equals_fold(data in prop::collection::vec(-100i64..100, 1..64),
                          mask in prop::collection::vec(any::<bool>(), 1..64)) {
        let n = data.len().min(mask.len());
        let data = &data[..n];
        let mask = &mask[..n];
        let mut m = Machine::with_defaults();
        let vp = m.new_vp_set("v", &[n]).unwrap();
        let a = m.alloc_int(vp, "a").unwrap();
        let mk = m.alloc_bool(vp, "m").unwrap();
        m.write_all(a, FieldData::I64(data.to_vec())).unwrap();
        m.write_all(mk, FieldData::Bool(mask.to_vec())).unwrap();
        m.push_context(mk).unwrap();
        let active: Vec<i64> =
            data.iter().zip(mask).filter(|(_, &m)| m).map(|(&x, _)| x).collect();
        prop_assert_eq!(
            m.reduce(a, ReduceOp::Add).unwrap().as_int(),
            active.iter().sum::<i64>()
        );
        prop_assert_eq!(
            m.reduce(a, ReduceOp::Min).unwrap().as_int(),
            active.iter().min().copied().unwrap_or(i64::MAX)
        );
        prop_assert_eq!(
            m.reduce(a, ReduceOp::Max).unwrap().as_int(),
            active.iter().max().copied().unwrap_or(i64::MIN)
        );
        m.pop_context(vp).unwrap();
    }

    /// Inclusive scan equals the running fold; exclusive is the shifted
    /// variant.
    #[test]
    fn scan_equals_running_fold(data in prop::collection::vec(-50i64..50, 1..48)) {
        let n = data.len();
        let mut m = Machine::with_defaults();
        let vp = m.new_vp_set("v", &[n]).unwrap();
        let a = m.alloc_int(vp, "a").unwrap();
        let d = m.alloc_int(vp, "d").unwrap();
        m.write_all(a, FieldData::I64(data.clone())).unwrap();
        m.scan(d, a, ReduceOp::Add, true, None).unwrap();
        let mut acc = 0i64;
        let incl: Vec<i64> = data.iter().map(|&x| { acc += x; acc }).collect();
        prop_assert_eq!(m.read_all(d).unwrap(), FieldData::I64(incl.clone()));
        m.scan(d, a, ReduceOp::Add, false, None).unwrap();
        let excl: Vec<i64> =
            std::iter::once(0).chain(incl[..n - 1].iter().copied()).collect();
        prop_assert_eq!(m.read_all(d).unwrap(), FieldData::I64(excl));
    }

    /// NEWS shift with wrap equals index rotation.
    #[test]
    fn news_wrap_is_rotation(data in prop::collection::vec(-50i64..50, 2..32),
                             offset in -5i64..5) {
        let n = data.len();
        let mut m = Machine::with_defaults();
        let vp = m.new_vp_set("v", &[n]).unwrap();
        let a = m.alloc_int(vp, "a").unwrap();
        let d = m.alloc_int(vp, "d").unwrap();
        m.write_all(a, FieldData::I64(data.clone())).unwrap();
        m.news_shift(d, a, 0, offset, Border::Wrap).unwrap();
        let expect: Vec<i64> = (0..n)
            .map(|i| data[(i as i64 + offset).rem_euclid(n as i64) as usize])
            .collect();
        prop_assert_eq!(m.read_all(d).unwrap(), FieldData::I64(expect));
    }

    /// The cycle clock is deterministic: the same op sequence charges the
    /// same cycles regardless of the data.
    #[test]
    fn clock_is_data_independent(a_data in prop::collection::vec(-9i64..9, 8..9),
                                 b_data in prop::collection::vec(-9i64..9, 8..9)) {
        let run = |data: &[i64]| -> u64 {
            let mut m = Machine::with_defaults();
            let vp = m.new_vp_set("v", &[8]).unwrap();
            let a = m.alloc_int(vp, "a").unwrap();
            let b = m.alloc_int(vp, "b").unwrap();
            m.write_all(a, FieldData::I64(data.to_vec())).unwrap();
            m.binop(BinOp::Add, b, a, a).unwrap();
            m.binop_imm(BinOp::Mul, b, b, Scalar::Int(3)).unwrap();
            m.reduce(b, ReduceOp::Max).unwrap();
            m.cycles()
        };
        prop_assert_eq!(run(&a_data), run(&b_data));
    }
}

/// SplitMix64 — a self-contained generator so the reference data below
/// does not depend on the machine's own `rand_int`.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// Fields big enough to cross `par::PAR_THRESHOLD` take the parallel
// branch of every wired hot path; these properties pin parallel results
// to sequential references computed inline. Sizes straddle the threshold
// (just below, at, and above) so both branches and the boundary itself
// are exercised. Fewer cases than above — each case moves ~16k elements.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Router send with random (colliding) addresses equals a sequential
    /// sender-order loop, for every combining mode, on both sides of the
    /// parallel threshold.
    #[test]
    fn parallel_send_matches_sequential_reference(seed in 0u64..u64::MAX,
                                                  delta in 0usize..3) {
        let n = uc_cm::par::PAR_THRESHOLD - 1 + delta * 2048;
        let dst_n = n / 4;
        let data: Vec<i64> = (0..n).map(|i| mix(seed, i as u64) as i64 % 1000).collect();
        let addrs: Vec<i64> = (0..n).map(|i| (mix(!seed, i as u64) % dst_n as u64) as i64).collect();
        for combine in [Combine::Overwrite, Combine::Add, Combine::Min, Combine::Max] {
            let mut m = Machine::with_defaults();
            let vp = m.new_vp_set("senders", &[n]).unwrap();
            let dvp = m.new_vp_set("receivers", &[dst_n]).unwrap();
            let src = m.alloc_int(vp, "s").unwrap();
            let addr = m.alloc_int(vp, "a").unwrap();
            let dst = m.alloc_int(dvp, "d").unwrap();
            m.write_all(src, FieldData::I64(data.clone())).unwrap();
            m.write_all(addr, FieldData::I64(addrs.clone())).unwrap();
            m.fill_unconditional(dst, Scalar::Int(-1)).unwrap();
            m.send(dst, addr, src, combine).unwrap();

            let mut expect = vec![-1i64; dst_n];
            let mut hit = vec![false; dst_n];
            for (&v, &a) in data.iter().zip(&addrs) {
                let a = a as usize;
                expect[a] = if !hit[a] {
                    v
                } else {
                    match combine {
                        Combine::Overwrite => v,
                        Combine::Add => expect[a] + v,
                        Combine::Min => expect[a].min(v),
                        Combine::Max => expect[a].max(v),
                        _ => unreachable!(),
                    }
                };
                hit[a] = true;
            }
            prop_assert_eq!(m.read_all(dst).unwrap(), FieldData::I64(expect));
        }
    }

    /// Router get through random addresses equals direct indexing above
    /// and below the threshold, and leaves masked-off VPs untouched.
    #[test]
    fn parallel_get_matches_direct_indexing(seed in 0u64..u64::MAX,
                                            delta in 0usize..3) {
        let n = uc_cm::par::PAR_THRESHOLD - 1 + delta * 2048;
        let mut m = Machine::with_defaults();
        let vp = m.new_vp_set("v", &[n]).unwrap();
        let table = m.alloc_int(vp, "t").unwrap();
        let addr = m.alloc_int(vp, "a").unwrap();
        let out = m.alloc_int(vp, "o").unwrap();
        let mk = m.alloc_bool(vp, "m").unwrap();
        let data: Vec<i64> = (0..n).map(|i| mix(seed, i as u64) as i64 % 9973).collect();
        let addrs: Vec<i64> = (0..n).map(|i| (mix(!seed, i as u64) % n as u64) as i64).collect();
        let mask: Vec<bool> = (0..n).map(|i| !mix(seed ^ 0xA5A5, i as u64).is_multiple_of(4)).collect();
        m.write_all(table, FieldData::I64(data.clone())).unwrap();
        m.write_all(addr, FieldData::I64(addrs.clone())).unwrap();
        m.write_all(mk, FieldData::Bool(mask.clone())).unwrap();
        m.fill_unconditional(out, Scalar::Int(-3)).unwrap();
        m.push_context(mk).unwrap();
        m.get(out, addr, table).unwrap();
        m.pop_context(vp).unwrap();
        let expect: Vec<i64> = (0..n)
            .map(|i| if mask[i] { data[addrs[i] as usize] } else { -3 })
            .collect();
        prop_assert_eq!(m.read_all(out).unwrap(), FieldData::I64(expect));
    }

    /// The blocked two-pass parallel scan equals the running fold at
    /// sizes just below, at, and above the parallel threshold.
    #[test]
    fn parallel_scan_matches_running_fold(seed in 0u64..u64::MAX,
                                          delta in 0usize..5) {
        let n = uc_cm::par::PAR_THRESHOLD - 2 + delta;
        let data: Vec<i64> = (0..n).map(|i| mix(seed, i as u64) as i64 % 100).collect();
        let mask: Vec<bool> = (0..n).map(|i| !mix(!seed, i as u64).is_multiple_of(3)).collect();
        let mut m = Machine::with_defaults();
        let vp = m.new_vp_set("v", &[n]).unwrap();
        let a = m.alloc_int(vp, "a").unwrap();
        let d = m.alloc_int(vp, "d").unwrap();
        let mk = m.alloc_bool(vp, "m").unwrap();
        m.write_all(a, FieldData::I64(data.clone())).unwrap();
        m.write_all(mk, FieldData::Bool(mask.clone())).unwrap();
        m.fill_unconditional(d, Scalar::Int(0)).unwrap();
        m.push_context(mk).unwrap();
        m.scan(d, a, ReduceOp::Add, true, None).unwrap();
        m.pop_context(vp).unwrap();
        let mut acc = 0i64;
        let expect: Vec<i64> = (0..n)
            .map(|i| if mask[i] { acc += data[i]; acc } else { 0 })
            .collect();
        prop_assert_eq!(m.read_all(d).unwrap(), FieldData::I64(expect));

        prop_assert_eq!(
            m.reduce(a, ReduceOp::Add).unwrap().as_int(),
            data.iter().sum::<i64>()
        );
    }

    /// Elementwise chains above the threshold equal the scalar loop.
    #[test]
    fn parallel_elementwise_matches_scalar_loop(seed in 0u64..u64::MAX) {
        let n = uc_cm::par::PAR_THRESHOLD + 517;
        let av: Vec<i64> = (0..n).map(|i| mix(seed, i as u64) as i64 % 500 - 250).collect();
        let bv: Vec<i64> = (0..n).map(|i| mix(!seed, i as u64) as i64 % 500 - 250).collect();
        let mut m = Machine::with_defaults();
        let vp = m.new_vp_set("v", &[n]).unwrap();
        let a = m.alloc_int(vp, "a").unwrap();
        let b = m.alloc_int(vp, "b").unwrap();
        let c = m.alloc_int(vp, "c").unwrap();
        m.write_all(a, FieldData::I64(av.clone())).unwrap();
        m.write_all(b, FieldData::I64(bv.clone())).unwrap();
        m.binop(BinOp::Mul, c, a, b).unwrap();
        m.binop(BinOp::Max, c, c, a).unwrap();
        m.binop_imm(BinOp::Add, c, c, Scalar::Int(13)).unwrap();
        let expect: Vec<i64> =
            av.iter().zip(&bv).map(|(&x, &y)| (x * y).max(x) + 13).collect();
        prop_assert_eq!(m.read_all(c).unwrap(), FieldData::I64(expect));
    }
}

// ---------------------------------------------------------------------
// The one-pass kernels against a per-lane scalar reference.
//
// Every elementwise op is run at sizes that straddle `PAR_THRESHOLD`
// (one part, and several parts with a ragged tail), under masks that take
// the unmasked and the branch-free masked loop, with every legal aliasing
// of destination and sources, and with the immediate on either side. The
// reference works on `Scalar`s one lane at a time and shares no code with
// `ops.rs`; NEWS shifts are compared with a per-element
// `Geometry::neighbor{,_wrap}` walk.
// ---------------------------------------------------------------------

use uc_cm::par::PAR_THRESHOLD;
use uc_cm::{CmError, ElemType, FieldId, UnOp, VpSetId};

const SIZES: [usize; 3] = [PAR_THRESHOLD - 1, PAR_THRESHOLD, PAR_THRESHOLD + 517];
const TYPES: [ElemType; 3] = [ElemType::Int, ElemType::Float, ElemType::Bool];
const BINOPS: [BinOp; 22] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Mod,
    BinOp::Min,
    BinOp::Max,
    BinOp::BitAnd,
    BinOp::BitOr,
    BinOp::BitXor,
    BinOp::Shl,
    BinOp::Shr,
    BinOp::LogAnd,
    BinOp::LogOr,
    BinOp::LogXor,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
    BinOp::ULt,
];

/// `a op b` for one lane, or `None` where the machine defines no such op.
fn ref_binop(op: BinOp, a: Scalar, b: Scalar) -> Option<Scalar> {
    use BinOp::*;
    Some(match (a, b) {
        (Scalar::Int(p), Scalar::Int(q)) => match op {
            Add => Scalar::Int(p.wrapping_add(q)),
            Sub => Scalar::Int(p.wrapping_sub(q)),
            Mul => Scalar::Int(p.wrapping_mul(q)),
            Div => Scalar::Int(p.wrapping_div(q)),
            Mod => Scalar::Int(p.wrapping_rem(q)),
            Min => Scalar::Int(if q < p { q } else { p }),
            Max => Scalar::Int(if q > p { q } else { p }),
            BitAnd => Scalar::Int(p & q),
            BitOr => Scalar::Int(p | q),
            BitXor => Scalar::Int(p ^ q),
            Shl => Scalar::Int(p << (q as u64 % 64)),
            Shr => Scalar::Int(p >> (q as u64 % 64)),
            Eq => Scalar::Bool(p == q),
            Ne => Scalar::Bool(p != q),
            Lt => Scalar::Bool(p < q),
            Le => Scalar::Bool(p <= q),
            Gt => Scalar::Bool(p > q),
            Ge => Scalar::Bool(p >= q),
            ULt => Scalar::Bool((p as u64) < (q as u64)),
            LogAnd | LogOr | LogXor => return None,
        },
        (Scalar::Float(p), Scalar::Float(q)) => match op {
            Add => Scalar::Float(p + q),
            Sub => Scalar::Float(p - q),
            Mul => Scalar::Float(p * q),
            Div => Scalar::Float(p / q),
            Min => Scalar::Float(if q < p { q } else { p }),
            Max => Scalar::Float(if q > p { q } else { p }),
            Eq => Scalar::Bool(p == q),
            Ne => Scalar::Bool(p != q),
            Lt => Scalar::Bool(p < q),
            Le => Scalar::Bool(p <= q),
            Gt => Scalar::Bool(p > q),
            Ge => Scalar::Bool(p >= q),
            _ => return None,
        },
        (Scalar::Bool(p), Scalar::Bool(q)) => match op {
            LogAnd => Scalar::Bool(p && q),
            LogOr => Scalar::Bool(p || q),
            LogXor | Ne => Scalar::Bool(p != q),
            Eq => Scalar::Bool(p == q),
            _ => return None,
        },
        _ => return None,
    })
}

/// Lane `i` of the `stream`-th pseudo-random field of type `ty`. Ints lie
/// in −250..250 (zeros included); floats are odd multiples of 1/8, so
/// never zero, and no op on them yields a NaN that would defeat `==`.
fn lane(ty: ElemType, stream: u64, i: usize) -> Scalar {
    let v = (mix(stream, i as u64) % 500) as i64 - 250;
    match ty {
        ElemType::Int => Scalar::Int(v),
        ElemType::Float => Scalar::Float(v as f64 / 4.0 + 0.125),
        ElemType::Bool => Scalar::Bool(v % 2 == 0),
    }
}

fn lanes(ty: ElemType, stream: u64, n: usize) -> Vec<Scalar> {
    (0..n).map(|i| lane(ty, stream, i)).collect()
}

fn to_field(ty: ElemType, lanes: &[Scalar]) -> FieldData {
    match ty {
        ElemType::Int => FieldData::I64(lanes.iter().map(|s| s.as_int()).collect()),
        ElemType::Float => FieldData::F64(lanes.iter().map(|s| s.as_float()).collect()),
        ElemType::Bool => FieldData::Bool(lanes.iter().map(|s| s.as_bool()).collect()),
    }
}

fn from_field(data: FieldData) -> Vec<Scalar> {
    match data {
        FieldData::I64(v) => v.into_iter().map(Scalar::Int).collect(),
        FieldData::F64(v) => v.into_iter().map(Scalar::Float).collect(),
        FieldData::Bool(v) => v.into_iter().map(Scalar::Bool).collect(),
    }
}

/// The four mask shapes: every lane, no lane, a random half, one lane.
fn masks(n: usize) -> [(&'static str, Vec<bool>); 4] {
    let mut one = vec![false; n];
    one[n / 2] = true;
    [
        ("all", vec![true; n]),
        ("none", vec![false; n]),
        (
            "random",
            (0..n)
                .map(|i| mix(0xC0FFEE, i as u64).is_multiple_of(2))
                .collect(),
        ),
        ("one lane", one),
    ]
}

/// A machine with one VP set of `n` lanes and a mask field to push.
struct Bench {
    m: Machine,
    vp: VpSetId,
    mask: FieldId,
}

impl Bench {
    fn new(dims: &[usize]) -> Self {
        let mut m = Machine::with_defaults();
        let vp = m.new_vp_set("v", dims).unwrap();
        let mask = m.alloc_bool(vp, "mask").unwrap();
        Bench { m, vp, mask }
    }

    fn field(&mut self, ty: ElemType, lanes: &[Scalar]) -> FieldId {
        let f = self.m.alloc(self.vp, "f", ty).unwrap();
        self.m.write_all(f, to_field(ty, lanes)).unwrap();
        f
    }

    /// Run `op` under `mask`, then read `dst` back.
    fn masked(
        &mut self,
        mask: &[bool],
        dst: FieldId,
        op: impl FnOnce(&mut Machine) -> uc_cm::Result<()>,
    ) -> uc_cm::Result<Vec<Scalar>> {
        self.m
            .write_all(self.mask, FieldData::Bool(mask.to_vec()))
            .unwrap();
        self.m.push_context(self.mask).unwrap();
        let res = op(&mut self.m);
        self.m.pop_context(self.vp).unwrap();
        let out = from_field(self.m.read_all(dst).unwrap());
        res.map(|()| out)
    }

    fn free(&mut self, fields: &[FieldId]) {
        for &f in fields {
            self.m.free(f).unwrap();
        }
    }
}

/// `f(i)` where the mask is set, the destination's old lane elsewhere.
fn expect_masked(mask: &[bool], old: &[Scalar], f: impl Fn(usize) -> Scalar) -> Vec<Scalar> {
    (0..mask.len())
        .map(|i| if mask[i] { f(i) } else { old[i] })
        .collect()
}

/// One operand of a reference binop: lane values or an immediate.
#[derive(Clone, Copy)]
enum Arg<'a> {
    Lanes(&'a [Scalar]),
    Imm(Scalar),
}

impl Arg<'_> {
    fn at(self, i: usize) -> Scalar {
        match self {
            Arg::Lanes(v) => v[i],
            Arg::Imm(s) => s,
        }
    }
}

/// Every `BinOp` × element type × aliasing × immediate side, under every
/// mask shape, on both sides of the threshold.
#[test]
fn binop_kernels_match_scalar_reference() {
    #[derive(Clone, Copy, Debug)]
    enum Case {
        Fresh,     // d = a op b
        FreshSame, // d = a op a
        DstA,      // a = a op b
        DstB,      // b = a op b
        DstAll,    // a = a op a
        ImmR,      // d = a op k
        ImmL,      // d = k op b
        ImmRDst,   // a = a op k
        ImmLDst,   // b = k op b
    }
    use Case::*;
    for n in SIZES {
        let mut t = Bench::new(&[n]);
        for (mask_name, mask) in masks(n) {
            for ty in TYPES {
                let av = lanes(ty, 1, n);
                // Integer divisors: non-zero wherever a lane is active
                // (zero at an active lane is the error tested below) and
                // zero at every third inactive lane, where it must not
                // matter.
                let bv_plain = lanes(ty, 2, n);
                let bv_div: Vec<Scalar> = (0..n)
                    .map(|i| match bv_plain[i] {
                        Scalar::Int(_) if !mask[i] && i % 3 == 0 => Scalar::Int(0),
                        Scalar::Int(0) => Scalar::Int(7),
                        other => other,
                    })
                    .collect();
                let av_div: Vec<Scalar> = (0..n)
                    .map(|i| {
                        if av[i] == Scalar::Int(0) && mask[i] {
                            Scalar::Int(-9)
                        } else {
                            av[i]
                        }
                    })
                    .collect();
                let k = lane(ty, 4, 11);
                let k = if k == Scalar::Int(0) {
                    Scalar::Int(5)
                } else {
                    k
                };
                for op in BINOPS {
                    let Some(sample) = ref_binop(op, av[0], k) else {
                        // Undefined for this type: the machine must agree.
                        let a = t.field(ty, &av);
                        assert!(t.m.binop(op, a, a, a).is_err(), "{op:?} on {ty:?}");
                        assert!(t.m.binop_imm(op, a, a, k).is_err(), "{op:?} imm on {ty:?}");
                        t.free(&[a]);
                        continue;
                    };
                    let rty = sample.elem_type();
                    let divides = ty == ElemType::Int && matches!(op, BinOp::Div | BinOp::Mod);
                    let (av, bv) = if divides {
                        (&av_div, &bv_div)
                    } else {
                        (&av, &bv_plain)
                    };
                    for case in [
                        Fresh, FreshSame, DstA, DstB, DstAll, ImmR, ImmL, ImmRDst, ImmLDst,
                    ] {
                        let in_place = !matches!(case, Fresh | FreshSame | ImmR | ImmL);
                        if in_place && rty != ty {
                            continue; // a Bool result cannot overwrite a numeric operand
                        }
                        let a = t.field(ty, av);
                        let b = t.field(ty, bv);
                        let old_d: Vec<Scalar> = lanes(rty, 3, n);
                        let d = t.field(rty, &old_d);
                        let (dst, x, y, old_dst): (FieldId, Arg, Arg, &[Scalar]) = match case {
                            Fresh => (d, Arg::Lanes(av), Arg::Lanes(bv), &old_d),
                            FreshSame => (d, Arg::Lanes(av), Arg::Lanes(av), &old_d),
                            DstA => (a, Arg::Lanes(av), Arg::Lanes(bv), av),
                            DstB => (b, Arg::Lanes(av), Arg::Lanes(bv), bv),
                            DstAll => (a, Arg::Lanes(av), Arg::Lanes(av), av),
                            ImmR => (d, Arg::Lanes(av), Arg::Imm(k), &old_d),
                            ImmL => (d, Arg::Imm(k), Arg::Lanes(bv), &old_d),
                            ImmRDst => (a, Arg::Lanes(av), Arg::Imm(k), av),
                            ImmLDst => (b, Arg::Imm(k), Arg::Lanes(bv), bv),
                        };
                        let got = t
                            .masked(&mask, dst, |m| match case {
                                Fresh | DstA | DstB => m.binop(op, dst, a, b),
                                FreshSame | DstAll => m.binop(op, dst, a, a),
                                ImmR | ImmRDst => m.binop_imm(op, dst, a, k),
                                ImmL | ImmLDst => m.binop_imm_l(op, dst, k, b),
                            })
                            .unwrap_or_else(|e| {
                                panic!("{op:?} {ty:?} {case:?} n={n} mask={mask_name}: {e}")
                            });
                        let want = expect_masked(&mask, old_dst, |i| {
                            ref_binop(op, x.at(i), y.at(i)).unwrap()
                        });
                        assert!(
                            got == want,
                            "{op:?} {ty:?} {case:?} n={n} mask={mask_name}: first difference at \
                             lane {:?}",
                            got.iter().zip(&want).position(|(g, w)| g != w)
                        );
                        t.free(&[a, b, d]);
                    }
                }
            }
        }
    }
}

/// A zero divisor is an error exactly when some active lane would divide
/// by it, for a field divisor and for an immediate one, and an erroring
/// op writes nothing.
#[test]
fn zero_divisor_matters_only_at_active_lanes() {
    for n in SIZES {
        let mut t = Bench::new(&[n]);
        let zero_at = n - 3;
        let av = lanes(ElemType::Int, 1, n);
        let bv: Vec<Scalar> = (0..n)
            .map(|i| Scalar::Int(if i == zero_at { 0 } else { 1 + (i % 5) as i64 }))
            .collect();
        let old = lanes(ElemType::Int, 3, n);
        let mut hidden = vec![true; n];
        hidden[zero_at] = false;
        let mut exposed = vec![false; n];
        exposed[zero_at] = true;
        for op in [BinOp::Div, BinOp::Mod] {
            let a = t.field(ElemType::Int, &av);
            let b = t.field(ElemType::Int, &bv);
            let d = t.field(ElemType::Int, &old);
            // Field divisor, on either side of the op.
            let got = t.masked(&hidden, d, |m| m.binop(op, d, a, b)).unwrap();
            let want = expect_masked(&hidden, &old, |i| ref_binop(op, av[i], bv[i]).unwrap());
            assert!(
                got == want,
                "{op:?} n={n}: zero divisor at an inactive lane"
            );
            t.m.write_all(d, to_field(ElemType::Int, &old)).unwrap();
            let got = t
                .masked(&hidden, d, |m| m.binop_imm_l(op, d, 1000.into(), b))
                .unwrap();
            let want = expect_masked(&hidden, &old, |i| {
                ref_binop(op, Scalar::Int(1000), bv[i]).unwrap()
            });
            assert!(
                got == want,
                "{op:?} n={n}: imm / field with an inactive zero"
            );
            for mask in [&exposed, &vec![true; n]] {
                t.m.write_all(d, to_field(ElemType::Int, &old)).unwrap();
                let err = t.masked(mask, d, |m| m.binop(op, d, a, b)).unwrap_err();
                assert_eq!(
                    err,
                    CmError::DivideByZero,
                    "{op:?} n={n}: active zero divisor"
                );
                let err = t
                    .masked(mask, d, |m| m.binop_imm_l(op, d, 1000.into(), b))
                    .unwrap_err();
                assert_eq!(err, CmError::DivideByZero);
                assert!(
                    from_field(t.m.read_all(d).unwrap()) == old,
                    "a failed op wrote"
                );
            }
            // Immediate divisor: an error as soon as any lane is active.
            let none = vec![false; n];
            let got = t
                .masked(&none, d, |m| m.binop_imm(op, d, a, 0.into()))
                .unwrap();
            assert!(
                got == old,
                "{op:?} n={n}: x / 0 with no lane active is a no-op"
            );
            for mask in [&exposed, &hidden] {
                let err = t
                    .masked(mask, d, |m| m.binop_imm(op, d, a, 0.into()))
                    .unwrap_err();
                assert_eq!(
                    err,
                    CmError::DivideByZero,
                    "{op:?} n={n}: immediate zero divisor"
                );
                assert!(
                    from_field(t.m.read_all(d).unwrap()) == old,
                    "a failed op wrote"
                );
            }
            t.free(&[a, b, d]);
        }
    }
}

/// `unop`, `copy`, `convert` and `set_imm`, fresh and in place.
#[test]
fn unary_kernels_match_scalar_reference() {
    let ref_unop = |op: UnOp, x: Scalar| -> Option<Scalar> {
        Some(match (op, x) {
            (UnOp::Neg, Scalar::Int(p)) => Scalar::Int(p.wrapping_neg()),
            (UnOp::Abs, Scalar::Int(p)) => Scalar::Int(p.wrapping_abs()),
            (UnOp::BitNot, Scalar::Int(p)) => Scalar::Int(!p),
            (UnOp::Neg, Scalar::Float(p)) => Scalar::Float(-p),
            (UnOp::Abs, Scalar::Float(p)) => Scalar::Float(if p < 0.0 { -p } else { p }),
            (UnOp::Not, Scalar::Bool(p)) => Scalar::Bool(!p),
            _ => return None,
        })
    };
    let convert = |to: ElemType, x: Scalar| match to {
        ElemType::Int => Scalar::Int(x.as_int()),
        ElemType::Float => Scalar::Float(x.as_float()),
        ElemType::Bool => Scalar::Bool(x.as_bool()),
    };
    for n in SIZES {
        let mut t = Bench::new(&[n]);
        for (mask_name, mask) in masks(n) {
            for ty in TYPES {
                let mut av = lanes(ty, 1, n);
                if ty == ElemType::Int {
                    av[n / 2] = Scalar::Int(i64::MIN); // neg/abs must wrap, not trap
                }
                let old = lanes(ty, 3, n);
                for op in [UnOp::Neg, UnOp::Not, UnOp::BitNot, UnOp::Abs] {
                    let a = t.field(ty, &av);
                    let d = t.field(ty, &old);
                    if ref_unop(op, av[0]).is_none() {
                        assert!(t.m.unop(op, d, a).is_err(), "{op:?} on {ty:?}");
                        t.free(&[a, d]);
                        continue;
                    }
                    let got = t.masked(&mask, d, |m| m.unop(op, d, a)).unwrap();
                    let want = expect_masked(&mask, &old, |i| ref_unop(op, av[i]).unwrap());
                    assert!(got == want, "{op:?} {ty:?} n={n} mask={mask_name}");
                    let got = t.masked(&mask, a, |m| m.unop(op, a, a)).unwrap();
                    let want = expect_masked(&mask, &av, |i| ref_unop(op, av[i]).unwrap());
                    assert!(got == want, "{op:?} {ty:?} in place n={n} mask={mask_name}");
                    t.free(&[a, d]);
                }
                for to in TYPES {
                    let a = t.field(ty, &av);
                    let old_d = lanes(to, 3, n);
                    let d = t.field(to, &old_d);
                    let got = t.masked(&mask, d, |m| m.convert(d, a)).unwrap();
                    let want = expect_masked(&mask, &old_d, |i| convert(to, av[i]));
                    assert!(got == want, "convert {ty:?}->{to:?} n={n} mask={mask_name}");
                    t.free(&[a, d]);
                }
                let a = t.field(ty, &av);
                let d = t.field(ty, &old);
                let got = t.masked(&mask, d, |m| m.copy(d, a)).unwrap();
                assert!(got == expect_masked(&mask, &old, |i| av[i]), "copy {ty:?}");
                let got = t.masked(&mask, a, |m| m.copy(a, a)).unwrap();
                assert!(got == av, "copy onto itself {ty:?}");
                let k = lane(ty, 4, 11);
                let got = t.masked(&mask, d, |m| m.set_imm(d, k)).unwrap();
                let seen = expect_masked(&mask, &old, |i| av[i]);
                assert!(got == expect_masked(&mask, &seen, |_| k), "set_imm {ty:?}");
                t.free(&[a, d]);
            }
        }
    }
}

/// `select` with every operand aliased to the destination, alone and
/// together.
#[test]
fn select_kernels_match_scalar_reference() {
    for n in SIZES {
        let mut t = Bench::new(&[n]);
        for (mask_name, mask) in masks(n) {
            for ty in TYPES {
                let cv = lanes(ElemType::Bool, 5, n);
                let av = lanes(ty, 1, n);
                let bv = lanes(ty, 2, n);
                let old = lanes(ty, 3, n);
                // Which of (cond, a, b) are the destination itself; a
                // Bool destination may also be its own condition.
                for alias in 0u8..8 {
                    let (dc, da, db) = (alias & 4 != 0, alias & 2 != 0, alias & 1 != 0);
                    if dc && ty != ElemType::Bool {
                        continue;
                    }
                    let c = t.field(ElemType::Bool, &cv);
                    let a = t.field(ty, &av);
                    let b = t.field(ty, &bv);
                    let d = t.field(ty, &old);
                    let pick = |alias: bool, f: FieldId, v: &[Scalar]| {
                        if alias {
                            (d, old.clone())
                        } else {
                            (f, v.to_vec())
                        }
                    };
                    let ((c, cv), (a, av), (b, bv)) =
                        (pick(dc, c, &cv), pick(da, a, &av), pick(db, b, &bv));
                    let got = t.masked(&mask, d, |m| m.select(d, c, a, b)).unwrap();
                    let want =
                        expect_masked(&mask, &old, |i| if cv[i].as_bool() { av[i] } else { bv[i] });
                    assert!(
                        got == want,
                        "select {ty:?} dst==(cond:{dc}, a:{da}, b:{db}) n={n} mask={mask_name}"
                    );
                    // Sources that are not the destination are untouched.
                    for (f, v) in [(c, &cv), (a, &av), (b, &bv)] {
                        if f != d {
                            assert!(&from_field(t.m.read_all(f).unwrap()) == v);
                        }
                    }
                    t.m.free(d).unwrap();
                    for f in [c, a, b] {
                        let _ = t.m.free(f); // an aliased one is already gone
                    }
                }
                // Two sources that are one field, neither the destination.
                let c = t.field(ElemType::Bool, &cv);
                let a = t.field(ty, &av);
                let d = t.field(ty, &old);
                let got = t.masked(&mask, d, |m| m.select(d, c, a, a)).unwrap();
                assert!(
                    got == expect_masked(&mask, &old, |i| av[i]),
                    "select a==b {ty:?}"
                );
                t.free(&[c, a, d]);
            }
        }
    }
}

/// `axis_coord`'s run-filling kernel against `Geometry::axis_coordinate`:
/// 1-, 2- and 3-D geometries of each threshold size, every axis, every
/// mask shape. `PAR_THRESHOLD - 1` is prime, so its 2- and 3-D shapes have
/// unit axes; `3 × 2903` makes parts start inside a run. Inactive lanes
/// keep their old values.
#[test]
fn axis_coord_matches_the_geometry() {
    let shapes: [&[usize]; 9] = [
        &[PAR_THRESHOLD - 1],
        &[1, PAR_THRESHOLD - 1],
        &[PAR_THRESHOLD - 1, 1, 1],
        &[PAR_THRESHOLD],
        &[64, 128],
        &[16, 32, 16],
        &[PAR_THRESHOLD + 517],
        &[3, 2903],
        &[2903, 1, 3],
    ];
    for dims in shapes {
        let n: usize = dims.iter().product();
        let geom = Geometry::new(dims).unwrap();
        let mut t = Bench::new(dims);
        let old = lanes(ElemType::Int, 5, n);
        for (mask_name, mask) in masks(n) {
            for axis in 0..dims.len() {
                let d = t.field(ElemType::Int, &old);
                let got = t.masked(&mask, d, |m| m.axis_coord(d, axis)).unwrap();
                let want = expect_masked(&mask, &old, |i| {
                    Scalar::Int(geom.axis_coordinate(i, axis).unwrap() as i64)
                });
                assert_eq!(got, want, "{dims:?}, axis {axis}, {mask_name} mask");
                t.free(&[d]);
            }
        }
    }
}

/// NEWS shifts as block rotations against the per-element neighbour
/// walk: every border mode, rank, axis and offset class (none, one hop,
/// the far edge, exactly the extent, beyond it), masked and not, in place
/// and not, on geometries below and above the threshold.
#[test]
fn news_shift_matches_per_element_neighbors() {
    let shapes: [&[usize]; 6] = [
        &[7],
        &[PAR_THRESHOLD + 517],
        &[5, 6],
        &[96, 131],
        &[3, 4, 5],
        &[17, 24, 29],
    ];
    for dims in shapes {
        let g = Geometry::new(dims).unwrap();
        let n = g.size();
        let mut t = Bench::new(dims);
        let all = vec![true; n];
        let random: Vec<bool> = (0..n)
            .map(|i| i != 0 && !mix(0xBEEF, i as u64).is_multiple_of(3))
            .collect();
        for ty in TYPES {
            let sv = lanes(ty, 1, n);
            let old = lanes(ty, 3, n);
            let fill = lane(ty, 4, 11);
            for axis in 0..g.rank() {
                let e = g.extent(axis).unwrap() as i64;
                let mut offsets = vec![0, 1, -1, e - 1, 1 - e, e, -e, e + 3, -e - 3];
                offsets.dedup();
                // Float and Bool take the same code path per type; the
                // full offset sweep runs on Int.
                if ty != ElemType::Int {
                    offsets.truncate(5);
                }
                for &offset in &offsets {
                    for border in [Border::Wrap, Border::Fill(fill), Border::Keep] {
                        for mask in [&all, &random] {
                            for in_place in [false, true] {
                                let s = t.field(ty, &sv);
                                let d = if in_place { s } else { t.field(ty, &old) };
                                let old_d = if in_place { &sv } else { &old };
                                let got = t
                                    .masked(mask, d, |m| m.news_shift(d, s, axis, offset, border))
                                    .unwrap();
                                let want = expect_masked(mask, old_d, |i| match border {
                                    Border::Wrap => sv[g.neighbor_wrap(i, axis, offset).unwrap()],
                                    Border::Fill(v) => {
                                        g.neighbor(i, axis, offset).unwrap().map_or(v, |q| sv[q])
                                    }
                                    Border::Keep => g
                                        .neighbor(i, axis, offset)
                                        .unwrap()
                                        .map_or(old_d[i], |q| sv[q]),
                                });
                                assert!(
                                    got == want,
                                    "{ty:?} {dims:?} axis {axis} offset {offset} {border:?} \
                                     masked={} in_place={in_place}: first difference at {:?}",
                                    !mask[0],
                                    got.iter().zip(&want).position(|(g, w)| g != w)
                                );
                                t.m.free(s).unwrap();
                                if !in_place {
                                    t.m.free(d).unwrap();
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// The router's address check and gather against per-lane references, at
// one lane and on both sides of the threshold: an active out-of-range
// address is reported exactly as a sequential scan finds it first, an
// inactive one is never looked at, and a failed op writes nothing.
// ---------------------------------------------------------------------

const ROUTER_SIZES: [usize; 4] = [1, PAR_THRESHOLD - 1, PAR_THRESHOLD, PAR_THRESHOLD + 517];

fn ints(v: &[i64]) -> Vec<Scalar> {
    v.iter().map(|&a| Scalar::Int(a)).collect()
}

/// The first active address outside `0..size`, in lane order.
fn first_bad(addrs: &[i64], mask: &[bool], size: usize) -> Option<i64> {
    let bad = |&(&a, &m): &(&i64, &bool)| m && (a < 0 || a >= size as i64);
    addrs.iter().zip(mask).find(bad).map(|(&a, _)| a)
}

#[test]
fn router_get_matches_per_lane_gather() {
    for n in ROUTER_SIZES {
        let mut t = Bench::new(&[n]);
        for (mask_name, mask) in masks(n) {
            // Inactive lanes hold addresses no table has.
            let wild = [n as i64, -1, i64::MIN, i64::MAX];
            let addrs: Vec<i64> = (0..n)
                .map(|i| if mask[i] { (mix(7, i as u64) % n as u64) as i64 } else { wild[i % 4] })
                .collect();
            assert_eq!(first_bad(&addrs, &mask, n), None);
            let addr = t.field(ElemType::Int, &ints(&addrs));
            for ty in TYPES {
                let (table, old) = (lanes(ty, 1, n), lanes(ty, 3, n));
                let src = t.field(ty, &table);
                let dst = t.field(ty, &old);
                let got = t
                    .masked(&mask, dst, |m| m.get(dst, addr, src))
                    .unwrap_or_else(|e| panic!("get {ty:?} n={n} mask={mask_name}: {e}"));
                let want = expect_masked(&mask, &old, |i| table[addrs[i] as usize]);
                assert!(got == want, "get {ty:?} n={n} mask={mask_name}");
                t.free(&[src, dst]);
            }
            t.free(&[addr]);
        }
    }
}

#[test]
fn router_reports_the_first_bad_active_address() {
    for n in ROUTER_SIZES {
        let mut t = Bench::new(&[n]);
        for (mask_name, mask) in masks(n) {
            let active: Vec<usize> = (0..n).filter(|&i| mask[i]).collect();
            let Some(&last) = active.last() else { continue };
            let middle = active.iter().copied().find(|&i| i >= n / 2).unwrap_or(last);
            for (early, late) in [(n as i64, -1), (-1, n as i64), (i64::MIN, i64::MAX)] {
                let mut addrs: Vec<i64> = (0..n as i64).rev().collect();
                for (i, a) in addrs.iter_mut().enumerate() {
                    if !mask[i] {
                        *a = i64::MAX - i as i64; // never reported
                    }
                }
                addrs[last] = late;
                addrs[middle] = early;
                let want = CmError::AddressOutOfRange {
                    addr: first_bad(&addrs, &mask, n).expect("an active bad lane"),
                    size: n,
                };
                let addr = t.field(ElemType::Int, &ints(&addrs));
                let old = lanes(ElemType::Int, 3, n);
                let src = t.field(ElemType::Int, &lanes(ElemType::Int, 1, n));
                let dst = t.field(ElemType::Int, &old);
                let err = t.masked(&mask, dst, |m| m.get(dst, addr, src)).unwrap_err();
                assert_eq!(err, want, "get n={n} mask={mask_name}");
                assert!(from_field(t.m.read_all(dst).unwrap()) == old, "a failed get wrote");
                let err = t
                    .masked(&mask, dst, |m| m.send(dst, addr, src, Combine::Overwrite))
                    .unwrap_err();
                assert_eq!(err, want, "send n={n} mask={mask_name}");
                assert!(from_field(t.m.read_all(dst).unwrap()) == old, "a failed send wrote");
                t.free(&[addr, src, dst]);
            }
        }
    }
}

/// `vp_ratio` is the least `r >= 1` with `r * p >= vp_size` (a machine of
/// no processors counts as one), on both sides of `p` and at zero.
#[test]
fn vp_ratio_is_the_ceiling_ratio() {
    for p in [0usize, 1, 2, 7, 16 * 1024] {
        let q = p.max(1);
        for v in [0, 1, q - 1, q, q + 1, 2 * q, 2 * q + 1, 5 * q - 1] {
            let want = (1u64..).find(|&r| r * q as u64 >= v as u64).unwrap();
            assert_eq!(uc_cm::cost::vp_ratio(v, p), want, "vp_ratio({v}, {p})");
        }
    }
}

// ---------------------------------------------------------------------
// The undefined-field contract of `Machine::alloc_result`: a result field
// keeps whatever its pooled buffer held until an op defines it. An op
// whose write covers every lane skips the zero-fill; every other first
// write zero-fills first. Either way the result must read exactly what
// the same op leaves in a zeroed `Machine::alloc` field, and reading it
// before any op wrote it is an error.
// ---------------------------------------------------------------------

const UNDEFINED: CmError = CmError::Unsupported("internal: read of an undefined field");

/// Park dirty buffers of `ty` in the scratch pool: allocate more fields
/// than the pool keeps, write non-zero values into them, free them.
fn dirty_pool(m: &mut Machine, vp: VpSetId, ty: ElemType) {
    let junk = match ty {
        ElemType::Int => Scalar::Int(-77),
        ElemType::Float => Scalar::Float(-7.5),
        ElemType::Bool => Scalar::Bool(true),
    };
    let fields: Vec<FieldId> = (0..40).map(|_| m.alloc(vp, "junk", ty).unwrap()).collect();
    for &f in &fields {
        m.fill_unconditional(f, junk).unwrap();
    }
    for f in fields {
        m.free(f).unwrap();
    }
}

/// The sources every case below reads.
struct Srcs {
    a: FieldId,
    b: FieldId,
    c: FieldId,
    /// In-range router addresses that reach only the even lanes.
    addr: FieldId,
}

type DefineOp = fn(&mut Machine, FieldId, &Srcs) -> uc_cm::Result<()>;

/// Every op that can be a result's first write, with its result type:
/// first the ones that cover every lane (under an all-active mask, for the
/// masked ones), then the ones that never do.
fn defining_ops() -> Vec<(&'static str, ElemType, DefineOp)> {
    vec![
        ("fill_unconditional", ElemType::Int, |m, d, _| {
            m.fill_unconditional(d, Scalar::Int(5))
        }),
        ("copy_unconditional", ElemType::Int, |m, d, s| m.copy_unconditional(d, s.a)),
        ("read_context", ElemType::Bool, |m, d, _| m.read_context(d)),
        ("write_all", ElemType::Int, |m, d, _| {
            let n = m.vp_size(d.vp_set())?;
            m.write_all(d, FieldData::I64((0..n as i64).map(|i| 3 - i).collect()))
        }),
        ("set_imm", ElemType::Int, |m, d, _| m.set_imm(d, Scalar::Int(9))),
        ("copy", ElemType::Int, |m, d, s| m.copy(d, s.a)),
        ("convert", ElemType::Float, |m, d, s| m.convert(d, s.a)),
        ("unop", ElemType::Int, |m, d, s| m.unop(UnOp::Neg, d, s.a)),
        ("binop", ElemType::Int, |m, d, s| m.binop(BinOp::Add, d, s.a, s.b)),
        ("binop_imm", ElemType::Bool, |m, d, s| {
            m.binop_imm(BinOp::Lt, d, s.a, Scalar::Int(0))
        }),
        ("binop_imm_l", ElemType::Int, |m, d, s| {
            m.binop_imm_l(BinOp::Sub, d, Scalar::Int(10), s.b)
        }),
        ("select", ElemType::Int, |m, d, s| m.select(d, s.c, s.a, s.b)),
        ("iota", ElemType::Int, |m, d, _| m.iota(d)),
        ("axis_coord", ElemType::Int, |m, d, _| m.axis_coord(d, 1)),
        ("rand_int", ElemType::Int, |m, d, _| m.rand_int(d, 100, 7)),
        ("news_shift wrap", ElemType::Int, |m, d, s| {
            m.news_shift(d, s.a, 1, 1, Border::Wrap)
        }),
        ("news_shift fill", ElemType::Int, |m, d, s| {
            m.news_shift(d, s.a, 0, -1, Border::Fill(Scalar::Int(-4)))
        }),
        ("get", ElemType::Int, |m, d, s| m.get(d, s.addr, s.b)),
        // Writes that never cover: a lane they leave alone must read 0.
        ("news_shift keep", ElemType::Int, |m, d, s| {
            m.news_shift(d, s.a, 1, 1, Border::Keep)
        }),
        ("send", ElemType::Int, |m, d, s| m.send(d, s.addr, s.a, Combine::Add)),
        ("write_elem", ElemType::Int, |m, d, _| m.write_elem(d, 3, Scalar::Int(7))),
        ("scan", ElemType::Int, |m, d, s| m.scan(d, s.a, ReduceOp::Add, true, None)),
        ("binop in place", ElemType::Int, |m, d, s| m.binop(BinOp::Sub, d, d, s.a)),
    ]
}

#[test]
fn a_result_reads_what_a_storage_field_would() {
    for dims in [[6usize, 8], [96, 131]] {
        let n = dims[0] * dims[1];
        let mut m = Machine::with_defaults();
        let vp = m.new_vp_set("v", &dims).unwrap();
        let field = |m: &mut Machine, data: FieldData| {
            let f = m.alloc(vp, "src", data.elem_type()).unwrap();
            m.write_all(f, data).unwrap();
            f
        };
        let s = Srcs {
            a: field(&mut m, to_field(ElemType::Int, &lanes(ElemType::Int, 1, n))),
            b: field(&mut m, to_field(ElemType::Int, &lanes(ElemType::Int, 2, n))),
            c: field(&mut m, to_field(ElemType::Bool, &lanes(ElemType::Bool, 5, n))),
            addr: field(&mut m, FieldData::I64((0..n as i64).map(|i| i / 2 * 2).collect())),
        };
        let mask_field = m.alloc_bool(vp, "mask").unwrap();
        let [all, none, random, _] = masks(n);
        for (mask_name, mask) in [all, none, random] {
            m.write_all(mask_field, FieldData::Bool(mask.clone())).unwrap();
            for (name, ty, op) in defining_ops() {
                let run = |m: &mut Machine, d: FieldId| {
                    m.push_context(mask_field).unwrap();
                    op(m, d, &s).unwrap_or_else(|e| panic!("{name} n={n} {mask_name}: {e}"));
                    m.pop_context(vp).unwrap();
                    let out = m.read_all(d).unwrap();
                    m.free(d).unwrap();
                    out
                };
                let stored = m.alloc(vp, "stored", ty).unwrap();
                let want = run(&mut m, stored);
                dirty_pool(&mut m, vp, ty);
                let result = m.alloc_result(vp, "result", ty).unwrap();
                let got = run(&mut m, result);
                assert!(
                    got == want,
                    "{name} n={n} mask={mask_name}: first difference at lane {:?}",
                    from_field(got.clone())
                        .iter()
                        .zip(from_field(want.clone()))
                        .position(|(g, w)| *g != w)
                );
            }
        }
    }
}

#[test]
fn reading_an_undefined_field_is_an_error() {
    let mut m = Machine::with_defaults();
    let vp = m.new_vp_set("v", &[64]).unwrap();
    let a = m.alloc_int(vp, "a").unwrap();
    let d = m.alloc_int(vp, "d").unwrap();
    m.iota(a).unwrap();
    dirty_pool(&mut m, vp, ElemType::Int);
    let u = m.alloc_result(vp, "u", ElemType::Int).unwrap();

    assert_eq!(m.binop(BinOp::Add, d, u, a), Err(UNDEFINED), "left operand");
    assert_eq!(m.binop(BinOp::Add, d, a, u), Err(UNDEFINED), "right operand");
    assert_eq!(m.binop(BinOp::Div, d, a, u), Err(UNDEFINED), "divisor check");
    assert_eq!(m.int_data(u), Err(UNDEFINED));
    assert_eq!(m.read_elem(u, 0), Err(UNDEFINED));
    assert_eq!(m.read_all(u), Err(UNDEFINED));
    assert_eq!(m.reduce(u, ReduceOp::Add), Err(UNDEFINED));
    assert_eq!(m.any_ne(u, a), Err(UNDEFINED));
    assert_eq!(m.any_ne(a, u), Err(UNDEFINED));
    assert_eq!(m.get(d, a, u), Err(UNDEFINED), "router source");
    // Its type and length stay readable.
    assert_eq!(m.elem_type(u), Ok(ElemType::Int));
    assert_eq!(m.vp_size(u.vp_set()), Ok(64));

    // A failed op leaves it undefined; a successful one defines it.
    assert!(m.set_imm(u, Scalar::Float(1.0)).is_err());
    assert_eq!(m.int_data(u), Err(UNDEFINED));
    m.iota(u).unwrap();
    assert_eq!(m.int_data(u).unwrap(), m.int_data(a).unwrap());

    // An undefined mask cannot be pushed, and freeing a result before
    // any op wrote it is fine.
    let mask = m.alloc_result(vp, "mask", ElemType::Bool).unwrap();
    assert_eq!(m.push_context(mask), Err(UNDEFINED));
    m.free(mask).unwrap();
    let z = m.alloc_int(vp, "z").unwrap();
    assert!(m.int_data(z).unwrap().iter().all(|&x| x == 0), "storage reads 0");
}

#[test]
fn allocating_a_second_result_zero_fills_the_first() {
    for ty in TYPES {
        let mut m = Machine::with_defaults();
        let vp = m.new_vp_set("v", &[PAR_THRESHOLD + 517]).unwrap();
        dirty_pool(&mut m, vp, ty);
        let first = m.alloc_result(vp, "first", ty).unwrap();
        let second = m.alloc_result(vp, "second", ty).unwrap();
        let zeros = to_field(ty, &vec![Scalar::Int(0); PAR_THRESHOLD + 517]);
        assert_eq!(m.read_all(first), Ok(zeros), "{ty:?}");
        assert_eq!(m.read_all(second), Err(UNDEFINED), "{ty:?}");
    }
}
