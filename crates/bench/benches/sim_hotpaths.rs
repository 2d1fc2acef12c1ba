//! Bench for the simulator's hot paths: router sends/gets,
//! scans, elementwise ALU ops and NEWS shifts are where the CM simulator
//! spends its time for any non-trivial program (see `uc_cm::router`,
//! `uc_cm::scan`, `uc_cm::ops` and `uc_cm::news`). These benches track
//! host wall-clock of those primitives in isolation so optimizations and
//! regressions show up without the compiler pipeline in the way.
//!
//! The router and scan chains include building their machine; the ALU and
//! NEWS groups build it once per sample and time [`REPS`] back-to-back
//! instructions on warm fields, which is how a `par` body issues them.
//! The temporary group times what an expression temporary costs around
//! its one instruction: allocate a result, `binop` into it, free it.
//! The router, ALU and temporary groups also run at [`SMALL`] VPs, the
//! 16 × 16 sets of the benchmark's `apsp_n2`, where per-op bookkeeping
//! outweighs the elements.
//!
//! Each bench prints `  group/id: mean …, min … (n samples)`, the line
//! `BENCH_sim_hotpaths.json` is recorded from.

use std::hint::black_box;
use std::time::{Duration, Instant};
use uc_cm::news::Border;
use uc_cm::{BinOp, Combine, ElemType, FieldData, FieldId, Machine, ReduceOp, Scalar};

const SIZES: [usize; 3] = [1 << 10, 1 << 14, 1 << 16];

/// The extra point of the router, ALU and temporary groups.
const SMALL: usize = 1 << 8;

/// Instructions per timed iteration of the ALU and NEWS groups.
const REPS: usize = 16;

/// Runs `sample` once to warm up, then `samples` times, and prints the
/// mean and the fastest of the timed runs. Each run returns the host time
/// it measured, so it can leave its own setup out.
fn bench(label: &str, samples: u32, mut sample: impl FnMut() -> Duration) {
    sample();
    let times: Vec<Duration> = (0..samples).map(|_| sample()).collect();
    let mean = times.iter().sum::<Duration>() / samples;
    let min = times.iter().min().expect("at least one sample");
    println!("  {label}: mean {mean:?}, min {min:?} ({samples} samples)");
}

/// Host time of one call of `f`.
fn time<O>(f: impl FnOnce() -> O) -> Duration {
    let start = Instant::now();
    black_box(f());
    start.elapsed()
}

fn router_roundtrip(n: usize) -> i64 {
    let mut m = Machine::with_defaults();
    let vp = m.new_vp_set("v", &[n]).unwrap();
    let src = m.alloc_int(vp, "src").unwrap();
    let addr = m.alloc_int(vp, "addr").unwrap();
    let dst = m.alloc_int(vp, "dst").unwrap();
    m.iota(src).unwrap();
    // Reverse permutation: addr[i] = n - 1 - i.
    m.binop_imm_l(BinOp::Sub, addr, ((n - 1) as i64).into(), src)
        .unwrap();
    m.send(dst, addr, src, Combine::Overwrite).unwrap();
    m.get(src, addr, dst).unwrap();
    m.reduce(src, ReduceOp::Add).unwrap().as_int()
}

fn scan_chain(n: usize) -> i64 {
    let mut m = Machine::with_defaults();
    let vp = m.new_vp_set("v", &[n]).unwrap();
    let a = m.alloc_int(vp, "a").unwrap();
    let b = m.alloc_int(vp, "b").unwrap();
    m.iota(a).unwrap();
    m.scan(b, a, ReduceOp::Add, false, None).unwrap();
    m.scan(a, b, ReduceOp::Max, true, None).unwrap();
    m.reduce(a, ReduceOp::Add).unwrap().as_int()
}

fn bench_router() {
    println!("group router_hotpath");
    for n in [SMALL].into_iter().chain(SIZES) {
        bench(&format!("router_hotpath/send_get/{n}"), 10, || {
            time(|| router_roundtrip(n))
        });
    }
}

fn bench_scan() {
    println!("group scan_hotpath");
    for n in SIZES {
        bench(&format!("scan_hotpath/scan_reduce/{n}"), 10, || {
            time(|| scan_chain(n))
        });
    }
}

/// A square 2-D machine of `n` VPs with three int fields and a bool one,
/// under an every-other-lane context when `half` is set.
fn grid(n: usize, half: bool) -> (Machine, [FieldId; 3], FieldId) {
    let side = n.isqrt();
    assert_eq!(side * side, n, "sizes are even powers of two");
    let mut m = Machine::with_defaults();
    let vp = m.new_vp_set("g", &[side, side]).unwrap();
    let ints = [(); 3].map(|()| m.alloc_int(vp, "x").unwrap());
    for (k, &f) in ints.iter().enumerate() {
        m.iota(f).unwrap();
        m.binop_imm(BinOp::BitAnd, f, f, Scalar::Int(0xFF >> k))
            .unwrap();
    }
    let cond = m.alloc_bool(vp, "c").unwrap();
    m.write_all(cond, FieldData::Bool((0..n).map(|i| i % 2 == 0).collect()))
        .unwrap();
    if half {
        m.push_context(cond).unwrap();
    }
    (m, ints, cond)
}

fn bench_alu() {
    type Op = fn(&mut Machine, [FieldId; 3], FieldId) -> uc_cm::Result<()>;
    let ops: [(&str, Op); 4] = [
        ("binop", |m, [d, a, b], _| m.binop(BinOp::Add, d, a, b)),
        ("binop_imm", |m, [d, a, _], _| {
            m.binop_imm(BinOp::Add, d, a, Scalar::Int(1))
        }),
        ("binop_in_place", |m, [d, a, _], _| {
            m.binop(BinOp::Add, d, d, a)
        }),
        ("select", |m, [d, a, b], c| m.select(d, c, a, b)),
    ];
    println!("group alu_hotpath");
    for (name, op) in ops {
        for (mask, half) in [("all", false), ("half", true)] {
            for n in [SMALL].into_iter().chain(SIZES) {
                bench(&format!("alu_hotpath/{name}_{mask}/{n}"), 20, || {
                    let (mut m, ints, cond) = grid(n, half);
                    let t = time(|| {
                        for _ in 0..REPS {
                            op(&mut m, ints, cond).unwrap();
                        }
                    });
                    black_box(m.read_elem(ints[0], n - 1).unwrap());
                    t
                });
            }
        }
    }
}

fn bench_news() {
    println!("group news_hotpath");
    for (axis_name, axis) in [("axis0", 0), ("last_axis", 1)] {
        for (border_name, border) in [
            ("wrap", Border::Wrap),
            ("fill", Border::Fill(Scalar::Int(-1))),
        ] {
            for n in SIZES {
                bench(
                    &format!("news_hotpath/{axis_name}_{border_name}/{n}"),
                    20,
                    || {
                        let (mut m, [d, a, _], _) = grid(n, false);
                        let t = time(|| {
                            for _ in 0..REPS {
                                m.news_shift(d, a, axis, 1, border).unwrap();
                            }
                        });
                        black_box(m.read_elem(d, n - 1).unwrap());
                        t
                    },
                );
            }
        }
    }
}

/// [`REPS`] rounds of an expression temporary's life on a warm pool:
/// allocate a result, `binop` into it, free it.
fn bench_temp() {
    fn round(m: &mut Machine, a: FieldId, b: FieldId) {
        let d = m.alloc_result(a.vp_set(), "~bin", ElemType::Int).unwrap();
        m.binop(BinOp::Add, d, a, b).unwrap();
        m.free(d).unwrap();
    }
    println!("group temp_hotpath");
    for (mask, half) in [("all", false), ("half", true)] {
        for n in [SMALL].into_iter().chain(SIZES) {
            bench(&format!("temp_hotpath/alloc_binop_free_{mask}/{n}"), 20, || {
                let (mut m, [_, a, b], _) = grid(n, half);
                round(&mut m, a, b); // the pool's first buffer
                time(|| {
                    for _ in 0..REPS {
                        round(&mut m, a, b);
                    }
                })
            });
        }
    }
}

fn main() {
    bench_router();
    bench_scan();
    bench_alu();
    bench_news();
    bench_temp();
}
