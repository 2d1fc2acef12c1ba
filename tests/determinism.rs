//! Bit-for-bit determinism across thread counts.
//!
//! The parallel runtime (shims/rayon driving `uc_cm::par`) promises that
//! results never depend on how many threads execute a kernel: chunk
//! boundaries are a function of element count only, so even float
//! fold/scan association is fixed. This suite enforces that promise the
//! only way an env-var-sized global pool can be tested — by re-running
//! this very test binary as a subprocess under `UC_THREADS=1`, `2` and
//! `8` and comparing digests of everything observable: field contents
//! (floats via `to_bits`), `cycles()`, and per op class the op count and
//! the summed VP ratio of the machine's tally. Each digest also checks
//! that the machine's cycles are `cost · tally`.
//!
//! The child side is the `emit_digests_when_asked` test, which only does
//! work when `UC_DET_CHILD` is set; it prints one `DIGEST <name> <hex>`
//! line per kernel.

use std::collections::BTreeMap;
use std::process::Command;

use uc::cm::cost::CostModel;
use uc::cm::{Combine, FieldData, Machine, ReduceOp, Scalar};

/// Large enough that every wired hot path (`PAR_THRESHOLD = 1 << 13`)
/// takes its parallel branch.
const N: usize = 1 << 14;

/// FNV-1a, inlined so the digest does not depend on any crate internals.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Fold a machine's full observable state into a digest: every field the
/// kernel left behind plus its cost (cycles, and the tally's per-class
/// counts and VP-ratio sums).
fn digest_machine(m: &Machine, fields: &[uc::cm::FieldId], h: &mut Fnv) {
    for &f in fields {
        match m.elem_type(f).unwrap() {
            uc::cm::ElemType::Int => {
                for &v in m.int_data(f).unwrap() {
                    h.write_u64(v as u64);
                }
            }
            uc::cm::ElemType::Float => {
                for &v in m.float_data(f).unwrap() {
                    h.write_u64(v.to_bits());
                }
            }
            uc::cm::ElemType::Bool => {
                for &v in m.bool_data(f).unwrap() {
                    h.write(&[v as u8]);
                }
            }
        }
    }
    let t = m.tally();
    assert_eq!(m.cycles(), CostModel::default().cycles(t), "cycles are cost · tally");
    h.write_u64(m.cycles());
    for v in t.ops.iter().chain(&t.ratio) {
        h.write_u64(*v);
    }
}

fn scalar_digest(s: Scalar, h: &mut Fnv) {
    match s {
        Scalar::Int(i) => h.write_u64(i as u64),
        Scalar::Float(f) => h.write_u64(f.to_bits()),
        Scalar::Bool(b) => h.write(&[b as u8]),
    }
}

/// Router send with heavy collisions under every combine mode, plus the
/// collision-detecting variant.
fn kernel_router_send() -> u64 {
    let mut h = Fnv::new();
    for combine in [Combine::Overwrite, Combine::Add, Combine::Min, Combine::Max] {
        let mut m = Machine::with_defaults();
        let vp = m.new_vp_set("senders", &[N]).unwrap();
        let src = m.alloc_int(vp, "src").unwrap();
        let addr = m.alloc_int(vp, "addr").unwrap();
        let dst = m.alloc_int(vp, "dst").unwrap();
        m.iota(src).unwrap();
        // Addresses land in [0, N/8): ~8 colliding senders per slot.
        m.rand_int(addr, (N / 8) as i64, 0x5eed).unwrap();
        m.fill_unconditional(dst, Scalar::Int(-1)).unwrap();
        let distinct = m.send_detect(dst, addr, src, combine).unwrap();
        h.write(&[distinct as u8]);
        digest_machine(&m, &[src, addr, dst], &mut h);
    }
    h.finish()
}

/// Router get (collision-free gather) through random addresses, with an
/// inactive stripe so masked positions stay untouched.
fn kernel_router_get() -> u64 {
    let mut h = Fnv::new();
    let mut m = Machine::with_defaults();
    let vp = m.new_vp_set("getters", &[N]).unwrap();
    let table = m.alloc_int(vp, "table").unwrap();
    let addr = m.alloc_int(vp, "addr").unwrap();
    let out = m.alloc_int(vp, "out").unwrap();
    let mask = m.alloc_bool(vp, "mask").unwrap();
    m.iota(table).unwrap();
    m.binop_imm(uc::cm::BinOp::Mul, table, table, Scalar::Int(3)).unwrap();
    m.rand_int(addr, N as i64, 0xfe7c).unwrap();
    m.fill_unconditional(out, Scalar::Int(-7)).unwrap();
    m.write_all(mask, FieldData::Bool((0..N).map(|i| i % 3 != 0).collect())).unwrap();
    m.push_context(mask).unwrap();
    m.get(out, addr, table).unwrap();
    m.pop_context(vp).unwrap();
    h.write(&[0x67]);
    digest_machine(&m, &[table, addr, out, mask], &mut h);
    h.finish()
}

/// Scan chains: unsegmented / masked / segmented integer scans and a
/// float `+`-scan whose association must not move with the thread count.
fn kernel_scan_chain() -> u64 {
    let mut h = Fnv::new();
    let mut m = Machine::with_defaults();
    let vp = m.new_vp_set("scans", &[N]).unwrap();
    let src = m.alloc_int(vp, "src").unwrap();
    let acc = m.alloc_int(vp, "acc").unwrap();
    let segs = m.alloc_bool(vp, "segs").unwrap();
    let mask = m.alloc_bool(vp, "mask").unwrap();
    m.rand_int(src, 1000, 0xabcd).unwrap();
    m.scan(acc, src, ReduceOp::Add, true, None).unwrap();
    m.scan(acc, acc, ReduceOp::Max, false, None).unwrap();
    m.write_all(segs, FieldData::Bool((0..N).map(|i| i % 1021 == 0).collect())).unwrap();
    m.scan(acc, acc, ReduceOp::Add, true, Some(segs)).unwrap();
    m.write_all(mask, FieldData::Bool((0..N).map(|i| i % 5 != 2).collect())).unwrap();
    m.push_context(mask).unwrap();
    m.scan(acc, acc, ReduceOp::Min, false, None).unwrap();
    m.pop_context(vp).unwrap();
    digest_machine(&m, &[src, acc, segs, mask], &mut h);

    let fsrc = m.alloc_float(vp, "fsrc").unwrap();
    let facc = m.alloc_float(vp, "facc").unwrap();
    m.write_all(
        fsrc,
        FieldData::F64((0..N).map(|i| (i as f64 + 0.25) * 1e-3).collect()),
    )
    .unwrap();
    m.scan(facc, fsrc, ReduceOp::Add, true, None).unwrap();
    m.scan(facc, facc, ReduceOp::Add, false, None).unwrap();
    digest_machine(&m, &[fsrc, facc], &mut h);
    h.finish()
}

/// Reductions, including float `+` (association-sensitive) and `Arb`
/// (which must deterministically pick the first active operand).
fn kernel_reduce_suite() -> u64 {
    let mut h = Fnv::new();
    let mut m = Machine::with_defaults();
    let vp = m.new_vp_set("reds", &[N]).unwrap();
    let src = m.alloc_int(vp, "src").unwrap();
    let mask = m.alloc_bool(vp, "mask").unwrap();
    m.rand_int(src, 1 << 20, 0x1234).unwrap();
    m.write_all(mask, FieldData::Bool((0..N).map(|i| i % 7 != 3).collect())).unwrap();
    m.push_context(mask).unwrap();
    for op in [
        ReduceOp::Add,
        ReduceOp::Mul,
        ReduceOp::Min,
        ReduceOp::Max,
        ReduceOp::And,
        ReduceOp::Or,
        ReduceOp::Xor,
        ReduceOp::Arb,
    ] {
        scalar_digest(m.reduce(src, op).unwrap(), &mut h);
    }
    m.pop_context(vp).unwrap();

    let fsrc = m.alloc_float(vp, "fsrc").unwrap();
    m.write_all(
        fsrc,
        FieldData::F64((0..N).map(|i| ((i * 37) % 1009) as f64 * 1e-2).collect()),
    )
    .unwrap();
    for op in [ReduceOp::Add, ReduceOp::Min, ReduceOp::Max] {
        scalar_digest(m.reduce(fsrc, op).unwrap(), &mut h);
    }
    digest_machine(&m, &[src, mask, fsrc], &mut h);
    h.finish()
}

/// An elementwise chain through the wired `ops.rs` paths: binops,
/// select, masked fill and the parallel `any_ne` comparison.
fn kernel_elementwise() -> u64 {
    let mut h = Fnv::new();
    let mut m = Machine::with_defaults();
    let vp = m.new_vp_set("elems", &[N]).unwrap();
    let a = m.alloc_int(vp, "a").unwrap();
    let b = m.alloc_int(vp, "b").unwrap();
    let c = m.alloc_int(vp, "c").unwrap();
    let cond = m.alloc_bool(vp, "cond").unwrap();
    m.iota(a).unwrap();
    m.rand_int(b, 1 << 16, 0x77).unwrap();
    m.binop(uc::cm::BinOp::Add, c, a, b).unwrap();
    m.binop_imm(uc::cm::BinOp::Mod, c, c, Scalar::Int(911)).unwrap();
    m.binop(uc::cm::BinOp::Lt, cond, c, b).unwrap();
    m.select(c, cond, a, b).unwrap();
    h.write(&[m.any_ne(a, c).unwrap() as u8]);
    m.fill_unconditional(b, Scalar::Int(42)).unwrap();
    digest_machine(&m, &[a, b, c, cond], &mut h);
    h.finish()
}

/// The paper's Figure 6/7 pipelines end to end (UC compile + run + C*
/// baseline), digested through their rendered JSON.
fn kernel_figures() -> u64 {
    let mut h = Fnv::new();
    h.write(uc_bench::to_json(&uc_bench::fig6(&[4, 8])).as_bytes());
    h.write(uc_bench::to_json(&uc_bench::fig7(&[4, 8])).as_bytes());
    h.finish()
}

fn all_kernels() -> Vec<(&'static str, u64)> {
    vec![
        ("router_send", kernel_router_send()),
        ("router_get", kernel_router_get()),
        ("scan_chain", kernel_scan_chain()),
        ("reduce_suite", kernel_reduce_suite()),
        ("elementwise", kernel_elementwise()),
        ("figures", kernel_figures()),
    ]
}

/// Child half of the subprocess protocol: inert unless `UC_DET_CHILD` is
/// set, in which case the pool has already been sized from the parent's
/// `UC_THREADS` and we print one digest line per kernel.
#[test]
fn emit_digests_when_asked() {
    if std::env::var("UC_DET_CHILD").is_err() {
        return;
    }
    for (name, digest) in all_kernels() {
        println!("DIGEST {name} {digest:016x}");
    }
}

fn digests_under(threads: &str) -> BTreeMap<String, String> {
    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new(exe)
        .args(["emit_digests_when_asked", "--exact", "--nocapture", "--test-threads=1"])
        .env("UC_DET_CHILD", "1")
        .env("UC_THREADS", threads)
        .output()
        .expect("spawn child test binary");
    assert!(
        out.status.success(),
        "child under UC_THREADS={threads} failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    // The libtest harness glues its "test ... " progress prefix onto the
    // first digest (no newline before our println!), so match the marker
    // anywhere in the line rather than only at the start.
    let map: BTreeMap<String, String> = stdout
        .lines()
        .filter_map(|l| l.split("DIGEST ").nth(1))
        .filter_map(|l| {
            let (name, hex) = l.split_once(' ')?;
            Some((name.to_string(), hex.to_string()))
        })
        .collect();
    assert_eq!(map.len(), all_kernels().len(), "missing digest lines:\n{stdout}");
    map
}

/// The headline guarantee: every kernel digest — field bits, cycles and
/// op counters — is identical under 1, 2 and 8 threads.
#[test]
fn bit_identical_across_thread_counts() {
    if std::env::var("UC_DET_CHILD").is_ok() {
        return; // don't recurse when the whole binary runs in a child
    }
    let one = digests_under("1");
    let two = digests_under("2");
    let eight = digests_under("8");
    for (name, d1) in &one {
        assert_eq!(d1, &two[name], "kernel {name}: UC_THREADS=1 vs 2 diverge");
        assert_eq!(d1, &eight[name], "kernel {name}: UC_THREADS=1 vs 8 diverge");
    }
}

/// The digests must also be stable run-to-run at a fixed thread count —
/// otherwise the cross-thread-count comparison could pass vacuously on
/// noise cancelling out.
#[test]
fn digests_are_stable_within_a_thread_count() {
    if std::env::var("UC_DET_CHILD").is_ok() {
        return;
    }
    assert_eq!(digests_under("2"), digests_under("2"));
}
