//! The six workloads: seed → UC source text plus the expected final value
//! of every global. Expectations come from plain Rust loops over `Vec`s —
//! Floyd–Warshall, BFS, a gather loop, a Collatz loop and the generator's
//! own arithmetic — and share no code with the compiler or the simulator.
//!
//! The seed changes the *data* of a workload (weights, permutation, wall
//! position, constants), never its amount of work: `sim_cycles` and every
//! op count are the same for all seeds of one workload.

use crate::frontend_gen;

/// Router primitive a workload's router ops are costed as in `cm.est_ms`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterUse {
    Get,
    Send,
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (also `BENCHMARK.json`'s `why`).
    pub why: &'static str,
    /// Largest VP-set geometry the program creates; the traced pass drives
    /// the machine micro-kernels at this shape.
    pub geometry: &'static [usize],
    pub router_use: RouterUse,
    /// Lint codes `uc check` may report on this workload; anything else
    /// counts as a failed check.
    pub allowed_lints: &'static [&'static str],
    source: fn(u64) -> String,
    expected: fn(u64) -> Expected,
}

/// Final value of every global the program declares.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Expected {
    pub scalars: Vec<(String, i64)>,
    pub arrays: Vec<(String, Vec<i64>)>,
}

/// One seeded instance of a workload.
#[derive(Debug, Clone)]
pub struct Instance {
    pub source: String,
    pub expected: Expected,
}

impl Workload {
    pub fn instance(&self, seed: u64) -> Instance {
        Instance {
            source: (self.source)(seed),
            expected: (self.expected)(seed),
        }
    }
}

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "apsp_n2",
        why: "Fig 4/6 APSP at N=16 x256: ~83k machine ops on 256-VP sets, so per-op executor dispatch and tree escapes dominate and cm/pool do almost nothing",
        geometry: &[16, 16],
        router_use: RouterUse::Get,
        allowed_lints: &[],
        source: apsp_n2_source,
        expected: apsp_n2_expected,
    },
    Workload {
        name: "apsp_n3",
        why: "Fig 5/7 APSP at N=64: ~220 machine ops on a 262144-VP space, so router combining sends and min-reductions dominate and executor overhead is noise",
        geometry: &[64, 64, 64],
        router_use: RouterUse::Send,
        allowed_lints: &[],
        source: apsp_n3_source,
        expected: apsp_n3_expected,
    },
    Workload {
        name: "gather_router",
        why: "a[i] += b[p[i]] on 65536 VPs: data-dependent reads force router get (apsp_n3 uses the router for writes), and a 1.2 MB result report makes the cli layer visible",
        geometry: &[65536],
        router_use: RouterUse::Get,
        allowed_lints: &[],
        source: gather_source,
        expected: gather_expected,
    },
    Workload {
        name: "grid_news",
        why: "Sec 5 obstacle grid at 128x128: a *par fixpoint of NEWS shifts, context pushes and any-active scans on 16384 VPs, just above the pool fan-out threshold, no router",
        geometry: &[128, 128],
        router_use: RouterUse::Get,
        allowed_lints: &[],
        source: grid_source,
        expected: grid_expected,
    },
    Workload {
        name: "scalar_vm",
        why: "10007 collatz() calls and two front-end stores: isolates VM dispatch, calls and scalar arithmetic while cm and pool do nothing",
        geometry: &[2],
        router_use: RouterUse::Get,
        allowed_lints: &[],
        source: scalar_source,
        expected: scalar_expected,
    },
    Workload {
        name: "frontend_gen",
        why: "seeded generator of 1500 functions (~500 KB) of which main calls 30: the only workload where lexer, parser, sema, lowering and analysis do most of the work",
        geometry: &[frontend_gen::WIDTH],
        router_use: RouterUse::Get,
        allowed_lints: &["UC132"],
        source: frontend_gen::source,
        expected: frontend_gen::expected,
    },
];

/// SplitMix64: the one random stream every workload parameter comes from.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-enough draw from `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }
}

fn with_defines(defines: &[(&str, i64)], template: &str) -> String {
    let mut out = String::new();
    for (name, value) in defines {
        out.push_str(&format!("#define {name} {value}\n"));
    }
    out.push_str(template);
    out
}

// ---- apsp_n2 / apsp_n3 ----------------------------------------------------

/// Edge-weight multipliers `(P, Q)`, drawn below `n` because the weights
/// are taken mod `n`; the salt decorrelates the two APSP workloads.
fn apsp_params(seed: u64, salt: u64, n: i64) -> (i64, i64) {
    let mut rng = Rng::new(seed ^ salt);
    (rng.range(1, n - 1), rng.range(1, n - 1))
}

fn apsp_reference(n: usize, p: i64, q: i64) -> Vec<i64> {
    let mut d = vec![0i64; n * n];
    for i in 0..n {
        for j in 0..n {
            if i != j {
                d[i * n + j] = (i as i64 * p + j as i64 * q) % n as i64 + 1;
            }
        }
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                let via = d[i * n + k] + d[k * n + j];
                if via < d[i * n + j] {
                    d[i * n + j] = via;
                }
            }
        }
    }
    d
}

fn apsp_n2_source(seed: u64) -> String {
    let (p, q) = apsp_params(seed, 0xA2, 16);
    with_defines(
        &[("P", p), ("Q", q)],
        include_str!("../programs/apsp_n2.uc"),
    )
}

fn apsp_n2_expected(seed: u64) -> Expected {
    let (p, q) = apsp_params(seed, 0xA2, 16);
    Expected {
        scalars: vec![],
        arrays: vec![("d".into(), apsp_reference(16, p, q))],
    }
}

fn apsp_n3_source(seed: u64) -> String {
    let (p, q) = apsp_params(seed, 0xA3, 64);
    with_defines(
        &[("P", p), ("Q", q)],
        include_str!("../programs/apsp_n3.uc"),
    )
}

/// Six rounds of min-plus squaring cover every path of up to 64 edges,
/// i.e. all of them at N=64, so Floyd–Warshall is the reference here too.
fn apsp_n3_expected(seed: u64) -> Expected {
    let (p, q) = apsp_params(seed, 0xA3, 64);
    Expected {
        scalars: vec![],
        arrays: vec![("d".into(), apsp_reference(64, p, q))],
    }
}

// ---- gather_router ----------------------------------------------------------

const GATHER_N: i64 = 65536;
const GATHER_ITERS: i64 = 64;

/// `(A, S)`: an odd multiplier from the middle of the range, so that
/// `p[i]` scatters over the whole array for every seed, and a data offset.
fn gather_params(seed: u64) -> (i64, i64) {
    let mut rng = Rng::new(seed ^ 0x6A);
    (
        rng.range(GATHER_N / 8, GATHER_N / 2) | 1,
        rng.range(0, 1008),
    )
}

fn gather_source(seed: u64) -> String {
    let (a, s) = gather_params(seed);
    with_defines(
        &[("A", a), ("S", s)],
        include_str!("../programs/gather_router.uc"),
    )
}

fn gather_expected(seed: u64) -> Expected {
    let (mult, s) = gather_params(seed);
    let b: Vec<i64> = (0..GATHER_N).map(|i| (i * 3 + s) % 1009).collect();
    let p: Vec<i64> = (0..GATHER_N).map(|i| (i * mult + 7) % GATHER_N).collect();
    let mut a: Vec<i64> = (0..GATHER_N).collect();
    for _ in 0..GATHER_ITERS {
        for (ai, &pi) in a.iter_mut().zip(&p) {
            *ai += b[pi as usize];
        }
    }
    Expected {
        scalars: vec![],
        arrays: vec![("a".into(), a), ("b".into(), b), ("p".into(), p)],
    }
}

// ---- grid_news --------------------------------------------------------------

const GRID_N: usize = 128;
const WALLV: i64 = 2_147_483_648;

/// `(C, H)`: wall centre row and half-length. Any wall in this range
/// leaves the far corner as the last cell reached, so the fixpoint takes
/// the same number of sweeps for every seed.
fn grid_params(seed: u64) -> (i64, i64) {
    let mut rng = Rng::new(seed ^ 0x9D);
    let n = GRID_N as i64;
    (
        rng.range(n / 2 - n / 8, n / 2 + n / 8),
        rng.range(n / 8, n / 4),
    )
}

fn grid_source(seed: u64) -> String {
    let (c, h) = grid_params(seed);
    with_defines(
        &[("C", c), ("H", h)],
        include_str!("../programs/grid_news.uc"),
    )
}

/// Breadth-first search from (0, 0) on the 4-connected grid.
fn grid_expected(seed: u64) -> Expected {
    let (c, h) = grid_params(seed);
    let n = GRID_N;
    let wall = |i: usize, j: usize| i + j == n - 1 && (i as i64 - c).abs() <= h;
    let mut a = vec![-1i64; n * n];
    let mut queue = std::collections::VecDeque::from([(0usize, 0usize)]);
    a[0] = 0;
    while let Some((i, j)) = queue.pop_front() {
        let d = a[i * n + j];
        let mut visit = |ni: usize, nj: usize| {
            if !wall(ni, nj) && a[ni * n + nj] < 0 {
                a[ni * n + nj] = d + 1;
                queue.push_back((ni, nj));
            }
        };
        if i > 0 {
            visit(i - 1, j);
        }
        if i + 1 < n {
            visit(i + 1, j);
        }
        if j > 0 {
            visit(i, j - 1);
        }
        if j + 1 < n {
            visit(i, j + 1);
        }
    }
    for i in 0..n {
        for j in 0..n {
            if wall(i, j) {
                a[i * n + j] = WALLV;
            }
        }
    }
    assert!(
        a.iter().all(|&d| d >= 0),
        "every free cell must be reachable"
    );
    Expected {
        scalars: vec![],
        arrays: vec![("a".into(), a)],
    }
}

// ---- scalar_vm --------------------------------------------------------------

const COLLATZ_M: i64 = 10007;

fn scalar_param(seed: u64) -> i64 {
    Rng::new(seed ^ 0x5C).range(1000, 9000)
}

fn scalar_source(seed: u64) -> String {
    with_defines(
        &[("A", scalar_param(seed))],
        include_str!("../programs/scalar_vm.uc"),
    )
}

fn scalar_expected(seed: u64) -> Expected {
    let a = scalar_param(seed);
    let (mut total, mut longest, mut mix) = (0i64, 0i64, 0i64);
    for k in 0..COLLATZ_M {
        let mut n = (k * a) % COLLATZ_M + 1;
        let mut steps = 0i64;
        while n != 1 {
            n = if n % 2 == 0 { n / 2 } else { 3 * n + 1 };
            steps += 1;
        }
        total += steps;
        mix = (mix * 31 + steps) % 1_000_003;
        longest = longest.max(steps);
    }
    Expected {
        scalars: vec![
            ("total".into(), total),
            ("longest".into(), longest),
            ("mix".into(), mix),
        ],
        arrays: vec![("out".into(), vec![total, mix])],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_a_pure_function_of_the_seed() {
        let draws = |seed| {
            let mut r = Rng::new(seed);
            [r.next_u64(), r.next_u64(), r.next_u64()]
        };
        assert_eq!(draws(7), draws(7));
        assert_ne!(draws(7), draws(8));
        let mut r = Rng::new(1);
        assert!((0..1000).all(|_| (3..=9).contains(&r.range(3, 9))));
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_program() {
        for w in WORKLOADS {
            let (a, b, c) = (w.instance(11), w.instance(11), w.instance(12));
            assert_eq!(a.source, b.source, "{}", w.name);
            assert_eq!(a.expected, b.expected, "{}", w.name);
            assert_ne!(a.source, c.source, "{}", w.name);
            assert_ne!(a.expected, c.expected, "{}", w.name);
        }
    }

    #[test]
    fn gather_permutation_is_a_bijection() {
        let exp = gather_expected(3);
        let mut p = exp.arrays.iter().find(|(n, _)| n == "p").unwrap().1.clone();
        p.sort_unstable();
        assert!(p.iter().enumerate().all(|(i, &v)| v == i as i64));
    }

    #[test]
    fn grid_far_corner_is_always_the_last_cell() {
        for seed in 0..64 {
            let exp = grid_expected(seed);
            let a = &exp.arrays[0].1;
            let far = a.iter().filter(|&&d| d != WALLV).max().unwrap();
            assert_eq!(*far, 2 * (GRID_N as i64 - 1), "seed {seed}");
        }
    }
}
