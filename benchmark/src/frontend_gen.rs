//! The `frontend_gen` workload: a seeded generator of one large UC
//! program, and the final value of each of its globals computed here with
//! ordinary Rust arithmetic.
//!
//! Every function has the same shape — scalar locals, a `while` with an
//! `if`/`else`, one `par … st … others`, one `$+` reduction — and the seed
//! only picks constants of fixed digit width, so source size, op counts
//! and simulated cycles are the same for every seed.

use crate::workloads::{Expected, Rng};

/// Functions in the generated program.
pub const FUNCS: usize = 1500;
/// `main` calls `f0`, `f50`, `f100`, …; the rest stay unreachable (UC132).
pub const CALL_EVERY: usize = 50;
/// Extent of the one shared array every function writes.
pub const WIDTH: usize = 64;

/// The seed-chosen constants of one function.
struct Consts {
    add: i64,
    rounds: i64,
    bump: i64,
    scale: i64,
    base: i64,
}

fn consts(seed: u64) -> Vec<Consts> {
    let mut rng = Rng::new(seed ^ 0xF6);
    (0..FUNCS)
        .map(|_| Consts {
            add: rng.range(100, 999),
            rounds: rng.range(10, 99),
            bump: rng.range(100, 999),
            scale: rng.range(2, 9),
            base: rng.range(100, 999),
        })
        .collect()
}

pub fn source(seed: u64) -> String {
    let mut out = String::with_capacity(FUNCS * 400);
    out.push_str(&format!(
        "#define W {WIDTH}\nindex_set I:i = {{0..W-1}};\nint v[W];\n"
    ));
    for k in (0..FUNCS).step_by(CALL_EVERY) {
        out.push_str(&format!("int r{k};\n"));
    }
    for (k, c) in consts(seed).iter().enumerate() {
        out.push_str(&format!(
            "int f{k}(int x) {{\n\
             \x20   int acc, n;\n\
             \x20   acc = x + {add};\n\
             \x20   n = {rounds};\n\
             \x20   while (n > 0) {{\n\
             \x20       if (acc % 2 == 0) acc = acc / 2 + {bump}; else acc = acc * 3 + 1;\n\
             \x20       n = n - 1;\n\
             \x20   }}\n\
             \x20   par (I)\n\
             \x20       st (i % 2 == 0) v[i] = i * {scale} + acc % 7;\n\
             \x20       others v[i] = {base} - i;\n\
             \x20   return acc % 1000 + $+(I; v[i]);\n\
             }}\n",
            add = c.add,
            rounds = c.rounds,
            bump = c.bump,
            scale = c.scale,
            base = c.base,
        ));
    }
    out.push_str("main() {\n");
    for (call, k) in (0..FUNCS).step_by(CALL_EVERY).enumerate() {
        out.push_str(&format!("    r{k} = f{k}({});\n", call + 1));
    }
    out.push_str("}\n");
    out
}

pub fn expected(seed: u64) -> Expected {
    let consts = consts(seed);
    let mut v = vec![0i64; WIDTH];
    let mut scalars = Vec::new();
    for (call, k) in (0..FUNCS).step_by(CALL_EVERY).enumerate() {
        let c = &consts[k];
        let mut acc = call as i64 + 1 + c.add;
        for _ in 0..c.rounds {
            acc = if acc % 2 == 0 {
                acc / 2 + c.bump
            } else {
                acc * 3 + 1
            };
        }
        for (i, slot) in v.iter_mut().enumerate() {
            let i = i as i64;
            *slot = if i % 2 == 0 {
                i * c.scale + acc % 7
            } else {
                c.base - i
            };
        }
        scalars.push((format!("r{k}"), acc % 1000 + v.iter().sum::<i64>()));
    }
    Expected {
        scalars,
        arrays: vec![("v".into(), v)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_size_does_not_depend_on_the_seed() {
        let (a, b) = (source(1), source(2));
        assert_eq!(a.len(), b.len());
        assert!(
            a.len() > 400_000,
            "generated program is only {} bytes",
            a.len()
        );
        assert_eq!(a.matches("\nint f").count(), FUNCS);
    }
}
