//! Jacobi relaxation — the numerical-computation direction §5 of the
//! paper says was "in progress" (CFD, SVD, Jacobi): solve Laplace's
//! equation on a square plate with fixed boundary temperatures by
//! repeatedly averaging each interior cell's four neighbours.
//!
//! ```sh
//! cargo run --example jacobi
//! ```
//!
//! UC expresses the whole solver as one `seq`-iterated `par` over the
//! grid with NEWS-neighbour reads; the example verifies against a
//! sequential reference sweep-for-sweep.

use uc::lang::Program;

const N: usize = 12;
const SWEEPS: usize = 60;

const JACOBI: &str = include_str!("uc/jacobi_plate.uc");

fn sequential_reference() -> Vec<f64> {
    let mut u = vec![0.0f64; N * N];
    u[..N].fill(100.0);
    let mut next = u.clone();
    for _ in 0..SWEEPS {
        for i in 1..N - 1 {
            for j in 1..N - 1 {
                next[i * N + j] =
                    (u[(i - 1) * N + j] + u[(i + 1) * N + j] + u[i * N + j - 1] + u[i * N + j + 1])
                        / 4.0;
            }
        }
        for i in 1..N - 1 {
            for j in 1..N - 1 {
                u[i * N + j] = next[i * N + j];
            }
        }
    }
    u
}

fn main() {
    let mut p = Program::compile(JACOBI).expect("jacobi compiles");
    p.run().expect("jacobi runs");
    let u = p.read_float_array("u").unwrap();
    let reference = sequential_reference();
    for (k, (&a, &b)) in u.iter().zip(&reference).enumerate() {
        assert!((a - b).abs() < 1e-9, "cell {k}: {a} vs {b}");
    }

    println!("temperature field after {SWEEPS} Jacobi sweeps (top edge held at 100):\n");
    for i in 0..N {
        let row: String = (0..N)
            .map(|j| format!("{:>6.1}", u[i * N + j]))
            .collect();
        println!("{row}");
    }
    println!("\nmatches the sequential reference sweep-for-sweep.");
    println!("simulated CM cycles: {} ({} NEWS shifts — the stencil is all\nnearest-neighbour communication)",
        p.cycles(), p.machine().counters().news);
}
