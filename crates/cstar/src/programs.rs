//! The paper's Appendix C\* programs (Figures 9 and 10) and the grid
//! benchmark, as callable workloads for the figure harness.
//!
//! Each function takes the input data explicitly (so the UC and C\*
//! benchmark runs see the *same* graph) and returns the result plus the
//! simulated cycles of the computation proper (initialisation excluded,
//! as in the paper's timing methodology).

use uc_cm::cost::OpCounters;
use uc_cm::{BinOp, Combine};

use crate::dsl::CStar;

/// Figure 9: all-pairs shortest path with O(N²) parallelism.
///
/// `domain PATH { int i, j, k, len; } path[N][N];` — one instance per
/// (i,j) pair; the k-loop runs on the front end and each step gathers
/// `path[i][k].len` and `path[k][j].len` through the router, then applies
/// `len <?= sum` locally.
pub fn apsp_n2(dist: &[i64], n: usize, phys_procs: usize) -> (Vec<i64>, u64) {
    assert_eq!(dist.len(), n * n, "dist must be an N×N matrix");
    let mut cs = CStar::new(phys_procs);
    let path = cs.domain("PATH", &[n, n]).unwrap();
    let i = cs.int_member(path, "i").unwrap();
    let j = cs.int_member(path, "j").unwrap();
    let len = cs.int_member(path, "len").unwrap();
    cs.coord(path, 0, i).unwrap();
    cs.coord(path, 1, j).unwrap();
    cs.write(len, dist.to_vec()).unwrap();

    cs.reset_clock();
    let ik = cs.int_member(path, "ik").unwrap();
    let kj = cs.int_member(path, "kj").unwrap();
    let addr = cs.int_member(path, "addr").unwrap();
    for k in 0..n as i64 {
        // addr = i*N + k  → gather path[i][k].len
        cs.binop_imm(BinOp::Mul, addr, i, n as i64).unwrap();
        cs.binop_imm(BinOp::Add, addr, addr, k).unwrap();
        cs.get(ik, addr, len).unwrap();
        // addr = k*N + j  → gather path[k][j].len
        cs.binop_imm(BinOp::Add, addr, j, k * n as i64).unwrap();
        cs.get(kj, addr, len).unwrap();
        // len <?= path[i][k].len + path[k][j].len
        cs.binop(BinOp::Add, ik, ik, kj).unwrap();
        cs.min_assign(len, ik).unwrap();
    }
    let cycles = cs.cycles();
    (cs.read(len).unwrap(), cycles)
}

/// Figure 10: all-pairs shortest path with O(N³) parallelism.
///
/// `domain XMED { int i, j, k; } xmed[N][N][N];` — one instance per
/// (i,j,k) triple. Each round every triple computes
/// `path[i][k].len + path[k][j].len`, the minimum over k is combined into
/// `path[i][j].len` through the router, and the updated matrix is
/// broadcast back. With full N³ relaxation the matrix converges in
/// ⌈log₂N⌉ rounds (the iteration count the UC program of Figure 5 uses;
/// the appendix text loops N times, which only repeats converged work).
/// Beside the cycles it returns the op counts they are made of. Each
/// round is five ALU calls, two gets and one send; a call with an
/// immediate counts as two ALU ops (the broadcast and the op), so a round
/// is seven ALU ops and three router ops.
pub fn apsp_n3(dist: &[i64], n: usize, phys_procs: usize) -> (Vec<i64>, u64, OpCounters) {
    assert_eq!(dist.len(), n * n);
    let mut cs = CStar::new(phys_procs);
    // The 2-D result domain.
    let path = cs.domain("PATH", &[n, n]).unwrap();
    let len = cs.int_member(path, "len").unwrap();
    cs.write(len, dist.to_vec()).unwrap();
    // The 3-D intermediate domain.
    let xmed = cs.domain("XMED", &[n, n, n]).unwrap();
    let xi = cs.int_member(xmed, "i").unwrap();
    let xj = cs.int_member(xmed, "j").unwrap();
    let xk = cs.int_member(xmed, "k").unwrap();
    cs.coord(xmed, 0, xi).unwrap();
    cs.coord(xmed, 1, xj).unwrap();
    cs.coord(xmed, 2, xk).unwrap();

    cs.reset_clock();
    let ik = cs.int_member(xmed, "ik").unwrap();
    let kj = cs.int_member(xmed, "kj").unwrap();
    let addr = cs.int_member(xmed, "addr").unwrap();
    let out_addr = cs.int_member(xmed, "oaddr").unwrap();
    // out_addr = i*N + j (address of path[i][j], reused every round)
    cs.binop_imm(BinOp::Mul, out_addr, xi, n as i64).unwrap();
    cs.binop(BinOp::Add, out_addr, out_addr, xj).unwrap();
    let rounds = (usize::BITS - (n.max(2) - 1).leading_zeros()) as usize;
    for _ in 0..rounds {
        // ik = path[i][k].len
        cs.binop_imm(BinOp::Mul, addr, xi, n as i64).unwrap();
        cs.binop(BinOp::Add, addr, addr, xk).unwrap();
        cs.get(ik, addr, len).unwrap();
        // kj = path[k][j].len
        cs.binop_imm(BinOp::Mul, addr, xk, n as i64).unwrap();
        cs.binop(BinOp::Add, addr, addr, xj).unwrap();
        cs.get(kj, addr, len).unwrap();
        // path[i][j].len <?= ik + kj, minimised over k by the router.
        cs.binop(BinOp::Add, ik, ik, kj).unwrap();
        cs.send(len, out_addr, ik, Combine::Min).unwrap();
    }
    let (cycles, counters) = (cs.cycles(), cs.machine().counters());
    (cs.read(len).unwrap(), cycles, counters)
}

/// The grid-goal relaxation of §5 (Figure 8's parallel series), written
/// in the C\* style: one instance per cell, NEWS-neighbour reads, iterate
/// until the global fixed point. Returns `(distances, cycles, sweeps)`.
///
/// `walls` marks disconnected cells; the goal is cell (0, 0). `dmax` is
/// the "unreached" sentinel.
pub fn grid_goal(
    rows: usize,
    cols: usize,
    walls: &[bool],
    dmax: i64,
    phys_procs: usize,
) -> (Vec<i64>, u64, usize) {
    assert_eq!(walls.len(), rows * cols);
    let mut cs = CStar::new(phys_procs);
    let grid = cs.domain("GRID", &[rows, cols]).unwrap();
    let a = cs.int_member(grid, "a").unwrap();
    let init: Vec<i64> = (0..rows * cols)
        .map(|p| {
            if p == 0 {
                0
            } else if walls[p] {
                dmax * 2
            } else {
                dmax
            }
        })
        .collect();
    cs.write(a, init).unwrap();

    cs.reset_clock();
    let m = cs.int_member(grid, "m").unwrap();
    let t = cs.int_member(grid, "t").unwrap();
    let better = cs.bool_member(grid, "better").unwrap();
    let wall = cs.bool_member(grid, "wall").unwrap();
    let goal = cs.bool_member(grid, "goal").unwrap();
    // Static masks: wall cells and the goal never update.
    // wall = (a >= 2*dmax) at start; goal = self_address == 0.
    let sa = cs.int_member(grid, "sa").unwrap();
    cs.self_address(sa).unwrap();
    cs.cmp_imm_into(goal, sa, 0).unwrap();
    cs.cmp_ge_imm_into(wall, a, dmax * 2).unwrap();
    cs.free(sa).unwrap();

    let mut sweeps = 0usize;
    loop {
        sweeps += 1;
        // m = min of the four NEWS neighbours (off-grid reads give INF).
        cs.news_min(m, t, a).unwrap();
        // t = m + 1; better = !wall && !goal && t < a
        cs.binop_imm(BinOp::Add, t, m, 1).unwrap();
        cs.lt_into(better, t, a).unwrap();
        cs.andnot(better, wall).unwrap();
        cs.andnot(better, goal).unwrap();
        let any = cs.any(better).unwrap();
        if !any {
            break;
        }
        cs.where_(grid, better, |cs| cs.assign(a, t)).unwrap();
        if sweeps > 4 * (rows + cols) {
            break; // safety net; convergence takes ≤ diameter sweeps
        }
    }
    let cycles = cs.cycles();
    (cs.read(a).unwrap(), cycles, sweeps)
}

/// Ranksort in C\* (§3.4's UC example, hand-translated): each instance
/// counts the keys smaller than its own through an all-to-all of gathers,
/// then scatters its key to its rank. Keys must be distinct. Returns
/// `(sorted, cycles)`.
pub fn ranksort(keys: &[i64], phys_procs: usize) -> (Vec<i64>, u64) {
    let n = keys.len();
    let mut cs = CStar::new(phys_procs);
    let d = cs.domain("SORT", &[n]).unwrap();
    let key = cs.int_member(d, "key").unwrap();
    cs.write(key, keys.to_vec()).unwrap();

    cs.reset_clock();
    let rank = cs.int_member(d, "rank").unwrap();
    let other = cs.int_member(d, "other").unwrap();
    let addr = cs.int_member(d, "addr").unwrap();
    let less = cs.bool_member(d, "less").unwrap();
    let one = cs.int_member(d, "one").unwrap();
    cs.assign_imm(rank, 0).unwrap();
    // rank = #{ j : key[j] < key[i] } via n gather-and-compare rounds
    // (C* has no per-instance reduction; the UC compiler's combining send
    // is exactly what this loop spells out).
    for j in 0..n as i64 {
        cs.assign_imm(addr, j).unwrap();
        cs.get(other, addr, key).unwrap();
        cs.lt_into(less, other, key).unwrap();
        let less_int = one;
        // one = (other < key) as int; rank += one
        cs.convert_bool(less_int, less).unwrap();
        cs.binop(BinOp::Add, rank, rank, less_int).unwrap();
    }
    let sorted = cs.int_member(d, "sorted").unwrap();
    cs.send(sorted, rank, key, Combine::Overwrite).unwrap();
    let cycles = cs.cycles();
    (cs.read(sorted).unwrap(), cycles)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(n: usize) -> Vec<i64> {
        let mut d = vec![0i64; n * n];
        for i in 0..n {
            for j in 0..n {
                d[i * n + j] = if i == j { 0 } else { ((i * 7 + j * 13) % n + 1) as i64 };
            }
        }
        d
    }

    fn floyd(mut d: Vec<i64>, n: usize) -> Vec<i64> {
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

    #[test]
    fn apsp_n2_matches_floyd_warshall() {
        for n in [4usize, 8, 11] {
            let d = graph(n);
            let (got, cycles) = apsp_n2(&d, n, 16 * 1024);
            assert_eq!(got, floyd(d, n), "n={n}");
            assert!(cycles > 0);
        }
    }

    #[test]
    fn apsp_n3_matches_floyd_warshall() {
        for n in [4usize, 8, 11] {
            let d = graph(n);
            let (got, cycles, _) = apsp_n3(&d, n, 16 * 1024);
            assert_eq!(got, floyd(d, n), "n={n}");
            assert!(cycles > 0);
        }
    }

    #[test]
    fn n3_does_fewer_rounds_but_bigger_spaces() {
        let n = 16usize;
        let d = graph(n);
        let (r2, _c2) = apsp_n2(&d, n, 16 * 1024);
        let (r3, ..) = apsp_n3(&d, n, 16 * 1024);
        assert_eq!(r2, r3);
    }

    #[test]
    fn ranksort_sorts_distinct_keys() {
        let keys: Vec<i64> = (0..20).map(|i| (i * 13 + 5) % 20).collect();
        let (sorted, cycles) = ranksort(&keys, 16 * 1024);
        assert_eq!(sorted, (0..20).collect::<Vec<i64>>());
        assert!(cycles > 0);
    }

    #[test]
    fn grid_goal_distances() {
        let (rows, cols) = (8usize, 8usize);
        let walls = vec![false; rows * cols];
        let (d, cycles, sweeps) = grid_goal(rows, cols, &walls, 1 << 30, 16 * 1024);
        // Manhattan distances from (0,0) on an open grid.
        for r in 0..rows {
            for c in 0..cols {
                assert_eq!(d[r * cols + c], (r + c) as i64, "cell ({r},{c})");
            }
        }
        assert!(cycles > 0);
        assert!(sweeps >= rows + cols - 2);
    }

    #[test]
    fn grid_goal_routes_around_walls() {
        // A vertical wall with a gap at the bottom.
        let (rows, cols) = (6usize, 6usize);
        let mut walls = vec![false; rows * cols];
        for r in 0..rows - 1 {
            walls[r * cols + 3] = true;
        }
        let (d, _cycles, _sweeps) = grid_goal(rows, cols, &walls, 1 << 30, 16 * 1024);
        // Cell (0,4) must detour below the wall: 0→(5,2)…(5,4)→(0,4).
        let direct = 4;
        assert!(d[4] > direct, "wall must lengthen the path, got {}", d[4]);
        // Its distance equals the detour: down to row 5, across, back up.
        assert_eq!(d[4], (5 + 4 + 5) as i64);
        // Wall cells keep their sentinel.
        assert!(d[3] >= (1 << 30));
    }
}
