//! The C\*-flavoured embedded DSL.
//!
//! C\* organises computation around **domains**: a `domain PATH { int i,
//! j, len; } path[N][N];` declares an N×N array of instances, each bound
//! to one (virtual) processor. Statements execute for all *active*
//! instances; `where (pred) { ... }` narrows the active set; `x <?= e`
//! assigns the minimum. The DSL below mirrors those concepts one-to-one
//! on the simulator:
//!
//! * [`Domain`] — a VP set of instances (`::init`-style coordinate
//!   members come from `Domain::coord`);
//! * [`Pvar`] — a per-instance member field;
//! * [`CStar::where_`] — nested selection;
//! * [`CStar::min_assign`] — the `<?=` combining assignment.

use uc_cm::{BinOp, Combine, ElemType, FieldId, Machine, MachineConfig, ReduceOp, Scalar, VpSetId};

/// Result alias re-using the machine's error type.
pub type Result<T> = uc_cm::Result<T>;

/// A C\* execution context: one simulated CM.
#[derive(Debug)]
pub struct CStar {
    m: Machine,
}

/// A domain: an n-dimensional array of instances.
#[derive(Debug, Clone, Copy)]
pub struct Domain {
    vp: VpSetId,
}

/// A parallel member variable of a domain.
#[derive(Debug, Clone, Copy)]
pub struct Pvar {
    field: FieldId,
}

impl CStar {
    /// A C\* machine with `phys_procs` physical processors.
    pub fn new(phys_procs: usize) -> Self {
        CStar {
            m: Machine::new(MachineConfig { phys_procs, ..MachineConfig::default() }),
        }
    }

    /// Elapsed simulated cycles.
    pub fn cycles(&self) -> u64 {
        self.m.cycles()
    }

    /// Reset the clock (to time only a program's core loop).
    pub fn reset_clock(&mut self) {
        self.m.reset_clock();
    }

    /// Borrow the machine (for counters in tests).
    pub fn machine(&self) -> &Machine {
        &self.m
    }

    /// Declare a domain array: `domain D {...} d[dims...]`.
    pub fn domain(&mut self, name: &str, dims: &[usize]) -> Result<Domain> {
        Ok(Domain { vp: self.m.new_vp_set(name, dims)? })
    }

    /// Declare an int member of a domain.
    pub fn int_member(&mut self, d: Domain, name: &str) -> Result<Pvar> {
        Ok(Pvar { field: self.m.alloc_int(d.vp, name)? })
    }

    /// Declare a bool member (C\* test results).
    pub fn bool_member(&mut self, d: Domain, name: &str) -> Result<Pvar> {
        Ok(Pvar { field: self.m.alloc_bool(d.vp, name)? })
    }

    /// Free a member field.
    pub fn free(&mut self, p: Pvar) -> Result<()> {
        self.m.free(p.field)
    }

    /// The coordinate of each instance along `axis` (the `this - &d[0][0]`
    /// offset arithmetic of the paper's `PATH::init`).
    pub fn coord(&mut self, _d: Domain, axis: usize, dst: Pvar) -> Result<()> {
        self.m.axis_coord(dst.field, axis)
    }

    /// The linear self-address of each instance.
    pub fn self_address(&mut self, dst: Pvar) -> Result<()> {
        self.m.iota(dst.field)
    }

    /// `dst = imm` for active instances.
    pub fn assign_imm(&mut self, dst: Pvar, imm: i64) -> Result<()> {
        self.m.set_imm(dst.field, Scalar::Int(imm))
    }

    /// `dst = src` for active instances.
    pub fn assign(&mut self, dst: Pvar, src: Pvar) -> Result<()> {
        self.m.copy(dst.field, src.field)
    }

    /// `dst = a op b` for active instances.
    pub fn binop(&mut self, op: BinOp, dst: Pvar, a: Pvar, b: Pvar) -> Result<()> {
        self.m.binop(op, dst.field, a.field, b.field)
    }

    /// `dst = a op imm` for active instances.
    pub fn binop_imm(&mut self, op: BinOp, dst: Pvar, a: Pvar, imm: i64) -> Result<()> {
        self.m.binop_imm(op, dst.field, a.field, Scalar::Int(imm))
    }

    /// `dst <?= src`: C\*'s min-assignment.
    pub fn min_assign(&mut self, dst: Pvar, src: Pvar) -> Result<()> {
        self.m.binop(BinOp::Min, dst.field, dst.field, src.field)
    }

    /// `dst = rand() % modulus` per instance (the paper's `PATH::init`).
    pub fn rand(&mut self, dst: Pvar, modulus: i64, seed: u64) -> Result<()> {
        self.m.rand_int(dst.field, modulus, seed)
    }

    /// General gather: `dst = src_of[addr]` — the left-indexing
    /// `path[i][k].len` of C\*, where `addr` holds linear send addresses
    /// into `src`'s domain.
    pub fn get(&mut self, dst: Pvar, addr: Pvar, src: Pvar) -> Result<()> {
        self.m.get(dst.field, addr.field, src.field)
    }

    /// General combining scatter: `dst_of[addr] <op>= src`.
    pub fn send(&mut self, dst: Pvar, addr: Pvar, src: Pvar, combine: Combine) -> Result<()> {
        self.m.send(dst.field, addr.field, src.field, combine)
    }

    /// `dst = (a == imm)` into a bool member.
    pub fn cmp_imm_into(&mut self, dst: Pvar, a: Pvar, imm: i64) -> Result<()> {
        self.m.binop_imm(BinOp::Eq, dst.field, a.field, Scalar::Int(imm))
    }

    /// `dst = (a >= imm)` into a bool member.
    pub fn cmp_ge_imm_into(&mut self, dst: Pvar, a: Pvar, imm: i64) -> Result<()> {
        self.m.binop_imm(BinOp::Ge, dst.field, a.field, Scalar::Int(imm))
    }

    /// `dst = (a < b)` into a bool member.
    pub fn lt_into(&mut self, dst: Pvar, a: Pvar, b: Pvar) -> Result<()> {
        self.m.binop(BinOp::Lt, dst.field, a.field, b.field)
    }

    /// `dst = dst && !b` (narrow a bool member by a complement).
    pub fn andnot(&mut self, dst: Pvar, b: Pvar) -> Result<()> {
        let vp = dst.field.vp_set();
        let t = self.m.alloc_bool(vp, "~not")?;
        self.m.unop(uc_cm::UnOp::Not, t, b.field)?;
        self.m.binop(BinOp::LogAnd, dst.field, dst.field, t)?;
        self.m.free(t)
    }

    /// `m = min(N, E, W, S neighbours of a)` on a 2-D domain, with
    /// off-grid fetches reading INF (the CM border convention). `t` is a
    /// caller-provided scratch member.
    pub fn news_min(&mut self, m: Pvar, t: Pvar, a: Pvar) -> Result<()> {
        use uc_cm::news::Border;
        let inf = Border::Fill(Scalar::Int(i64::MAX));
        self.m.news_shift(m.field, a.field, 0, -1, inf)?;
        self.m.news_shift(t.field, a.field, 0, 1, inf)?;
        self.m.binop(BinOp::Min, m.field, m.field, t.field)?;
        self.m.news_shift(t.field, a.field, 1, -1, inf)?;
        self.m.binop(BinOp::Min, m.field, m.field, t.field)?;
        self.m.news_shift(t.field, a.field, 1, 1, inf)?;
        self.m.binop(BinOp::Min, m.field, m.field, t.field)
    }

    /// Run `body` with instances narrowed to `pred` (C\*'s `where`).
    pub fn where_<F>(&mut self, d: Domain, pred: Pvar, body: F) -> Result<()>
    where
        F: FnOnce(&mut Self) -> Result<()>,
    {
        self.m.push_context(pred.field)?;
        let r = body(self);
        self.m.pop_context(d.vp)?;
        r
    }

    /// Global OR of a bool member (C\*'s `|=` reduction to a mono value).
    pub fn any(&mut self, p: Pvar) -> Result<bool> {
        Ok(self.m.reduce(p.field, ReduceOp::Or)?.as_bool())
    }

    /// Global min of an int member.
    pub fn global_min(&mut self, p: Pvar) -> Result<i64> {
        Ok(self.m.reduce(p.field, ReduceOp::Min)?.as_int())
    }

    /// Read a member back to the front end.
    pub fn read(&mut self, p: Pvar) -> Result<Vec<i64>> {
        match self.m.read_all(p.field)? {
            uc_cm::FieldData::I64(v) => Ok(v),
            _ => Err(uc_cm::CmError::TypeMismatch {
                expected: ElemType::Int,
                found: ElemType::Bool,
            }),
        }
    }

    /// Write a member from the front end.
    pub fn write(&mut self, p: Pvar, data: Vec<i64>) -> Result<()> {
        self.m.write_all(p.field, uc_cm::FieldData::I64(data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_lifecycle_and_ops() {
        let mut cs = CStar::new(1024);
        let d = cs.domain("D", &[8]).unwrap();
        let a = cs.int_member(d, "a").unwrap();
        let b = cs.int_member(d, "b").unwrap();
        cs.self_address(a).unwrap();
        cs.assign_imm(b, 3).unwrap();
        cs.binop(BinOp::Add, b, a, b).unwrap();
        assert_eq!(cs.read(b).unwrap(), (3..11).collect::<Vec<i64>>());
        assert!(cs.cycles() > 0);
    }

    #[test]
    fn where_narrows() {
        let mut cs = CStar::new(1024);
        let d = cs.domain("D", &[6]).unwrap();
        let a = cs.int_member(d, "a").unwrap();
        let even = cs.bool_member(d, "even").unwrap();
        cs.self_address(a).unwrap();
        let t = cs.int_member(d, "t").unwrap();
        cs.binop_imm(BinOp::Mod, t, a, 2).unwrap();
        cs.m.binop_imm(BinOp::Eq, even.field, t.field, Scalar::Int(0)).unwrap();
        cs.where_(d, even, |cs| cs.assign_imm(a, -1)).unwrap();
        assert_eq!(cs.read(a).unwrap(), vec![-1, 1, -1, 3, -1, 5]);
    }

    #[test]
    fn min_assign_is_cstar_leq() {
        let mut cs = CStar::new(1024);
        let d = cs.domain("D", &[4]).unwrap();
        let len = cs.int_member(d, "len").unwrap();
        let cand = cs.int_member(d, "cand").unwrap();
        cs.write(len, vec![5, 1, 7, 3]).unwrap();
        cs.write(cand, vec![2, 9, 7, 1]).unwrap();
        cs.min_assign(len, cand).unwrap();
        assert_eq!(cs.read(len).unwrap(), vec![2, 1, 7, 1]);
    }

    #[test]
    fn coords_match_paper_init() {
        // PATH::init computes i = offset/N, j = offset%N.
        let mut cs = CStar::new(1024);
        let d = cs.domain("PATH", &[3, 3]).unwrap();
        let i = cs.int_member(d, "i").unwrap();
        let j = cs.int_member(d, "j").unwrap();
        cs.coord(d, 0, i).unwrap();
        cs.coord(d, 1, j).unwrap();
        assert_eq!(cs.read(i).unwrap(), vec![0, 0, 0, 1, 1, 1, 2, 2, 2]);
        assert_eq!(cs.read(j).unwrap(), vec![0, 1, 2, 0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn global_reductions() {
        let mut cs = CStar::new(1024);
        let d = cs.domain("D", &[4]).unwrap();
        let a = cs.int_member(d, "a").unwrap();
        cs.write(a, vec![4, 2, 9, 6]).unwrap();
        assert_eq!(cs.global_min(a).unwrap(), 2);
        let t = cs.bool_member(d, "t").unwrap();
        assert!(!cs.any(t).unwrap());
    }
}
