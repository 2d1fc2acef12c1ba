//! The cycle cost model.
//!
//! The paper reports *elapsed time* on a 16K-processor CM-2. On that
//! machine, the time of a data-parallel macro-instruction is, to first
//! order, `vp_ratio * c_class` where `vp_ratio = ceil(V / P)` (each
//! physical processor is time-sliced over its virtual processors) and
//! `c_class` depends on the kind of instruction: local ALU work is cheap,
//! NEWS-grid neighbour communication costs a few times more, the general
//! router is an order of magnitude more expensive again, and global
//! reductions/scans pay an additional `log2 P` combine-tree term.
//!
//! The constants below are not microsecond-accurate CM-2 figures; they
//! preserve the *ordering and rough ratios* of instruction classes, which
//! is what the paper's curve shapes depend on.

/// Instruction classes the machine charges for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Elementwise arithmetic/logic on local memory.
    Alu,
    /// Context-flag manipulation (push/pop/test of activity masks).
    Context,
    /// NEWS-grid nearest-neighbour shift.
    News,
    /// General router send/get.
    Router,
    /// Global reduce or scan (combine tree).
    Scan,
    /// Front-end scalar work, including broadcast of an immediate and
    /// reading one element back to the front end.
    FrontEnd,
}

/// Per-class base cycle charges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostModel {
    pub alu: u64,
    pub context: u64,
    pub news: u64,
    pub router: u64,
    pub scan: u64,
    pub front_end: u64,
    /// Extra per-op charge multiplied by `log2(phys_procs)` for combine
    /// trees (reductions and scans).
    pub tree_step: u64,
}

impl Default for CostModel {
    /// Ratios loosely follow CM-2 folklore: NEWS ≈ 2× ALU, router ≈ 20× ALU,
    /// scans pay a tree term. The absolute scale is calibrated against the
    /// sequential baseline of `uc-seqc` (1 cycle per sequential abstract
    /// op): one SIMD macro-instruction costs tens of sequential ops, the
    /// front-end-dispatch ratio of a CM-2 vs its SUN-4 front end. That
    /// constant is what places Figure 8's crossover.
    fn default() -> Self {
        CostModel {
            alu: 30,
            context: 10,
            news: 60,
            router: 600,
            scan: 120,
            front_end: 10,
            tree_step: 20,
        }
    }
}

impl CostModel {
    /// Cycles charged for one instruction of class `class` issued to a VP
    /// set of `vp_size` virtual processors on `phys_procs` physical ones.
    pub fn charge(&self, class: OpClass, vp_size: usize, phys_procs: usize) -> u64 {
        let ratio = vp_ratio(vp_size, phys_procs);
        let base = match class {
            OpClass::Alu => self.alu,
            OpClass::Context => self.context,
            OpClass::News => self.news,
            OpClass::Router => self.router,
            OpClass::Scan => {
                self.scan.saturating_add(self.tree_step.saturating_mul(log2_ceil(phys_procs)))
            }
            OpClass::FrontEnd => return self.front_end, // front end is scalar: no VP ratio
        };
        // Saturating: a hostile VP ratio must exhaust fuel, not wrap the
        // clock back under it (release builds run with overflow-checks).
        base.saturating_mul(ratio)
    }
}

/// `ceil(vp_size / phys_procs)`, minimum 1 — the CM VP ratio. A set that
/// fits the machine, the common case, is 1 without a division.
#[inline]
pub fn vp_ratio(vp_size: usize, phys_procs: usize) -> u64 {
    let p = phys_procs.max(1);
    if vp_size <= p { 1 } else { vp_size.div_ceil(p) as u64 }
}

/// `ceil(log2(n))`, with `log2_ceil(0|1) = 0`.
#[inline]
pub fn log2_ceil(n: usize) -> u64 {
    if n <= 1 {
        0
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as u64
    }
}

/// Running tally of instructions issued, by class. Useful for experiments
/// that compare communication structure rather than raw cycles.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpCounters {
    pub alu: u64,
    pub context: u64,
    pub news: u64,
    pub router: u64,
    pub scan: u64,
    pub front_end: u64,
}

impl OpCounters {
    pub(crate) fn bump(&mut self, class: OpClass) {
        match class {
            OpClass::Alu => self.alu += 1,
            OpClass::Context => self.context += 1,
            OpClass::News => self.news += 1,
            OpClass::Router => self.router += 1,
            OpClass::Scan => self.scan += 1,
            OpClass::FrontEnd => self.front_end += 1,
        }
    }

    /// Total instructions of every class.
    pub fn total(&self) -> u64 {
        self.alu + self.context + self.news + self.router + self.scan + self.front_end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vp_ratio_rounds_up() {
        assert_eq!(vp_ratio(1, 16), 1);
        assert_eq!(vp_ratio(16, 16), 1);
        assert_eq!(vp_ratio(17, 16), 2);
        assert_eq!(vp_ratio(0, 16), 1);
        assert_eq!(vp_ratio(100, 0), 100); // degenerate: 1 "physical" proc
    }

    #[test]
    fn log2_ceil_values() {
        assert_eq!(log2_ceil(0), 0);
        assert_eq!(log2_ceil(1), 0);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(3), 2);
        assert_eq!(log2_ceil(16384), 14);
        assert_eq!(log2_ceil(16385), 15);
    }

    #[test]
    fn class_ordering_preserved() {
        let c = CostModel::default();
        let p = 16384;
        let alu = c.charge(OpClass::Alu, p, p);
        let news = c.charge(OpClass::News, p, p);
        let router = c.charge(OpClass::Router, p, p);
        assert!(alu < news && news < router, "alu < news < router must hold");
    }

    #[test]
    fn vp_ratio_scales_charges() {
        let c = CostModel::default();
        let one = c.charge(OpClass::Alu, 16384, 16384);
        let four = c.charge(OpClass::Alu, 4 * 16384, 16384);
        assert_eq!(four, 4 * one);
    }

    #[test]
    fn front_end_flat() {
        let c = CostModel::default();
        assert_eq!(c.charge(OpClass::FrontEnd, 1 << 20, 16), c.front_end);
    }

    #[test]
    fn counters_bump_and_total() {
        let mut k = OpCounters::default();
        k.bump(OpClass::Alu);
        k.bump(OpClass::Alu);
        k.bump(OpClass::Router);
        k.bump(OpClass::Scan);
        k.bump(OpClass::News);
        k.bump(OpClass::Context);
        k.bump(OpClass::FrontEnd);
        assert_eq!(k.alu, 2);
        assert_eq!(k.router, 1);
        assert_eq!(k.total(), 7);
    }
}
