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
//!
//! The charge is linear, so a machine records only a [`Tally`] (per class,
//! ops and Σ VP ratio) and its cycles are `cost · tally`. [`OpCounters`] is
//! the tally's op-count projection; the tally re-costs under any model.

/// Instruction classes the machine charges for, in the order of the
/// per-class arrays of a [`Tally`] (`class as usize`).
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

/// Number of [`OpClass`]es.
pub const CLASSES: usize = 6;

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
    /// The cycles one op of each class costs at VP ratio 1 on `phys_procs`
    /// physical processors, indexed by `OpClass as usize`: the one place a
    /// class meets its charge.
    pub fn bases(&self, phys_procs: usize) -> [u64; CLASSES] {
        let scan = self.scan.saturating_add(self.tree_step.saturating_mul(log2_ceil(phys_procs)));
        [self.alu, self.context, self.news, self.router, scan, self.front_end]
    }

    /// `cost · tally`: Σ over classes of base × Σ VP ratio. Saturating, so
    /// a hostile VP ratio exhausts fuel instead of wrapping the count back
    /// under it; every term is non-negative, so it is exact until `u64::MAX`.
    pub fn cycles(&self, tally: &Tally) -> u64 {
        let bases = self.bases(tally.phys_procs);
        let terms = bases.iter().zip(&tally.ratio).map(|(b, r)| b.saturating_mul(*r));
        terms.fold(0, u64::saturating_add)
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

/// What a machine did, whatever it costs: per [`OpClass`] (indexed `class
/// as usize`), the ops issued and the saturating sum of their VP ratios
/// (1 for the scalar front end). The ratios depend on `phys_procs`, so a
/// tally re-costs under any [`CostModel`] but only at its own machine size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub phys_procs: usize,
    pub ops: [u64; CLASSES],
    pub ratio: [u64; CLASSES],
}

impl Tally {
    /// An empty tally for a machine of `phys_procs` processors.
    pub fn new(phys_procs: usize) -> Self {
        Tally { phys_procs, ops: [0; CLASSES], ratio: [0; CLASSES] }
    }

    /// Record one op of `class` issued to a VP set of `vp_size`.
    #[inline]
    pub(crate) fn record(&mut self, class: OpClass, vp_size: usize) {
        let ratio = match class {
            OpClass::FrontEnd => 1,
            _ => vp_ratio(vp_size, self.phys_procs),
        };
        let c = class as usize;
        self.ops[c] += 1;
        self.ratio[c] = self.ratio[c].saturating_add(ratio);
    }

    /// The op counts by class.
    pub fn counters(&self) -> OpCounters {
        let [alu, context, news, router, scan, front_end] = self.ops;
        OpCounters { alu, context, news, router, scan, front_end }
    }
}

/// Instructions issued, by class: the op-count projection of a [`Tally`].
/// Useful for experiments that compare communication structure rather
/// than raw cycles.
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

    /// The cycles of one op of `class` on `vp_size` VPs.
    fn one_op(c: &CostModel, class: OpClass, vp_size: usize, phys_procs: usize) -> u64 {
        let mut t = Tally::new(phys_procs);
        t.record(class, vp_size);
        c.cycles(&t)
    }

    #[test]
    fn class_ordering_preserved() {
        let [alu, _, news, router, scan, _] = CostModel::default().bases(16384);
        assert!(alu < news && news < router, "alu < news < router must hold");
        assert_eq!(scan, 120 + 20 * 14, "scans pay the combine tree");
    }

    #[test]
    fn vp_ratio_scales_charges() {
        let c = CostModel::default();
        let one = one_op(&c, OpClass::Alu, 16384, 16384);
        let four = one_op(&c, OpClass::Alu, 4 * 16384, 16384);
        assert_eq!(four, 4 * one);
    }

    #[test]
    fn front_end_flat() {
        let c = CostModel::default();
        assert_eq!(one_op(&c, OpClass::FrontEnd, 1 << 20, 16), c.front_end);
    }

    #[test]
    fn tally_counts_and_costs_each_class() {
        let mut t = Tally::new(16);
        for (class, vp_size) in [
            (OpClass::Alu, 16),
            (OpClass::Alu, 40),
            (OpClass::Router, 16),
            (OpClass::Scan, 32),
            (OpClass::News, 1),
            (OpClass::Context, 16),
            (OpClass::FrontEnd, 1 << 20),
        ] {
            t.record(class, vp_size);
        }
        let k = t.counters();
        assert_eq!((k.alu, k.router, k.total()), (2, 1, 7));
        assert_eq!(t.ratio, [1 + 3, 1, 1, 1, 2, 1]);
        let c = CostModel::default();
        assert_eq!(c.cycles(&t), 30 * 4 + 10 + 60 + 600 + (120 + 20 * 4) * 2 + 10);
    }

    #[test]
    fn cycles_saturate() {
        let mut t = Tally::new(1);
        t.record(OpClass::Router, usize::MAX);
        t.record(OpClass::Router, usize::MAX);
        assert_eq!(CostModel::default().cycles(&t), u64::MAX);
    }
}
