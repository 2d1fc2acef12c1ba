//! # uc-cm — a deterministic Connection Machine (CM-2) simulator
//!
//! The UC paper (Bagrodia, Chandy & Kwan, SC 1990) was evaluated on a 16K
//! Thinking Machines CM-2: a SIMD machine in which a front-end computer
//! broadcasts macro-instructions to a sea of processing elements, each with
//! its own local memory and a one-bit *context flag* that decides whether it
//! participates in the current instruction. The CM presents *virtual
//! processors* (VPs): a program may request more processors than physically
//! exist and the hardware time-slices each physical processor over
//! `ceil(V/P)` virtual ones (the *VP ratio*).
//!
//! This crate is a faithful, deterministic software model of that execution
//! substrate:
//!
//! * [`Machine`] — the front end plus PE array; owns every VP set and
//!   records every operation in one [`cost::Tally`], whose cost under the
//!   [`cost::CostModel`] is the clock and whose op counts are the counters.
//! * [`geometry::Geometry`] — n-dimensional VP-set shapes with row-major
//!   send addresses, mirroring CM geometries.
//! * [`field::Field`] — per-VP typed memory (`i64`, `f64`, `bool`).
//! * [`context`] — stacked activity masks (the CM context flag).
//! * [`ops`] — elementwise SIMD ALU operations.
//! * [`news`] — NEWS-grid nearest-neighbour shifts.
//! * [`router`] — the general router: arbitrary `send`/`get` with combining.
//! * [`scan`] — global reductions, prefix scans and segmented scans.
//!
//! Large element-wise operations fan out on the host thread pool; everything
//! observable (values *and* the cycle clock) is independent of thread count,
//! so simulations are reproducible.
//!
//! ## Example
//!
//! ```
//! use uc_cm::{Machine, ops::BinOp, scan::ReduceOp, Scalar};
//!
//! let mut m = Machine::with_defaults();
//! let vp = m.new_vp_set("v", &[1024]).unwrap();
//! let a = m.alloc_int(vp, "a").unwrap();
//! m.iota(a).unwrap();                       // a[i] = i
//! m.binop_imm(BinOp::Mul, a, a, 2.into()).unwrap();  // a[i] *= 2
//! let s = m.reduce(a, ReduceOp::Add).unwrap();
//! assert_eq!(s, Scalar::Int((0..1024).map(|i| 2 * i).sum()));
//! assert!(m.cycles() > 0);
//! ```

pub mod context;
pub mod cost;
pub mod field;
pub mod geometry;
pub mod machine;
pub mod news;
pub mod ops;
pub mod par;
pub mod router;
pub mod scan;

pub use field::{ElemType, Field, FieldData, FieldId};
pub use geometry::Geometry;
pub use machine::{Machine, MachineConfig, MachineLimits, VpSetId};
pub use ops::{BinOp, UnOp};
pub use router::Combine;
pub use scan::ReduceOp;

/// A scalar value living on the front-end computer.
///
/// Front-end scalars are what reductions produce and what broadcasts
/// consume. `Bool` models the CM's one-bit test results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scalar {
    Int(i64),
    Float(f64),
    Bool(bool),
}

impl Scalar {
    /// The scalar as an `i64`, coercing `Bool` to 0/1 and truncating floats.
    pub fn as_int(self) -> i64 {
        match self {
            Scalar::Int(i) => i,
            Scalar::Float(f) => f as i64,
            Scalar::Bool(b) => b as i64,
        }
    }

    /// The scalar as an `f64`.
    pub fn as_float(self) -> f64 {
        match self {
            Scalar::Int(i) => i as f64,
            Scalar::Float(f) => f,
            Scalar::Bool(b) => (b as i64) as f64,
        }
    }

    /// The scalar as a truth value (non-zero is true, C-style).
    pub fn as_bool(self) -> bool {
        match self {
            Scalar::Int(i) => i != 0,
            Scalar::Float(f) => f != 0.0,
            Scalar::Bool(b) => b,
        }
    }

    /// The element type this scalar would occupy in a field.
    pub fn elem_type(self) -> ElemType {
        match self {
            Scalar::Int(_) => ElemType::Int,
            Scalar::Float(_) => ElemType::Float,
            Scalar::Bool(_) => ElemType::Bool,
        }
    }
}

impl From<i64> for Scalar {
    fn from(v: i64) -> Self {
        Scalar::Int(v)
    }
}
impl From<f64> for Scalar {
    fn from(v: f64) -> Self {
        Scalar::Float(v)
    }
}
impl From<bool> for Scalar {
    fn from(v: bool) -> Self {
        Scalar::Bool(v)
    }
}

/// Errors raised by the simulator.
///
/// These model front-end runtime errors: shape mismatches, type confusion,
/// router addresses outside the destination VP set, and so on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CmError {
    /// A field id was used with a machine that never allocated it.
    UnknownField,
    /// A VP-set id was used with a machine that never created it.
    UnknownVpSet,
    /// Two operands live on different VP sets but the op needs one set.
    VpSetMismatch,
    /// An operand had the wrong element type for the operation.
    TypeMismatch { expected: ElemType, found: ElemType },
    /// A router address was outside the destination VP set.
    AddressOutOfRange { addr: i64, size: usize },
    /// A geometry axis index was out of range.
    AxisOutOfRange { axis: usize, rank: usize },
    /// A geometry had a zero-sized dimension or no dimensions.
    BadGeometry,
    /// Division or modulus by zero inside a SIMD op.
    DivideByZero,
    /// Popping the base (all-active) context.
    ContextUnderflow,
    /// Scalar access outside the VP set.
    IndexOutOfRange { index: usize, size: usize },
    /// Operation is not defined for this element type (e.g. float shl).
    Unsupported(&'static str),
    /// The machine's cycle budget (fuel) ran out.
    FuelExhausted { limit: u64 },
    /// An allocation would push live field/context storage over the
    /// memory budget.
    MemoryLimitExceeded { requested: u64, limit: u64 },
    /// The armed wall-clock deadline passed.
    DeadlineExceeded { timeout_ms: u64 },
}

impl CmError {
    /// Whether this error is a resource-budget trap (fuel, memory or
    /// deadline) rather than a program fault. Budget traps are terminal:
    /// the machine stays over budget, so retrying the operation fails the
    /// same way.
    pub fn is_budget(&self) -> bool {
        matches!(
            self,
            CmError::FuelExhausted { .. }
                | CmError::MemoryLimitExceeded { .. }
                | CmError::DeadlineExceeded { .. }
        )
    }
}

impl std::fmt::Display for CmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CmError::UnknownField => write!(f, "unknown field id"),
            CmError::UnknownVpSet => write!(f, "unknown VP set id"),
            CmError::VpSetMismatch => write!(f, "operands live on different VP sets"),
            CmError::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected:?}, found {found:?}")
            }
            CmError::AddressOutOfRange { addr, size } => {
                write!(f, "router address {addr} outside VP set of size {size}")
            }
            CmError::AxisOutOfRange { axis, rank } => {
                write!(f, "axis {axis} out of range for rank-{rank} geometry")
            }
            CmError::BadGeometry => write!(f, "geometry must have at least one nonzero dimension"),
            CmError::DivideByZero => write!(f, "divide by zero in SIMD operation"),
            CmError::ContextUnderflow => write!(f, "cannot pop the base context"),
            CmError::IndexOutOfRange { index, size } => {
                write!(f, "index {index} outside VP set of size {size}")
            }
            CmError::Unsupported(what) => write!(f, "unsupported operation: {what}"),
            CmError::FuelExhausted { limit } => {
                write!(f, "cycle budget exceeded: fuel limit of {limit} cycles exhausted")
            }
            CmError::MemoryLimitExceeded { requested, limit } => {
                write!(
                    f,
                    "memory budget exceeded: {requested}-byte allocation over the \
                     {limit}-byte limit"
                )
            }
            CmError::DeadlineExceeded { timeout_ms } => {
                write!(f, "wall-clock budget exceeded: {timeout_ms} ms deadline passed")
            }
        }
    }
}

impl std::error::Error for CmError {}

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, CmError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_coercions() {
        assert_eq!(Scalar::Int(3).as_float(), 3.0);
        assert_eq!(Scalar::Float(2.5).as_int(), 2);
        assert!(Scalar::Int(1).as_bool());
        assert!(!Scalar::Float(0.0).as_bool());
        assert_eq!(Scalar::Bool(true).as_int(), 1);
        assert_eq!(Scalar::from(7i64), Scalar::Int(7));
        assert_eq!(Scalar::from(0.5f64), Scalar::Float(0.5));
        assert_eq!(Scalar::from(true), Scalar::Bool(true));
    }

    #[test]
    fn scalar_elem_types() {
        assert_eq!(Scalar::Int(0).elem_type(), ElemType::Int);
        assert_eq!(Scalar::Float(0.0).elem_type(), ElemType::Float);
        assert_eq!(Scalar::Bool(false).elem_type(), ElemType::Bool);
    }

    #[test]
    fn error_display_is_informative() {
        let e = CmError::AddressOutOfRange { addr: 99, size: 10 };
        assert!(e.to_string().contains("99"));
        let e = CmError::TypeMismatch { expected: ElemType::Int, found: ElemType::Float };
        assert!(e.to_string().contains("Int"));
    }
}
