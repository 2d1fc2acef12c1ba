//! Per-VP memory fields.
//!
//! A *field* is one slot of local memory replicated across every
//! virtual processor of a VP set — the CM analogue of "an array mapped one
//! element per processor". Fields are strongly typed; UC integers map to
//! `i64`, UC floats to `f64`, and test results to `bool`.

use crate::machine::VpSetId;
use crate::Scalar;

/// Element type of a field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElemType {
    Int,
    Float,
    Bool,
}

/// The storage of one field: a homogeneous vector with one element per VP.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldData {
    I64(Vec<i64>),
    F64(Vec<f64>),
    Bool(Vec<bool>),
}

impl FieldData {
    /// The element type of this storage.
    pub fn elem_type(&self) -> ElemType {
        match self {
            FieldData::I64(_) => ElemType::Int,
            FieldData::F64(_) => ElemType::Float,
            FieldData::Bool(_) => ElemType::Bool,
        }
    }

    /// Number of elements (= VP-set size).
    pub fn len(&self) -> usize {
        match self {
            FieldData::I64(v) => v.len(),
            FieldData::F64(v) => v.len(),
            FieldData::Bool(v) => v.len(),
        }
    }

    /// Whether the field has no elements (never true for a live VP set).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Overwrite `self` with `src`'s contents, reusing the existing
    /// capacity (no heap allocation once the capacity fits). Panics on a
    /// variant mismatch; callers type-check first.
    pub(crate) fn clone_from_reusing(&mut self, src: &FieldData) {
        match (self, src) {
            (FieldData::I64(d), FieldData::I64(s)) => {
                d.clear();
                d.extend_from_slice(s);
            }
            (FieldData::F64(d), FieldData::F64(s)) => {
                d.clear();
                d.extend_from_slice(s);
            }
            (FieldData::Bool(d), FieldData::Bool(s)) => {
                d.clear();
                d.extend_from_slice(s);
            }
            _ => unreachable!("clone_from_reusing across element types"),
        }
    }
}

/// A Rust type that is the element of one [`FieldData`] variant. Lets the
/// elementwise kernels be written once per operation instead of once per
/// operation and storage variant. The slice accessors panic on a variant
/// mismatch; callers type-check first.
pub(crate) trait Elem: Copy + Send + Sync {
    fn slice(data: &FieldData) -> &[Self];
    fn slice_mut(data: &mut FieldData) -> &mut [Self];
    /// The scalar coerced to this type (a no-op after type-checking).
    fn from_scalar(s: Scalar) -> Self;
}

macro_rules! impl_elem {
    ($ty:ty, $variant:ident, $coerce:ident) => {
        impl Elem for $ty {
            fn slice(data: &FieldData) -> &[Self] {
                match data {
                    FieldData::$variant(v) => v,
                    other => unreachable!("{:?} field read as {}", other.elem_type(), stringify!($ty)),
                }
            }
            fn slice_mut(data: &mut FieldData) -> &mut [Self] {
                match data {
                    FieldData::$variant(v) => v,
                    other => unreachable!("{:?} field written as {}", other.elem_type(), stringify!($ty)),
                }
            }
            fn from_scalar(s: Scalar) -> Self {
                s.$coerce()
            }
        }
    };
}
impl_elem!(i64, I64, as_int);
impl_elem!(f64, F64, as_float);
impl_elem!(bool, Bool, as_bool);

/// A field: typed, per-VP storage belonging to one VP set.
#[derive(Debug, Clone)]
pub struct Field {
    pub(crate) data: FieldData,
}

impl Field {
    /// The element type.
    pub fn elem_type(&self) -> ElemType {
        self.data.elem_type()
    }
}

/// Handle to a field. Carries its VP set so cross-set misuse is caught.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FieldId {
    pub(crate) vp: VpSetId,
    pub(crate) index: usize,
}

impl FieldId {
    /// The VP set this field lives on.
    pub fn vp_set(&self) -> VpSetId {
        self.vp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_metadata() {
        let f = Field { data: FieldData::Bool(vec![false; 8]) };
        assert_eq!(f.elem_type(), ElemType::Bool);
        assert_eq!(f.data.len(), 8);
        assert!(!f.data.is_empty());
        assert_eq!(FieldData::I64(vec![0; 4]).elem_type(), ElemType::Int);
        assert_eq!(FieldData::F64(vec![0.0; 2]).elem_type(), ElemType::Float);
        assert!(FieldData::F64(Vec::new()).is_empty());
    }
}
