//! The map section: data mappings (§4 of the paper).
//!
//! A UC program may re-layout its arrays on the machine without touching
//! program logic. Three mapping classes exist:
//!
//! * **permute** — cyclically re-position the elements of an array
//!   relative to another so that elements accessed together are stored on
//!   a common processor. `permute (I) b[i+1] :- a[i];` stores `b[i+1]`
//!   where `a[i]` lives, i.e. shifts `b`'s storage by −1 (toroidally).
//! * **fold** — fold an axis in half so `a[i]` and `a[N-1-i]` share a
//!   processor: `fold (I) a[i] :- a[N-1-i];`.
//! * **copy** — replicate an array along an extra leading axis to reduce
//!   broadcasts: `copy (J) a[i] :- a[i];` keeps `|J|` replicas; reads use
//!   a local replica, writes update all of them.
//!
//! Sema checks the section after the global declarations and before any
//! function body. It resolves it like any other code — its sets and each
//! declaration's to [`SetId`]s, each pattern's array to a [`Ref::Array`],
//! every subscript identifier to an element of those sets or a `#define`
//! — and interprets each declaration as it resolves it, reading
//! subscripts through `opt::classify_index`, the classifier sema's access
//! plan uses. Each array's mapping is then a field of its
//! [`crate::sema::ArrayInfo`], fixed before the bodies' accesses are
//! judged under it.
//!
//! The executor consults [`ArrayMapping`] on every array access: reads and
//! writes are transformed exactly like the paper's source-to-source
//! subscript rewriting, so **mappings never change program results** —
//! only where elements live and therefore what communication costs.

use uc_cm::Scalar;

use crate::ast::{BinaryOp, Expr, MapDecl, MapKind, Name, Ref, SetId};
use crate::diag::Diagnostics;
use crate::opt::{self, IdxForm, SubForm};
use crate::sema::{self, Checked, IndexSetInfo};

/// How one array is laid out on the machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArrayMapping {
    /// The compiler's default: element `k` of every conforming array on
    /// processor `k` (row-major for multi-dimensional arrays).
    Default,
    /// Per-dimension cyclic storage shift: logical element `v` of
    /// dimension `d` is stored at `(v - offsets[d]).rem_euclid(extent_d)`.
    Permute { offsets: Vec<i64> },
    /// Axis `axis` folded at the midpoint: logical `v` is stored at
    /// `2*min(v, n-1-v) + (v >= ceil(n/2))` so `v` and `n-1-v` are
    /// adjacent (same physical processor at VP-ratio ≥ 2).
    Fold { axis: usize },
    /// `replicas` copies along an extra leading storage axis.
    Copy { replicas: usize },
}

impl ArrayMapping {
    /// Shape of the backing storage for a logical shape.
    pub fn storage_shape(&self, logical: &[usize]) -> Vec<usize> {
        match self {
            ArrayMapping::Copy { replicas } => {
                let mut s = Vec::with_capacity(logical.len() + 1);
                s.push(*replicas);
                s.extend_from_slice(logical);
                s
            }
            _ => logical.to_vec(),
        }
    }

    /// The storage coordinate of logical coordinate `v` on axis `d` of
    /// extent `n`: the transform is per axis.
    pub fn storage_axis(&self, d: usize, v: usize, n: usize) -> usize {
        match *self {
            ArrayMapping::Permute { ref offsets } => {
                (v as i64 - offsets[d]).rem_euclid(n as i64) as usize
            }
            ArrayMapping::Fold { axis } if axis == d => {
                let low = v.min((n - 1).saturating_sub(v));
                2 * low + usize::from(v >= n.div_ceil(2))
            }
            _ => v,
        }
    }

    /// Linear storage address of a logical linear index (row-major on the
    /// storage shape), transformed axis by axis. For `Copy`, the address
    /// of replica `replica`; every other mapping has only replica 0.
    pub fn storage_index(&self, logical_linear: usize, shape: &[usize], replica: usize) -> usize {
        let (mut rest, mut base, mut stride) = (logical_linear, 0, 1);
        for (d, &n) in shape.iter().enumerate().rev() {
            base += self.storage_axis(d, rest % n, n) * stride;
            (rest, stride) = (rest / n, stride * n);
        }
        replica * stride + base
    }

    /// Number of replicas (1 for non-copy mappings).
    pub fn replicas(&self) -> usize {
        match self {
            ArrayMapping::Copy { replicas } => *replicas,
            _ => 1,
        }
    }
}

/// Every global array's mapping, by [`Ref::Array`] id: a copy of what
/// sema wrote on each [`crate::sema::ArrayInfo`] as it checked the map
/// section, whose errors it reported then, so `diags` gains nothing. Kept
/// only for the benchmark probe, which times it, until ROADMAP item 13(b).
pub fn interpret_maps(checked: &Checked, _diags: &mut Diagnostics) -> Vec<ArrayMapping> {
    checked.arrays.iter().map(|a| a.mapping.clone()).collect()
}

/// The mapping one resolved declaration gives its target array of
/// `shape`, or why it fits none of the three classes. `sets` are the
/// declaration's own, `table` every index-set definition, and `define`
/// the value of an identifier resolved to a `#define`.
pub(crate) fn interpret_one(
    decl: &MapDecl,
    sets: &[SetId],
    shape: &[usize],
    table: &[IndexSetInfo],
    define: &dyn Fn(&Name) -> Option<Scalar>,
) -> Result<ArrayMapping, String> {
    // Each bound set is an axis of its own, its element that axis's
    // coordinate (`lo = 0`, whatever the set's elements), so the one
    // classifier reads a subscript as `(set, constant)`.
    let elem_form = |n: &Name| match n.to {
        Ref::Elem(set) => Some(SubForm::Axis { axis: set as usize, lo: 0 }),
        _ => None,
    };
    let konst = |e: &Expr| sema::int_const(e, define).ok();
    let form = |e: &Expr| {
        let shape = opt::classify_index(e, &elem_form, &|e| konst(e).is_some());
        match opt::resolve_index(shape, e, define) {
            IdxForm::AxisPlus { axis, offset } => Some((axis, offset)),
            _ => None,
        }
    };
    let (target, source) = (&decl.target.subs, &decl.source.subs);
    match decl.kind {
        MapKind::Permute => {
            // `permute (I) b[i+c] :- a[i+c'];` per dimension:
            // offset_d = c - c'.
            let mut offsets = Vec::with_capacity(target.len());
            for (t, s) in target.iter().zip(source) {
                let ((ts, tc), (ss, sc)) = form(t)
                    .zip(form(s))
                    .ok_or("permute patterns must be `elem + constant` per dimension")?;
                if ts != ss {
                    let (te, se) = (&table[ts].elem, &table[ss].elem);
                    return Err(format!(
                        "permute dimensions must use the same element (found `{te}` vs `{se}`)"
                    ));
                }
                offsets.push(tc.checked_sub(sc).ok_or("permute offset overflows a 64-bit integer")?);
            }
            if offsets.len() != shape.len() {
                return Err("permute pattern rank does not match the array".into());
            }
            Ok(ArrayMapping::Permute { offsets })
        }
        MapKind::Fold => {
            // `fold (I) a[i] :- a[N-1-i];` — the axis whose target is an
            // element and whose source mirrors it.
            let mirrored = |(d, (t, s)): (usize, (&Expr, &Expr))| {
                let (set, 0) = form(t)? else { return None };
                let Expr::Binary { op: BinaryOp::Sub, lhs, rhs, .. } = s else { return None };
                let Expr::Ident(elem, _) = rhs.as_ref() else { return None };
                let top = shape[d] as i64 - 1;
                (elem.to == Ref::Elem(set as u32) && konst(lhs)? == top).then_some(d)
            };
            let axis = target.iter().zip(source).enumerate().find_map(mirrored);
            let axis = axis.ok_or("fold expects a pattern like `a[i] :- a[N-1-i]`")?;
            Ok(ArrayMapping::Fold { axis })
        }
        MapKind::Copy => {
            // `copy (J) a[i] :- a[i];` — a replica per element of each of
            // the declaration's sets whose element the target leaves out.
            let elem = |set: SetId| move |x: &Expr| matches!(x, Expr::Ident(n, _) if n.to == Ref::Elem(set as u32));
            let mut replicas = 1usize;
            for &set in sets {
                if !target.iter().any(|e| e.any(&mut elem(set))) {
                    replicas = replicas
                        .checked_mul(table[set].elements.len())
                        .ok_or("copy mapping replica count overflows")?;
                }
            }
            let msg = "copy mapping needs at least one replication set not used in the pattern";
            (replicas > 1).then_some(ArrayMapping::Copy { replicas }).ok_or(msg.into())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::sema::check;

    /// The mapping `sema::check` gives each mapped array, by name.
    fn maps_for(src: &str) -> Vec<(String, ArrayMapping)> {
        let mut d = Diagnostics::default();
        let unit = parse(src, &mut d).expect("parse");
        let checked = check(unit, &mut d).unwrap_or_else(|| panic!("{d}"));
        let mappings = checked.arrays.iter().map(|a| a.mapping.clone());
        let maps = checked.array_names.iter().cloned().zip(mappings);
        maps.filter(|(_, m)| *m != ArrayMapping::Default).collect()
    }

    /// Unflattening an index into axes and flattening it back, as
    /// `storage_index` does, is the identity under the default mapping; a
    /// copy's replicas follow one another.
    #[test]
    fn flatten_roundtrip() {
        let shape = [3usize, 4, 5];
        for idx in 0..60 {
            assert_eq!(ArrayMapping::Default.storage_index(idx, &shape, 0), idx);
            let copy = ArrayMapping::Copy { replicas: 2 };
            assert_eq!(copy.storage_index(idx, &shape, 1), 60 + idx);
        }
    }

    /// An offset is any constant over literals and `#define`s, and a
    /// list set binds its element like a range does.
    #[test]
    fn permute_offsets() {
        let prelude = "#define N 8\n#define K 1\nindex_set I:i = {0..N-1}, L:l = {4, 2, 9};\nint a[N], b[N];\n";
        for decl in [
            "map (I) { permute (I) b[i+1] :- a[i]; }",
            "map (I) { permute (I) b[i+K] :- a[i]; }",
            "map (I) { permute (I) b[(i+K)+2] :- a[i+2]; }",
            "map (L) { permute (L) b[l+1] :- a[l]; }",
        ] {
            let maps = maps_for(&format!("{prelude}{decl}\nmain() {{}}"));
            let expected = vec![("b".to_string(), ArrayMapping::Permute { offsets: vec![1] })];
            assert_eq!(maps, expected, "{decl}");
        }
    }

    #[test]
    fn permute_storage_addresses() {
        let m = ArrayMapping::Permute { offsets: vec![1] };
        let shape = [8usize];
        // logical 1 stored at 0 (shift by -1), logical 0 wraps to 7.
        assert_eq!(m.storage_index(1, &shape, 0), 0);
        assert_eq!(m.storage_index(0, &shape, 0), 7);
        assert_eq!(m.storage_index(7, &shape, 0), 6);
        assert_eq!(m.storage_shape(&shape), vec![8]);
        // Storage is a permutation.
        let mut seen: Vec<usize> = (0..8).map(|i| m.storage_index(i, &shape, 0)).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn fold_pairs_mirrored_elements() {
        let maps = maps_for(
            "#define N 8\nindex_set I:i = {0..N-1};\nint a[N];\nmap (I) { fold (I) a[i] :- a[N-1-i]; }\nmain() {}",
        );
        let m = &maps[0].1;
        assert_eq!(*m, ArrayMapping::Fold { axis: 0 });
        let shape = [8usize];
        // i and N-1-i are adjacent in storage.
        for i in 0..4usize {
            let lo = m.storage_index(i, &shape, 0);
            let hi = m.storage_index(7 - i, &shape, 0);
            assert_eq!(lo + 1, hi, "fold must pair {i} with {}", 7 - i);
        }
        // Fold is a permutation.
        let mut seen: Vec<usize> = (0..8).map(|i| m.storage_index(i, &shape, 0)).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn copy_replication() {
        let maps = maps_for(
            "#define N 4\nindex_set I:i = {0..N-1}, J:j = {0..2};\nint a[N];\nmap (I) { copy (J) a[i] :- a[i]; }\nmain() {}",
        );
        let m = &maps[0].1;
        assert_eq!(*m, ArrayMapping::Copy { replicas: 3 });
        assert_eq!(m.storage_shape(&[4]), vec![3, 4]);
        assert_eq!(m.storage_index(2, &[4], 0), 2);
        assert_eq!(m.storage_index(2, &[4], 1), 6);
        assert_eq!(m.storage_index(2, &[4], 2), 10);
        assert_eq!(m.replicas(), 3);
    }

    #[test]
    fn bad_patterns_are_errors() {
        let prelude = "#define N 4\nindex_set I:i = {0..N-1}, J:j = I;\nint a[N], b[N], c[N][N];\n";
        for (decl, expected) in [
            ("permute (I) b[i*2] :- a[i];", "permute patterns must be `elem + constant`"),
            ("permute (I,J) b[i] :- a[j];", "same element (found `i` vs `j`)"),
            ("fold (I) a[i] :- a[N-2-i];", "fold expects"),
            ("copy (I) a[i] :- a[i];", "at least one replication set"),
            ("permute (I) c[i][i] :- a[i];", "rank does not match"),
        ] {
            let mut d = Diagnostics::default();
            let src = format!("{prelude}map (I) {{ {decl} }}\nmain() {{}}");
            let unit = parse(&src, &mut d).unwrap();
            assert!(check(unit, &mut d).is_none(), "{decl}");
            assert!(d.to_string().contains(expected), "{decl}: {d}");
        }
    }

    #[test]
    fn two_dim_permute() {
        let maps = maps_for(
            "#define N 4\nindex_set I:i = {0..N-1}, J:j = I;\nint a[N][N], b[N][N];\nmap (I,J) { permute (I,J) b[i][j+2] :- a[i][j]; }\nmain() {}",
        );
        assert_eq!(maps[0].1, ArrayMapping::Permute { offsets: vec![0, 2] });
    }
}
