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
//! The executor consults [`ArrayMapping`] on every array access: reads and
//! writes are transformed exactly like the paper's source-to-source
//! subscript rewriting, so **mappings never change program results** —
//! only where elements live and therefore what communication costs.

use crate::ast::{BinaryOp, Expr, MapDecl, MapKind};
use crate::diag::Diagnostics;
use crate::sema::Checked;

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

/// Interpret the map section of a checked program: produce the mapping for
/// every mapped array. Unmapped arrays default to [`ArrayMapping::Default`].
pub fn interpret_maps(
    checked: &Checked,
    diags: &mut Diagnostics,
) -> Vec<(String, ArrayMapping)> {
    let mut out = Vec::new();
    for decl in &checked.maps {
        match interpret_one(checked, decl) {
            Ok(m) => out.push((decl.target.array.clone(), m)),
            Err(msg) => diags.error(decl.span, msg),
        }
    }
    out
}

fn interpret_one(checked: &Checked, decl: &MapDecl) -> Result<ArrayMapping, String> {
    let target_info = checked
        .arrays
        .get(&decl.target.array)
        .ok_or_else(|| format!("unknown array `{}`", decl.target.array))?;
    match decl.kind {
        MapKind::Permute => {
            // `permute (I) b[i+c] :- a[i+c'];` per dimension:
            // offset_d = c_target - c_source.
            let mut offsets = Vec::new();
            for (t, s) in decl.target.subs.iter().zip(&decl.source.subs) {
                let (te, tc) = elem_plus_const(t)
                    .ok_or("permute patterns must be `elem + constant` per dimension")?;
                let (se, sc) = elem_plus_const(s)
                    .ok_or("permute patterns must be `elem + constant` per dimension")?;
                if te != se {
                    return Err(format!(
                        "permute dimensions must use the same element (found `{te}` vs `{se}`)"
                    ));
                }
                offsets.push(
                    tc.checked_sub(sc)
                        .ok_or("permute offset overflows a 64-bit integer")?,
                );
            }
            if offsets.len() != target_info.shape.len() {
                return Err("permute pattern rank does not match the array".into());
            }
            Ok(ArrayMapping::Permute { offsets })
        }
        MapKind::Fold => {
            // `fold (I) a[i] :- a[N-1-i];` — find the reflected axis.
            for (d, (t, s)) in decl.target.subs.iter().zip(&decl.source.subs).enumerate() {
                let Some((te, 0)) = elem_plus_const(t) else { continue };
                if let Some((se, c)) = const_minus_elem(s, &checked.consts) {
                    if te == se && c == target_info.shape[d] as i64 - 1 {
                        return Ok(ArrayMapping::Fold { axis: d });
                    }
                }
            }
            Err("fold expects a pattern like `a[i] :- a[N-1-i]`".into())
        }
        MapKind::Copy => {
            // `copy (J) a[i] :- a[i];` — replicate over the sets named in
            // the decl whose element does not appear in the pattern.
            let mut replicas = 1usize;
            for set in &decl.idxs {
                let info = checked
                    .index_set(set)
                    .ok_or_else(|| format!("unknown index set `{set}` in copy mapping"))?;
                let used = decl
                    .target
                    .subs
                    .iter()
                    .any(|e| matches!(elem_plus_const(e), Some((n, _)) if n == info.elem));
                if !used {
                    replicas = replicas
                        .checked_mul(info.elements.len())
                        .ok_or("copy mapping replica count overflows")?;
                }
            }
            if replicas <= 1 {
                return Err(
                    "copy mapping needs at least one replication set not used in the pattern"
                        .into(),
                );
            }
            Ok(ArrayMapping::Copy { replicas })
        }
    }
}

/// Match `elem`, `elem + c`, `elem - c` returning `(elem, c)`.
fn elem_plus_const(e: &Expr) -> Option<(String, i64)> {
    match e {
        Expr::Ident(n, _) => Some((n.to_string(), 0)),
        Expr::Binary { op: BinaryOp::Add, lhs, rhs, .. } => {
            if let (Expr::Ident(n, _), Expr::IntLit(c, _)) = (lhs.as_ref(), rhs.as_ref()) {
                Some((n.to_string(), *c))
            } else if let (Expr::IntLit(c, _), Expr::Ident(n, _)) = (lhs.as_ref(), rhs.as_ref()) {
                Some((n.to_string(), *c))
            } else {
                None
            }
        }
        Expr::Binary { op: BinaryOp::Sub, lhs, rhs, .. } => {
            if let (Expr::Ident(n, _), Expr::IntLit(c, _)) = (lhs.as_ref(), rhs.as_ref()) {
                // checked: `elem - (i64::MIN)` must not abort the compiler.
                Some((n.to_string(), c.checked_neg()?))
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Match `c - elem` (possibly written `N-1-i`, i.e. `(N-1) - i` after
/// constant folding of the left side) returning `(elem, c)`.
fn const_minus_elem(
    e: &Expr,
    consts: &std::collections::HashMap<String, i64>,
) -> Option<(String, i64)> {
    if let Expr::Binary { op: BinaryOp::Sub, lhs, rhs, .. } = e {
        if let Expr::Ident(n, _) = rhs.as_ref() {
            if !consts.contains_key(&*n.text) {
                if let Ok(c) = crate::sema::const_eval(lhs, consts) {
                    return Some((n.to_string(), c));
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::sema::check;

    fn maps_for(src: &str) -> Vec<(String, ArrayMapping)> {
        let mut d = Diagnostics::default();
        let unit = parse(src, &mut d).expect("parse");
        let checked = check(unit, &mut d).expect("sema");
        let maps = interpret_maps(&checked, &mut d);
        assert!(!d.has_errors(), "{d}");
        maps
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

    #[test]
    fn permute_offsets() {
        let maps = maps_for(
            "#define N 8\nindex_set I:i = {0..N-1};\nint a[N], b[N];\nmap (I) { permute (I) b[i+1] :- a[i]; }\nmain() {}",
        );
        assert_eq!(maps, vec![("b".to_string(), ArrayMapping::Permute { offsets: vec![1] })]);
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
        let mut d = Diagnostics::default();
        let unit = parse(
            "#define N 4\nindex_set I:i = {0..N-1};\nint a[N], b[N];\nmap (I) { permute (I) b[i*2] :- a[i]; }\nmain() {}",
            &mut d,
        )
        .unwrap();
        let checked = check(unit, &mut d).unwrap();
        interpret_maps(&checked, &mut d);
        assert!(d.has_errors());
    }

    #[test]
    fn two_dim_permute() {
        let maps = maps_for(
            "#define N 4\nindex_set I:i = {0..N-1}, J:j = I;\nint a[N][N], b[N][N];\nmap (I,J) { permute (I,J) b[i][j+2] :- a[i][j]; }\nmain() {}",
        );
        assert_eq!(maps[0].1, ArrayMapping::Permute { offsets: vec![0, 2] });
    }
}
