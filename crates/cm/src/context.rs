//! Context flags: the CM activity mask.
//!
//! Every CM processing element carries a one-bit *context flag*; a SIMD
//! instruction only takes effect on processors whose flag is set. Nested
//! `where`-style selection (UC's `st (pred)` guards, C*'s active sets) is
//! modelled as a stack of masks whose top is the AND of every enclosing
//! selection.

use crate::{CmError, Result};

/// A stack of activity masks for one VP set.
///
/// The base of the stack is the all-active mask and can never be popped.
/// Pushing ANDs a new predicate into the current mask, which is exactly how
/// the CM implements nested selection: deactivated processors stay
/// deactivated for the whole nested block.
///
/// Popped masks are parked on a spare list and reused by the next push, so
/// steady-state push/pop cycles (every `st`-guarded loop iteration) perform
/// no heap allocation once the stack has been warmed to its peak depth.
///
/// Each level also records whether its mask is all-active, worked out in
/// the pass that builds the mask, so [`ContextStack::all_active`] is O(1).
#[derive(Debug, Clone)]
pub struct ContextStack {
    size: usize,
    stack: Vec<Vec<bool>>,
    /// Per level: every lane of that level's mask is active.
    full: Vec<bool>,
    spare: Vec<Vec<bool>>,
}

/// Retain at most this many popped masks for reuse.
const MAX_SPARE: usize = 8;

impl ContextStack {
    /// A context stack for a VP set of `size` processors, all active.
    pub fn new(size: usize) -> Self {
        ContextStack { size, stack: vec![vec![true; size]], full: vec![true], spare: Vec::new() }
    }

    /// The current activity mask.
    #[inline]
    pub fn current(&self) -> &[bool] {
        self.stack.last().expect("context stack has a base").as_slice()
    }

    /// Whether every lane of the current mask is active (cached per level).
    #[inline]
    pub fn all_active(&self) -> bool {
        *self.full.last().expect("context stack has a base")
    }

    /// Number of VPs in the set.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Depth of nesting, counting the base mask.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Push `mask AND current` as the new activity mask.
    ///
    /// `mask` must have exactly one bit per VP.
    pub fn push_and(&mut self, mask: &[bool]) -> Result<()> {
        if mask.len() != self.size {
            return Err(CmError::VpSetMismatch);
        }
        self.push_with(mask, |c, m| c & m);
        Ok(())
    }

    /// Push the complement *within the enclosing mask*: processors that are
    /// active in the enclosing context but were **not** active in `mask`.
    ///
    /// This implements UC's `others` clause.
    pub fn push_others(&mut self, mask: &[bool]) -> Result<()> {
        if mask.len() != self.size {
            return Err(CmError::VpSetMismatch);
        }
        self.push_with(mask, |c, m| c & !m);
        Ok(())
    }

    /// Push `f(current, mask)` lane by lane, noting in the same pass
    /// whether every lane of the result is active.
    fn push_with(&mut self, mask: &[bool], f: impl Fn(bool, bool) -> bool) {
        let mut next = self.spare.pop().unwrap_or_default();
        next.clear();
        let cur = self.stack.last().expect("context stack has a base");
        let mut full = true;
        next.extend(cur.iter().zip(mask).map(|(&c, &m)| {
            let bit = f(c, m);
            full &= bit;
            bit
        }));
        self.stack.push(next);
        self.full.push(full);
    }

    /// Pop the innermost selection. The base mask cannot be popped.
    pub fn pop(&mut self) -> Result<()> {
        if self.stack.len() == 1 {
            return Err(CmError::ContextUnderflow);
        }
        let popped = self.stack.pop().expect("depth checked");
        self.full.pop();
        if self.spare.len() < MAX_SPARE {
            self.spare.push(popped);
        }
        Ok(())
    }

    /// Number of active processors under the current mask.
    pub fn active_count(&self) -> usize {
        self.current().iter().filter(|&&b| b).count()
    }

    /// Whether any processor is active.
    pub fn any_active(&self) -> bool {
        self.current().iter().any(|&b| b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_is_all_active() {
        let c = ContextStack::new(4);
        assert_eq!(c.current(), &[true; 4]);
        assert_eq!(c.active_count(), 4);
        assert!(c.any_active());
        assert!(c.all_active());
        assert_eq!(c.depth(), 1);
    }

    #[test]
    fn all_active_follows_each_level() {
        let mut c = ContextStack::new(3);
        c.push_and(&[true; 3]).unwrap();
        assert!(c.all_active());
        c.push_others(&[false, true, false]).unwrap();
        assert!(!c.all_active());
        c.push_and(&[true; 3]).unwrap();
        assert!(!c.all_active(), "a child of a partial mask is partial");
        c.pop().unwrap();
        c.pop().unwrap();
        assert!(c.all_active());
        c.push_others(&[false; 3]).unwrap();
        assert!(c.all_active());
        c.pop().unwrap();
        c.pop().unwrap();
        assert!(c.all_active());
    }

    #[test]
    fn push_and_nests() {
        let mut c = ContextStack::new(4);
        c.push_and(&[true, false, true, false]).unwrap();
        assert_eq!(c.current(), &[true, false, true, false]);
        c.push_and(&[true, true, false, false]).unwrap();
        assert_eq!(c.current(), &[true, false, false, false]);
        assert_eq!(c.active_count(), 1);
        c.pop().unwrap();
        assert_eq!(c.current(), &[true, false, true, false]);
    }

    #[test]
    fn push_others_complements_within_parent() {
        let mut c = ContextStack::new(4);
        c.push_and(&[true, true, false, false]).unwrap();
        // Parent restricts to {0,1}; mask selected {0}; others = {1}.
        c.push_others(&[true, false, false, false]).unwrap();
        assert_eq!(c.current(), &[false, true, false, false]);
    }

    #[test]
    fn base_pop_underflows() {
        let mut c = ContextStack::new(2);
        assert_eq!(c.pop(), Err(CmError::ContextUnderflow));
        c.push_and(&[false, false]).unwrap();
        assert!(!c.any_active());
        c.pop().unwrap();
        assert_eq!(c.pop(), Err(CmError::ContextUnderflow));
    }

    #[test]
    fn size_mismatch_rejected() {
        let mut c = ContextStack::new(2);
        assert_eq!(c.push_and(&[true]), Err(CmError::VpSetMismatch));
        assert_eq!(c.push_others(&[true; 3]), Err(CmError::VpSetMismatch));
    }
}
