//! # uc-core — the UC language
//!
//! A full implementation of *UC: A Language for the Connection Machine*
//! (Bagrodia, Chandy & Kwan, Supercomputing 1990): lexer, parser, semantic
//! analysis, compiler optimizations, the declarative **map section** of §4,
//! and an executor that runs UC programs on the deterministic Connection
//! Machine simulator of the `uc-cm` crate.
//!
//! The language is C restricted (no `goto`, no general pointers) plus:
//!
//! * `index_set I:i = {0..N-1}, J:j = I, K:k = {4,2,9};`
//! * reductions `$+ $* $&& $|| $> $< $^ $,` with `st` predicates and
//!   `others` clauses;
//! * `par` — synchronous parallel assignment over enabled index elements;
//! * `seq` — ordered iteration over an index set;
//! * `solve` — single-assignment equation systems executed in dependency
//!   order; `*solve` — fixed-point iteration;
//! * `oneof` — non-deterministic selection of one enabled arm;
//! * `*` prefixes for iterate-while-enabled semantics;
//! * a `map` section with `permute`, `fold` and `copy` mappings that
//!   re-layout arrays without touching program logic.
//!
//! ## Quickstart
//!
//! ```
//! use uc_core::Program;
//!
//! let src = r#"
//!     #define N 16
//!     index_set I:i = {0..N-1}, J:j = I;
//!     int a[N], rank[N], sorted[N];
//!     main() {
//!         par (I) a[i] = (7 * i + 3) % N;          /* distinct keys */
//!         par (I) {
//!             rank[i] = $+(J st (a[j] < a[i]) 1);  /* ranksort (§3.4) */
//!             sorted[rank[i]] = a[i];
//!         }
//!     }
//! "#;
//! let mut p = Program::compile(src).unwrap();
//! p.run().unwrap();
//! let sorted = p.read_int_array("sorted").unwrap();
//! assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
//! ```

pub mod analysis;
pub mod ast;
pub mod diag;
pub mod exec;
pub mod ir;
pub mod json;
pub mod lexer;
pub mod mapping;
pub mod opt;
pub mod parser;
pub mod pretty;
pub mod sema;
pub mod span;
pub mod stdlib;
pub mod token;

pub use diag::{Diagnostic, Diagnostics, Severity};
pub use exec::{ExecConfig, ExecLimits, IrOpt, Program, RunError, RuntimeError};
pub use span::Span;

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// FxHash's multiply-rotate, for the tables whose keys come from the
/// program text: the parser's spellings and the executor's caches. Their
/// entries are bounded by the source or charged to the memory budget, so
/// SipHash's flooding resistance buys nothing.
#[derive(Default)]
pub(crate) struct FxHasher(u64);

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            let word = u64::from_ne_bytes(word);
            self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

pub(crate) type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
