//! The repo benchmark: six UC workloads measured end to end (`ucbench`)
//! and layer by layer (`ucprobe`). See `../README.md`.
//!
//! This library holds what both binaries share and touches only the
//! stable surface of the system under test — the `uc` executable and
//! `Program::{compile_with_defines, run, reset_clock, cycles, read_*}`,
//! `analysis::check_source` — so that a refactor inside the compiler can
//! break at most the probe binary.

pub mod alloc;
pub mod compare;
pub mod frontend_gen;
pub mod host;
pub mod json;
pub mod measure;
pub mod report;
pub mod spec;
pub mod stats;
pub mod workloads;
