//! Offline stand-in for the slice of [rayon](https://crates.io/crates/rayon)
//! this workspace uses: a real scoped work-stealing thread pool.
//!
//! The build environment has no registry access, so this crate implements
//! [`scope`]/[`Scope::spawn`] and [`current_num_threads`] with rayon's
//! signatures on top of its own pool ([`pool`]): a lazily-initialised
//! global set of `std::thread` workers with chunked work queues and
//! stealing. The pool is sized from the `UC_THREADS` environment variable
//! when set, else from [`std::thread::available_parallelism`];
//! `UC_THREADS=1` runs everything inline on the caller without spawning a
//! single thread.
//!
//! The simulator's fan-outs go through [`pool::run_chunks`]: run `f(k)`
//! for `k` in `0..n` on the pool, borrowing `f` from the caller's stack
//! and queueing `Copy` descriptors, so a warm pool dispatches a batch
//! without allocating. Neither `run_chunks` nor `UC_THREADS` is rayon
//! API — this crate is the workspace's pool that happens to keep rayon's
//! names for the scope half, not a drop-in replacement in either
//! direction. Panics inside pool jobs are captured and re-thrown from
//! [`scope`] / [`pool::run_chunks`] on the calling thread.

pub mod pool;

pub use pool::{current_num_threads, scope, Scope};
