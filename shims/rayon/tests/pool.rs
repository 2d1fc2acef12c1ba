//! Stress tests for the scoped work-stealing pool: nesting, panic
//! propagation, degenerate inputs and concurrent submitters.

use std::panic;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::thread;

use rayon::pool::run_chunks;
use rayon::{current_num_threads, scope};

/// Scopes nest: a job may open its own scope, and the outer scope still
/// waits for everything (the help-while-waiting path — a blocked waiter
/// executes queued jobs instead of deadlocking the pool).
#[test]
fn nested_scopes_complete_without_deadlock() {
    let hits = AtomicUsize::new(0);
    scope(|outer| {
        for _ in 0..8 {
            let hits = &hits;
            outer.spawn(move |_| {
                scope(|inner| {
                    for _ in 0..8 {
                        inner.spawn(move |_| {
                            hits.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
                // The inner scope is done before its caller continues.
                assert!(hits.load(Ordering::Relaxed) >= 8);
            });
        }
    });
    assert_eq!(hits.load(Ordering::Relaxed), 64);
}

/// Spawns from inside spawned jobs (same scope, not a nested one) are
/// also waited for.
#[test]
fn recursive_spawns_on_one_scope_are_awaited() {
    let hits = AtomicUsize::new(0);
    scope(|s| {
        let hits = &hits;
        s.spawn(move |s| {
            hits.fetch_add(1, Ordering::Relaxed);
            s.spawn(move |s| {
                hits.fetch_add(1, Ordering::Relaxed);
                s.spawn(move |_| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            });
        });
    });
    assert_eq!(hits.load(Ordering::Relaxed), 3);
}

/// A panicking worker job surfaces as a panic from `scope` on the
/// calling thread — it does not deadlock the scope or poison the pool.
#[test]
fn worker_panic_propagates_to_caller() {
    let caught = panic::catch_unwind(|| {
        scope(|s| {
            s.spawn(|_| panic!("boom"));
        });
    });
    let payload = caught.expect_err("scope must re-throw the job panic");
    let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
    assert_eq!(msg, "boom");
}

/// The pool keeps working after a panic: every later scope and chunk
/// batch still runs to completion.
#[test]
fn pool_survives_a_job_panic() {
    let _ = panic::catch_unwind(|| {
        scope(|s| {
            for _ in 0..4 {
                s.spawn(|_| panic!("boom"));
            }
        });
    });
    let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
    run_chunks(hits.len(), &|k| {
        hits[k].fetch_add(k * 2 + 1, Ordering::Relaxed);
    });
    assert!(hits.iter().enumerate().all(|(k, h)| h.load(Ordering::Relaxed) == k * 2 + 1));
}

/// Only the first panic wins; the others are swallowed after running.
#[test]
fn one_panic_payload_is_reported() {
    let ran = AtomicUsize::new(0);
    let caught = panic::catch_unwind(panic::AssertUnwindSafe(|| {
        scope(|s| {
            for _ in 0..16 {
                let ran = &ran;
                s.spawn(move |_| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    panic!("boom");
                });
            }
        });
    }));
    assert!(caught.is_err());
    // The scope waited for every job even though they all panicked.
    assert_eq!(ran.load(Ordering::Relaxed), 16);
}

/// Empty and single-chunk batches never leave the calling thread: no
/// jobs are queued, the work runs inline.
#[test]
fn tiny_inputs_run_on_the_caller() {
    let me = thread::current().id();

    run_chunks(0, &|_| panic!("an empty batch has no chunk to run"));

    let seen = std::sync::Mutex::new(Vec::new());
    run_chunks(1, &|k| {
        seen.lock().unwrap().push((thread::current().id(), k));
    });
    assert_eq!(seen.into_inner().unwrap(), vec![(me, 0)]);
}

/// Many scopes submitted concurrently from plain `std::thread`s all
/// complete with correct results (the queues and condvar handshake are
/// shared safely between submitters).
#[test]
fn concurrent_scopes_from_many_threads() {
    let handles: Vec<_> = (0..4)
        .map(|t| {
            thread::spawn(move || {
                let mut total = 0u64;
                for round in 0..8 {
                    let base = (t * 1000 + round) as u64;
                    let sum = std::sync::atomic::AtomicU64::new(0);
                    scope(|s| {
                        for j in 0..32u64 {
                            let sum = &sum;
                            s.spawn(move |_| {
                                sum.fetch_add(base + j, Ordering::Relaxed);
                            });
                        }
                    });
                    total += sum.load(Ordering::Relaxed);
                }
                total
            })
        })
        .collect();
    for (t, h) in handles.into_iter().enumerate() {
        let got = h.join().expect("submitter thread panicked");
        let want: u64 = (0..8)
            .flat_map(|round| (0..32u64).map(move |j| (t as u64 * 1000 + round) + j))
            .sum();
        assert_eq!(got, want, "submitter {t}");
    }
}

/// A chunked pass over a large buffer touches every slot exactly once
/// even while other pool traffic is in flight.
#[test]
fn mutation_under_contention_is_exact() {
    const CHUNK: usize = 1000;
    let n = 200_000usize;
    let buf: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    scope(|s| {
        s.spawn(|_| {
            // Background traffic on the same pool.
            let sink = AtomicUsize::new(0);
            run_chunks(50, &|k| {
                sink.fetch_add((0..1000).map(|i| (k * 1000 + i) ^ 1).sum(), Ordering::Relaxed);
            });
        });
        run_chunks(n / CHUNK, &|k| {
            for (i, slot) in buf[k * CHUNK..(k + 1) * CHUNK].iter().enumerate() {
                slot.fetch_add((k * CHUNK + i) as u32, Ordering::Relaxed);
            }
        });
    });
    assert!(buf.iter().enumerate().all(|(i, x)| x.load(Ordering::Relaxed) == i as u32));
}

#[test]
fn pool_size_is_sane() {
    let n = current_num_threads();
    assert!(n >= 1);
}
