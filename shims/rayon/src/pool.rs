//! The scoped work-stealing thread pool.
//!
//! A single global pool is initialised lazily on first use. Its size comes
//! from the `UC_THREADS` environment variable when set (clamped to
//! `1..=MAX_THREADS`; unparsable values fall back to the default), else
//! from [`std::thread::available_parallelism`]. One thread of the pool is
//! always the *submitting* thread itself: a pool of size `N` spawns `N-1`
//! background workers, and with `UC_THREADS=1` no threads are spawned at
//! all — every job runs inline on the caller.
//!
//! Scheduling is chunked work queues with stealing: each background worker
//! owns a deque; submitted jobs are placed round-robin across the worker
//! queues, a worker pops from the front of its own queue, and an idle
//! worker (or a caller waiting on a [`scope`]) steals from the back of its
//! peers' queues. A worker that finds every queue empty keeps polling for
//! [`SPIN_BEFORE_PARK`], then sleeps on a condvar.
//!
//! [`scope`] mirrors `rayon::scope`: jobs spawned inside it may borrow
//! from the enclosing stack frame (`'scope` data), the call returns only
//! once every spawned job (including nested spawns) has finished, and a
//! panic inside any job is captured and re-thrown from `scope` on the
//! calling thread — it never deadlocks the pool or kills a worker.

use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Upper bound on pool size; `UC_THREADS` beyond this is clamped.
pub const MAX_THREADS: usize = 256;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A queued unit of work: either a boxed [`scope`] job or a borrowed
/// chunk descriptor from [`run_chunks`]. Chunk descriptors are plain
/// `Copy` data — enqueueing one never allocates once the queues have
/// grown to their steady-state capacity, which is what lets the
/// simulator's hot parallel paths run allocation-free on a warm pool.
enum Task {
    Boxed(Job),
    Chunk(ChunkJob),
}

impl Task {
    fn execute(self) {
        match self {
            Task::Boxed(job) => job(),
            // Sound: `run_chunks` blocks until `pending` drains, so the
            // batch (and the closure it borrows) outlives this call.
            Task::Chunk(c) => unsafe { (*c.batch).run_one(c.index) },
        }
    }
}

/// One chunk of a [`run_chunks`] batch. The raw pointer refers to a
/// `Batch` on the submitting thread's stack, kept alive until every
/// chunk has executed.
#[derive(Clone, Copy)]
struct ChunkJob {
    batch: *const Batch,
    index: usize,
}

unsafe impl Send for ChunkJob {}

/// Completion state for one [`run_chunks`] call, stack-allocated on the
/// submitting thread.
struct Batch {
    /// The caller's chunk body; valid for the lifetime of the batch.
    run: *const (dyn Fn(usize) + Sync),
    /// Chunks not yet finished (executed or panicked).
    pending: AtomicUsize,
    /// First panic payload from any chunk.
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

impl Batch {
    /// # Safety
    /// `self.run` must still be valid, i.e. the owning `run_chunks` call
    /// must not have returned.
    unsafe fn run_one(&self, index: usize) {
        let f = &*self.run;
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| f(index))) {
            self.panic.lock().unwrap().get_or_insert(payload);
        }
        self.pending.fetch_sub(1, Ordering::SeqCst);
    }
}

struct Shared {
    /// One work queue per background worker.
    queues: Vec<Mutex<VecDeque<Task>>>,
    /// Guards the sleep/wake handshake (never held while running jobs).
    sleep: Mutex<()>,
    wake: Condvar,
    /// Round-robin cursor for job placement across `queues`.
    cursor: AtomicUsize,
}

impl Shared {
    /// Pop a job: worker `me` prefers the front of its own queue, then
    /// steals from the back of each peer queue. A non-worker caller
    /// (helping from [`Pool::wait_scope`]) passes `me = None` and only
    /// steals.
    fn find_job(&self, me: Option<usize>) -> Option<Task> {
        if let Some(me) = me {
            if let Some(job) = self.queues[me].lock().unwrap().pop_front() {
                return Some(job);
            }
        }
        let n = self.queues.len();
        let start = me.map_or(0, |m| m + 1);
        for k in 0..n {
            let q = (start + k) % n;
            if Some(q) == me {
                continue;
            }
            if let Some(job) = self.queues[q].lock().unwrap().pop_back() {
                return Some(job);
            }
        }
        None
    }

    fn any_pending(&self) -> bool {
        self.queues.iter().any(|q| !q.lock().unwrap().is_empty())
    }

    fn inject(&self, job: Job) {
        let slot = self.cursor.fetch_add(1, Ordering::Relaxed) % self.queues.len();
        self.queues[slot].lock().unwrap().push_back(Task::Boxed(job));
        // Take the sleep lock before notifying so a worker that found all
        // queues empty and is about to wait cannot miss this wakeup.
        let _g = self.sleep.lock().unwrap();
        self.wake.notify_all();
    }

    /// Place the `n` chunks of `batch` round-robin across the worker
    /// queues, waking everyone once at the end.
    fn inject_chunks(&self, batch: *const Batch, n: usize) {
        let nq = self.queues.len();
        let base = self.cursor.fetch_add(n, Ordering::Relaxed);
        for index in 0..n {
            let task = Task::Chunk(ChunkJob { batch, index });
            self.queues[(base + index) % nq].lock().unwrap().push_back(task);
        }
        let _g = self.sleep.lock().unwrap();
        self.wake.notify_all();
    }
}

pub struct Pool {
    shared: Arc<Shared>,
    /// Background workers; the submitting thread is the `+1`-th member.
    workers: usize,
}

/// How long an idle worker keeps polling the queues before it parks. A
/// simulator run submits thousands of short batches back to back, a few
/// microseconds of caller-side work apart; a worker that parked the
/// instant its queue ran dry would make every one of them pay a futex
/// wake. Tens of microseconds bridges those gaps and is noise beside the
/// wake-up it saves.
const SPIN_BEFORE_PARK: Duration = Duration::from_micros(50);

/// Polls that busy-wait (`spin_loop`) before the spin phase starts
/// yielding the core instead, so an oversubscribed pool (`UC_THREADS=8` on
/// two cores) hands its time slice to whoever has the work.
const SPINS_BEFORE_YIELD: u32 = 64;

/// Poll the queues for up to [`SPIN_BEFORE_PARK`] on behalf of idle
/// worker `me`.
fn spin_for_job(shared: &Shared, me: usize) -> Option<Task> {
    let idle_since = Instant::now();
    let mut polls = 0u32;
    while idle_since.elapsed() < SPIN_BEFORE_PARK {
        if polls < SPINS_BEFORE_YIELD {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
        polls += 1;
        if let Some(job) = shared.find_job(Some(me)) {
            return Some(job);
        }
    }
    None
}

fn worker_loop(shared: Arc<Shared>, me: usize) {
    loop {
        if let Some(job) = shared.find_job(Some(me)).or_else(|| spin_for_job(&shared, me)) {
            job.execute();
            continue;
        }
        // Park. The handshake is unchanged by the polling above: queues
        // are re-checked under the sleep lock, which submitters take
        // before notifying, so a job injected at any point is either seen
        // here or its notification arrives after the wait began.
        let guard = shared.sleep.lock().unwrap();
        if shared.any_pending() {
            continue; // a job arrived between the scan and the lock
        }
        // The pool is global and never shuts down; workers just sleep.
        drop(shared.wake.wait(guard).unwrap());
    }
}

/// Pool size: `UC_THREADS` if set and parsable (clamped to
/// `1..=MAX_THREADS`), else the host's available parallelism.
fn configured_threads() -> usize {
    let default = || std::thread::available_parallelism().map_or(1, |n| n.get());
    match std::env::var("UC_THREADS") {
        Ok(s) => match s.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n.min(MAX_THREADS),
            _ => default(),
        },
        Err(_) => default(),
    }
}

fn global() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let threads = configured_threads();
        let workers = threads - 1;
        let shared = Arc::new(Shared {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            cursor: AtomicUsize::new(0),
        });
        for me in 0..workers {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("uc-pool-{me}"))
                .spawn(move || worker_loop(shared, me))
                .expect("spawn pool worker");
        }
        Pool { shared, workers }
    })
}

/// Total threads that execute work: background workers plus the caller.
pub fn current_num_threads() -> usize {
    global().workers + 1
}

struct ScopeState {
    /// Spawned-but-unfinished jobs, including nested spawns.
    pending: AtomicUsize,
    /// First panic payload from any job in this scope.
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

/// A scope in which borrowed jobs can be spawned; see [`scope`].
pub struct Scope<'scope> {
    state: Arc<ScopeState>,
    /// Invariant over `'scope`, as in rayon.
    _marker: PhantomData<&'scope mut &'scope ()>,
}

/// `*const Scope` made Send so jobs on worker threads can call back into
/// `Scope::spawn`. Sound because [`scope`] keeps the `Scope` alive until
/// every job has finished.
#[derive(Clone, Copy)]
struct ScopePtr(*const ());
unsafe impl Send for ScopePtr {}

impl ScopePtr {
    /// Accessor (rather than direct field use) so closures capture the
    /// whole `Send` wrapper, not the raw pointer field (edition-2021
    /// disjoint capture would otherwise grab the non-`Send` `*const ()`).
    fn get(self) -> *const () {
        self.0
    }
}

impl<'scope> Scope<'scope> {
    /// Spawn a job that may borrow `'scope` data. The job runs at some
    /// point before the enclosing [`scope`] call returns, on any pool
    /// thread (inline on the caller for a single-threaded pool). Panics
    /// inside the job are captured and re-thrown by [`scope`].
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        self.state.pending.fetch_add(1, Ordering::SeqCst);
        let state = Arc::clone(&self.state);
        let me = ScopePtr(self as *const Scope<'scope> as *const ());
        let job = move || {
            let scope: &Scope<'scope> = unsafe { &*(me.get() as *const Scope<'scope>) };
            let result = panic::catch_unwind(AssertUnwindSafe(|| f(scope)));
            if let Err(payload) = result {
                state.panic.lock().unwrap().get_or_insert(payload);
            }
            state.pending.fetch_sub(1, Ordering::SeqCst);
        };
        let pool = global();
        if pool.workers == 0 {
            // Single-threaded pool: run inline (still recording panics so
            // propagation out of `scope` matches the pooled path).
            job();
        } else {
            // Erase `'scope`: the scope's completion wait guarantees the
            // job is done before any `'scope` borrow expires.
            let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(job);
            let job: Job = unsafe { std::mem::transmute(job) };
            pool.shared.inject(job);
        }
    }
}

impl Pool {
    /// Block until `state.pending` drains, executing queued jobs (from any
    /// scope) while waiting so the pool cannot deadlock on nested scopes.
    fn wait_scope(&self, state: &ScopeState) {
        while state.pending.load(Ordering::SeqCst) != 0 {
            match self.shared.find_job(None) {
                Some(job) => job.execute(),
                None => std::thread::yield_now(),
            }
        }
    }

    /// Block until `batch.pending` drains, executing queued tasks (from
    /// any batch or scope) while waiting.
    fn wait_batch(&self, batch: &Batch) {
        while batch.pending.load(Ordering::SeqCst) != 0 {
            match self.shared.find_job(None) {
                Some(job) => job.execute(),
                None => std::thread::yield_now(),
            }
        }
    }
}

/// Run `run(0)`, `run(1)`, …, `run(n_chunks - 1)` to completion, fanning
/// the calls out across the pool. Unlike [`scope`]/[`Scope::spawn`] —
/// which must box each spawned closure — the queued unit here is a plain
/// `Copy` descriptor borrowing `run` from the caller's stack, so on a
/// warm pool (queues at steady-state capacity) dispatching a batch
/// performs **no heap allocation**. The call returns once every chunk
/// has finished; a panic inside any chunk is re-thrown on the caller.
///
/// With a single-threaded pool (`UC_THREADS=1`) the chunks run inline in
/// index order.
pub fn run_chunks(n_chunks: usize, run: &(dyn Fn(usize) + Sync)) {
    let pool = global();
    if pool.workers == 0 || n_chunks <= 1 {
        for index in 0..n_chunks {
            run(index);
        }
        return;
    }
    // Erase the borrow's lifetime: `wait_batch` below returns only after
    // every chunk has executed, so the pointer never outlives `run`.
    let run = run as *const (dyn Fn(usize) + Sync + '_);
    let run: *const (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(run) };
    let batch = Batch {
        run,
        pending: AtomicUsize::new(n_chunks),
        panic: Mutex::new(None),
    };
    pool.shared.inject_chunks(&batch, n_chunks);
    pool.wait_batch(&batch);
    let payload = batch.panic.lock().unwrap().take();
    if let Some(payload) = payload {
        panic::resume_unwind(payload);
    }
}

/// Create a scope for spawning borrowed jobs, as `rayon::scope`: returns
/// once every spawned job has completed, and re-throws the first panic
/// (from the closure itself or any job) on the calling thread.
pub fn scope<'env, F, R>(f: F) -> R
where
    F: FnOnce(&Scope<'env>) -> R,
{
    let s = Scope { state: Arc::new(ScopeState { pending: AtomicUsize::new(0), panic: Mutex::new(None) }), _marker: PhantomData };
    let result = panic::catch_unwind(AssertUnwindSafe(|| f(&s)));
    global().wait_scope(&s.state);
    if let Some(payload) = s.state.panic.lock().unwrap().take() {
        panic::resume_unwind(payload);
    }
    match result {
        Ok(r) => r,
        Err(payload) => panic::resume_unwind(payload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn scope_runs_all_jobs() {
        let total = AtomicU64::new(0);
        scope(|s| {
            for i in 0..64u64 {
                let total = &total;
                s.spawn(move |_| {
                    total.fetch_add(i, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), (0..64).sum());
    }

    #[test]
    fn scope_returns_closure_value() {
        assert_eq!(scope(|_| 42), 42);
    }

    #[test]
    fn run_chunks_covers_every_index() {
        let hits: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
        run_chunks(hits.len(), &|k| {
            hits[k].fetch_add(k as u64 + 1, Ordering::Relaxed);
        });
        for (k, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), k as u64 + 1);
        }
    }

    #[test]
    fn run_chunks_rethrows_panic() {
        let caught = panic::catch_unwind(|| {
            run_chunks(8, &|k| {
                if k == 5 {
                    panic!("chunk 5 failed");
                }
            });
        });
        assert!(caught.is_err());
    }

    #[test]
    fn num_threads_is_positive() {
        assert!(current_num_threads() >= 1);
        assert!(current_num_threads() <= MAX_THREADS);
    }
}
