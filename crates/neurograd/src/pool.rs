//! A lightweight chunked thread pool for intra-op parallelism.
//!
//! Every compute kernel in [`crate::kernels`] partitions its output into
//! contiguous chunks and runs them through a [`ThreadPool`]. The pool is
//! deliberately small and predictable:
//!
//! * **Persistent workers** — `threads - 1` long-lived worker threads plus
//!   the calling thread; no per-call spawn cost. A caller runs any of its
//!   own chunks still queued once its first chunk is done, so it never
//!   waits on a worker busy with another caller's chunks.
//! * **Deterministic chunking** — chunk boundaries depend only on the work
//!   size and the requested chunk count, never on scheduling, and every
//!   chunk writes a disjoint slice of the output. Results are therefore
//!   bitwise identical at any thread count (see the `parallel_kernels`
//!   property tests).
//! * **Nested calls run inline** — a task that itself calls
//!   `ThreadPool::run` executes serially on its worker. This keeps the
//!   data-parallel trainer (one shard per worker, serial kernels inside)
//!   and the serving engine (one request per worker) free of deadlocks and
//!   oversubscription by construction.
//!
//! A process-wide pool is available through [`global`]; [`configure_threads`]
//! rebuilds it (the `--threads` CLI knob, `TrainConfig::threads` and
//! `EngineConfig::compute_threads` all end up here). Replacing the global
//! pool is safe while it is in use: existing users keep their `Arc` to the
//! old pool, which drains and joins when the last reference drops.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock, RwLock};
use std::thread::JoinHandle;

thread_local! {
    /// Whether the current thread is executing a pool task (worker threads
    /// while running a chunk, and callers while running their own chunks).
    static IN_TASK: Cell<bool> = const { Cell::new(false) };
}

/// A unit of work: chunk `index` of the type-erased task behind `func`.
///
/// The pointee lives on the stack of the thread inside [`ThreadPool::run`],
/// which does not return until the completion latch has counted every
/// chunk down — so the erased lifetime is sound.
struct Task {
    func: *const (dyn Fn(usize) + Sync + 'static),
    index: usize,
    latch: Arc<Latch>,
}

// SAFETY: the pointee is `Sync` (shared by reference across chunks) and is
// kept alive by `ThreadPool::run` until the latch opens.
unsafe impl Send for Task {}

/// Countdown latch with a poison flag for panicked chunks.
struct Latch {
    state: Mutex<(usize, bool)>,
    cv: Condvar,
}

impl Latch {
    fn new(count: usize) -> Self {
        Self { state: Mutex::new((count, false)), cv: Condvar::new() }
    }

    fn count_down(&self, ok: bool) {
        let mut s = self.state.lock().expect("latch lock");
        s.0 -= 1;
        s.1 |= !ok;
        if s.0 == 0 {
            self.cv.notify_all();
        }
    }

    /// Blocks until every chunk finished; returns `true` if any panicked.
    fn wait(&self) -> bool {
        let mut s = self.state.lock().expect("latch lock");
        while s.0 > 0 {
            s = self.cv.wait(s).expect("latch lock");
        }
        s.1
    }
}

struct Inner {
    queue: Mutex<(VecDeque<Task>, bool)>,
    not_empty: Condvar,
}

impl Inner {
    /// Removes the first queued chunk counted by `latch` and returns its
    /// index, or `None` once workers hold every chunk of that call.
    fn take_queued(&self, latch: &Arc<Latch>) -> Option<usize> {
        let mut q = self.queue.lock().expect("pool queue lock");
        let at = q.0.iter().position(|t| Arc::ptr_eq(&t.latch, latch))?;
        q.0.remove(at).map(|t| t.index)
    }
}

/// A fixed-size pool of compute threads (see the module docs).
pub struct ThreadPool {
    inner: Arc<Inner>,
    threads: usize,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ThreadPool({} threads)", self.threads)
    }
}

impl ThreadPool {
    /// Creates a pool of `threads` compute lanes (the calling thread plus
    /// `threads - 1` workers). `threads` is clamped to at least 1.
    pub(crate) fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let inner = Arc::new(Inner {
            queue: Mutex::new((VecDeque::new(), false)),
            not_empty: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("ng-pool-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn pool worker")
            })
            .collect();
        Self { inner, threads, workers }
    }

    /// Number of compute lanes (including the calling thread).
    pub(crate) fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(0), f(1), …, f(chunks - 1)` exactly once each, possibly in
    /// parallel, and returns when all chunks have finished.
    ///
    /// Chunk 0 always runs on the calling thread, which then also runs
    /// every chunk of this call that no worker has taken yet, so it never
    /// waits behind other callers' queued chunks; it blocks only on chunks
    /// a worker already holds. Calls made from inside a pool task run
    /// every chunk inline (nested parallelism is serialised).
    ///
    /// # Panics
    ///
    /// Propagates (as a fresh panic) if any chunk panicked.
    pub(crate) fn run(&self, chunks: usize, f: &(dyn Fn(usize) + Sync)) {
        if chunks == 0 {
            return;
        }
        if chunks == 1 || self.workers.is_empty() || IN_TASK.with(Cell::get) {
            for i in 0..chunks {
                f(i);
            }
            return;
        }
        let latch = Arc::new(Latch::new(chunks - 1));
        // SAFETY: erase the borrow lifetime; `run` blocks on the latch
        // below until every queued chunk has executed, so the reference
        // outlives all uses.
        let func: *const (dyn Fn(usize) + Sync + 'static) =
            unsafe { std::mem::transmute(f as *const (dyn Fn(usize) + Sync)) };
        {
            let mut q = self.inner.queue.lock().expect("pool queue lock");
            for index in 1..chunks {
                q.0.push_back(Task { func, index, latch: Arc::clone(&latch) });
            }
        }
        self.inner.not_empty.notify_all();
        IN_TASK.with(|t| t.set(true));
        let own = catch_unwind(AssertUnwindSafe(|| f(0)));
        // Run this call's chunks no worker has taken yet rather than wait
        // behind other callers' queued chunks for a worker to free up.
        while let Some(index) = self.inner.take_queued(&latch) {
            latch.count_down(catch_unwind(AssertUnwindSafe(|| f(index))).is_ok());
        }
        IN_TASK.with(|t| t.set(false));
        let poisoned = latch.wait();
        assert!(own.is_ok() && !poisoned, "parallel task panicked");
    }

    /// Runs `f(i, &mut items[i])` for every item, possibly in parallel.
    ///
    /// Each index receives exclusive access to its own element, so the
    /// closure may mutate freely; completion order is unobservable.
    pub fn run_mut<T: Send>(&self, items: &mut [T], f: impl Fn(usize, &mut T) + Sync) {
        let base = items.as_mut_ptr() as usize;
        let n = items.len();
        self.run(n, &|i| {
            // SAFETY: each chunk index touches a distinct element of the
            // slice, which outlives the call (run blocks until done).
            let item = unsafe { &mut *(base as *mut T).add(i) };
            f(i, item);
        });
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut q = self.inner.queue.lock().expect("pool queue lock");
            q.1 = true;
        }
        self.inner.not_empty.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let task = {
            let mut q = inner.queue.lock().expect("pool queue lock");
            loop {
                if let Some(task) = q.0.pop_front() {
                    break task;
                }
                if q.1 {
                    return;
                }
                q = inner.not_empty.wait(q).expect("pool queue lock");
            }
        };
        IN_TASK.with(|t| t.set(true));
        // SAFETY: see `Task` — the pointee is alive until the latch opens.
        let ok = catch_unwind(AssertUnwindSafe(|| unsafe { (*task.func)(task.index) })).is_ok();
        IN_TASK.with(|t| t.set(false));
        task.latch.count_down(ok);
    }
}

/// Splits `0..len` into at most `max_chunks` contiguous ranges of at least
/// `min_per_chunk` elements (the last chunk absorbs the remainder).
///
/// Boundaries depend only on the arguments — never on scheduling — which is
/// what makes chunked kernels bitwise deterministic.
pub fn chunk_ranges(
    len: usize,
    min_per_chunk: usize,
    max_chunks: usize,
) -> Vec<std::ops::Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let by_min = len / min_per_chunk.max(1);
    let chunks = max_chunks.max(1).min(by_min.max(1));
    let base = len / chunks;
    let rem = len % chunks;
    (0..chunks)
        .map(|i| {
            let lo = i * base + i.min(rem);
            let hi = lo + base + usize::from(i < rem);
            lo..hi
        })
        .collect()
}

static GLOBAL: OnceLock<RwLock<Arc<ThreadPool>>> = OnceLock::new();

fn global_slot() -> &'static RwLock<Arc<ThreadPool>> {
    GLOBAL.get_or_init(|| {
        let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        RwLock::new(Arc::new(ThreadPool::new(threads)))
    })
}

/// The process-wide compute pool used by [`crate::kernels`].
pub fn global() -> Arc<ThreadPool> {
    Arc::clone(&global_slot().read().expect("pool registry lock"))
}

/// Rebuilds the process-wide pool with `threads` compute lanes (clamped to
/// at least 1). A no-op when the pool already has that width, so repeated
/// configuration (e.g. every `ServeEngine::new`) spawns no threads.
/// In-flight users of a replaced pool finish on it; its workers exit once
/// the last reference drops.
pub fn configure_threads(threads: usize) {
    let threads = threads.max(1);
    if current_threads() == threads {
        return;
    }
    let new_pool = Arc::new(ThreadPool::new(threads));
    *global_slot().write().expect("pool registry lock") = new_pool;
}

/// Number of compute lanes of the current process-wide pool.
pub fn current_threads() -> usize {
    global().threads()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Barrier};
    use std::time::Duration;

    #[test]
    fn runs_every_chunk_exactly_once() {
        let pool = ThreadPool::new(4);
        for chunks in [1usize, 2, 3, 7, 32] {
            let hits: Vec<AtomicUsize> = (0..chunks).map(|_| AtomicUsize::new(0)).collect();
            pool.run(chunks, &|i| {
                hits[i].fetch_add(1, Ordering::SeqCst);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
        }
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        let sum = AtomicUsize::new(0);
        pool.run(5, &|i| {
            sum.fetch_add(i, Ordering::SeqCst);
        });
        assert_eq!(sum.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn nested_run_executes_inline() {
        let pool = ThreadPool::new(3);
        let total = AtomicUsize::new(0);
        pool.run(3, &|_| {
            // nested call from inside a task: must complete serially
            pool.run(4, &|_| {
                total.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(total.load(Ordering::SeqCst), 12);
    }

    #[test]
    fn run_mut_gives_exclusive_access() {
        let pool = ThreadPool::new(4);
        let mut items = vec![0usize; 16];
        pool.run_mut(&mut items, |i, slot| *slot = i * i);
        for (i, v) in items.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    #[should_panic(expected = "parallel task panicked")]
    fn panicking_chunk_propagates() {
        let pool = ThreadPool::new(2);
        pool.run(4, &|i| assert!(i != 2, "boom"));
    }

    #[test]
    fn pool_survives_a_panicked_batch() {
        let pool = ThreadPool::new(2);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(4, &|i| assert!(i == 0, "boom"));
        }));
        assert!(r.is_err());
        // workers are still alive and serving
        let sum = AtomicUsize::new(0);
        pool.run(4, &|i| {
            sum.fetch_add(i + 1, Ordering::SeqCst);
        });
        assert_eq!(sum.load(Ordering::SeqCst), 10);
    }

    /// Occupies the single worker of `pool` with chunk 1 of a call made on
    /// another thread. Returns once the worker holds that chunk, with the
    /// calling thread and the barrier whose third `wait` releases it.
    fn hold_the_worker(pool: &Arc<ThreadPool>) -> (JoinHandle<()>, Arc<Barrier>) {
        let release = Arc::new(Barrier::new(3));
        let (held_tx, held_rx) = mpsc::channel();
        let (holder, gate) = (Arc::clone(pool), Arc::clone(&release));
        let caller = std::thread::spawn(move || {
            holder.run(2, &|i| {
                // Chunk 0 keeps the caller busy too, so chunk 1 can only
                // run on the worker.
                if i == 1 {
                    held_tx.send(()).unwrap();
                }
                gate.wait();
            });
        });
        held_rx.recv().unwrap();
        (caller, release)
    }

    #[test]
    fn caller_runs_its_own_queued_chunks_while_the_worker_is_busy() {
        let pool = Arc::new(ThreadPool::new(2));
        let (caller, release) = hold_the_worker(&pool);
        let (done_tx, done_rx) = mpsc::channel();
        let other = Arc::clone(&pool);
        let second = std::thread::spawn(move || {
            let hits = AtomicUsize::new(0);
            other.run(2, &|_| {
                hits.fetch_add(1, Ordering::SeqCst);
            });
            done_tx.send(hits.load(Ordering::SeqCst)).unwrap();
        });
        let hits = done_rx.recv_timeout(Duration::from_secs(20));
        release.wait();
        caller.join().unwrap();
        second.join().unwrap();
        assert_eq!(hits, Ok(2), "a second caller must not wait on the held worker");
    }

    #[test]
    fn panic_in_a_chunk_the_caller_ran_propagates() {
        let pool = Arc::new(ThreadPool::new(2));
        let (caller, release) = hold_the_worker(&pool);
        let (done_tx, done_rx) = mpsc::channel();
        let other = Arc::clone(&pool);
        let second = std::thread::spawn(move || {
            let me = std::thread::current().id();
            let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
                other.run(2, &|i| {
                    assert_eq!(std::thread::current().id(), me, "chunk {i} left the caller");
                    assert!(i != 1, "boom");
                });
            }));
            let msg = r.err().and_then(|p| p.downcast_ref::<&str>().copied());
            done_tx.send(msg).unwrap();
        });
        let msg = done_rx.recv_timeout(Duration::from_secs(20));
        release.wait();
        caller.join().unwrap();
        second.join().unwrap();
        assert_eq!(msg, Ok(Some("parallel task panicked")));
        // workers are still alive and serving
        let sum = AtomicUsize::new(0);
        pool.run(4, &|i| {
            sum.fetch_add(i + 1, Ordering::SeqCst);
        });
        assert_eq!(sum.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        for len in [0usize, 1, 5, 16, 37, 100] {
            for min in [1usize, 4, 8] {
                for max in [1usize, 2, 4, 7] {
                    let ranges = chunk_ranges(len, min, max);
                    let mut covered = 0;
                    let mut next = 0;
                    for r in &ranges {
                        assert_eq!(r.start, next, "gap at {r:?}");
                        assert!(r.end > r.start);
                        covered += r.end - r.start;
                        next = r.end;
                    }
                    assert_eq!(covered, len);
                    assert!(ranges.len() <= max.max(1));
                    if len >= min * max {
                        // enough work: every lane gets a chunk
                        assert_eq!(ranges.len(), max.max(1));
                    }
                }
            }
        }
    }

    #[test]
    fn chunk_ranges_respect_min_size() {
        let ranges = chunk_ranges(10, 8, 8);
        assert_eq!(ranges.len(), 1, "10 elements at min 8 per chunk: one chunk");
    }

    #[test]
    fn global_pool_reconfigures() {
        configure_threads(2);
        assert_eq!(current_threads(), 2);
        let old = global();
        configure_threads(3);
        assert_eq!(current_threads(), 3);
        // the old pool still works for holders of the Arc
        let sum = AtomicUsize::new(0);
        old.run(2, &|i| {
            sum.fetch_add(i + 1, Ordering::SeqCst);
        });
        assert_eq!(sum.load(Ordering::SeqCst), 3);
    }
}
