//! Zero-dependency data-parallel execution layer.
//!
//! A persistent pool of worker threads executes *chunked* jobs: the caller
//! splits its output into disjoint chunks, every chunk is processed by
//! exactly one worker running exactly the code the serial path would run,
//! and the submitting thread blocks (and participates) until the job is
//! done. Because chunk boundaries never depend on the thread count and no
//! two workers touch the same output element, results are **bit-for-bit
//! identical** to the serial path at any thread count.
//!
//! The pool is process-global and lazy. The initial thread count comes
//! from `EOS_NUM_THREADS` (default: [`std::thread::available_parallelism`]);
//! [`set_num_threads`] overrides it at runtime — `set_num_threads(1)` is
//! the serial switch used by tests and benchmarks — and
//! [`with_thread_budget`] overrides it *per thread* for the duration of a
//! closure, which is how an outer job scheduler hands each of its workers
//! a slice of the global budget without the workers fighting over the
//! single pool slot. Nested parallelism degrades gracefully: a `par_*`
//! call made while a job is already running (for example a `matmul`
//! inside a batch-parallel convolution) executes inline on the calling
//! worker.
//!
//! ```
//! use eos_tensor::par;
//! let mut out = vec![0u64; 1000];
//! par::par_chunks_mut(&mut out, 64, |chunk_idx, chunk| {
//!     for (off, v) in chunk.iter_mut().enumerate() {
//!         let i = (chunk_idx * 64 + off) as u64;
//!         *v = i * i;
//!     }
//! });
//! assert_eq!(out[30], 900);
//! ```

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};

thread_local! {
    /// Per-thread override of the global thread budget; see
    /// [`with_thread_budget`]. `None` means "use the global budget".
    static SCOPED_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// A lifetime-erased chunked job. The raw pointers reference the stack of
/// the thread inside [`Pool::run`]; the run protocol guarantees they are
/// not dereferenced after `run` returns: a worker may only copy the job
/// out of the slot *while holding the slot mutex and incrementing
/// `Slot::active`*, and `run` unpublishes the job and then blocks until
/// `active` drains back to zero.
#[derive(Clone, Copy)]
struct Job {
    /// The chunk body, `fn(chunk_index)`.
    func: *const (dyn Fn(usize) + Sync),
    /// Next chunk index to claim (work-stealing counter).
    next: *const AtomicUsize,
    /// Set when any chunk body panicked.
    panicked: *const AtomicBool,
    /// Total chunk count.
    n_chunks: usize,
    /// Pool workers allowed to join (thread budget minus the submitter).
    participants: usize,
}

// SAFETY: the pointers are only dereferenced by workers that attached to
// the job under the slot mutex; `Pool::run` keeps the pointees alive until
// every attached worker has detached (`Slot::active == 0`).
unsafe impl Send for Job {}

struct Slot {
    /// Bumped once per job; workers detect new work by comparing against
    /// the last generation they served.
    generation: u64,
    job: Option<Job>,
    /// Workers currently attached to (i.e. holding pointers of) the
    /// published job.
    active: usize,
    /// Worker threads spawned so far.
    spawned: usize,
}

struct Shared {
    slot: Mutex<Slot>,
    /// Workers wait here for a new generation.
    work: Condvar,
    /// The submitter waits here for `workers_left == 0`.
    done: Condvar,
}

struct Pool {
    shared: Arc<Shared>,
    /// Current thread budget (including the submitting thread).
    threads: AtomicUsize,
    /// Claimed while a job is in flight; `par_*` calls that lose the race
    /// (nested or concurrent) run inline instead of dispatching.
    busy: AtomicBool,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn worker_loop(shared: Arc<Shared>, idx: usize) {
    // Per-worker busy-time counter, resolved once per thread. Interning is
    // unconditional (it is one lock + map insert at spawn time); recording
    // only happens while tracing is enabled.
    let busy_self = eos_trace::counter(&format!("pool.worker{idx}.busy_ns"));
    let busy_all = eos_trace::counter("pool.worker_busy_ns");
    let mut last_gen = 0u64;
    loop {
        let job = {
            let mut slot = lock(&shared.slot);
            while slot.generation == last_gen {
                slot = shared
                    .work
                    .wait(slot)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            last_gen = slot.generation;
            match slot.job {
                // Attach under the mutex, and only while the job is still
                // published and under its thread budget. A worker that
                // wakes too late (the submitter already unpublished) or
                // loses the budget race never touches the job's pointers.
                Some(job) if slot.active < job.participants => {
                    slot.active += 1;
                    job
                }
                _ => continue,
            }
        };
        let t0 = eos_trace::enabled().then(std::time::Instant::now);
        // SAFETY: we attached above, so `Pool::run` cannot return (and the
        // pointees cannot die) until we detach below.
        unsafe { execute_chunks(&job) };
        if let Some(t0) = t0 {
            let ns = t0.elapsed().as_nanos() as u64;
            busy_self.add(ns);
            busy_all.add(ns);
        }
        let mut slot = lock(&shared.slot);
        slot.active -= 1;
        if slot.active == 0 {
            shared.done.notify_all();
        }
    }
}

/// Claims and runs chunks until the counter is exhausted.
///
/// # Safety
/// The job's pointers must still be alive (see [`Job`]).
unsafe fn execute_chunks(job: &Job) {
    let func = &*job.func;
    let next = &*job.next;
    let panicked = &*job.panicked;
    loop {
        let i = next.fetch_add(1, Ordering::SeqCst);
        if i >= job.n_chunks {
            break;
        }
        if catch_unwind(AssertUnwindSafe(|| func(i))).is_err() {
            panicked.store(true, Ordering::SeqCst);
        }
    }
}

fn env_threads() -> usize {
    let fallback = || {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    };
    match std::env::var("EOS_NUM_THREADS") {
        Ok(v) => v
            .trim()
            .parse::<usize>()
            .ok()
            .filter(|&n| n > 0)
            .unwrap_or_else(fallback),
        Err(_) => fallback(),
    }
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        shared: Arc::new(Shared {
            slot: Mutex::new(Slot {
                generation: 0,
                job: None,
                active: 0,
                spawned: 0,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        }),
        threads: AtomicUsize::new(env_threads()),
        busy: AtomicBool::new(false),
    })
}

impl Pool {
    /// Runs `f(0..n_chunks)` across the thread budget. Blocks until every
    /// chunk is done and no worker still references `f`.
    fn run(&self, n_chunks: usize, f: &(dyn Fn(usize) + Sync)) {
        // Effective budget for the *submitting* thread: its scoped
        // override when inside `with_thread_budget`, the global count
        // otherwise. A scoped budget of 1 takes the inline path before
        // touching the busy flag, so concurrent jobs never contend.
        let threads = num_threads();
        if threads <= 1
            || n_chunks <= 1
            || self
                .busy
                .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                .is_err()
        {
            // Serial switch, trivial job, or the pool is already running a
            // job (nested/concurrent submission): execute inline.
            eos_trace::count!("pool.jobs.inline", 1);
            for i in 0..n_chunks {
                f(i);
            }
            return;
        }
        eos_trace::count!("pool.jobs.dispatched", 1);
        eos_trace::hist!("pool.job.chunks", n_chunks as u64);
        eos_trace::hist!("pool.job.participants", (threads - 1) as u64);

        let next = AtomicUsize::new(0);
        let panicked = AtomicBool::new(false);
        // SAFETY: we erase the closure's lifetime to park it in the shared
        // slot; `run` does not return until the job is unpublished and no
        // worker is attached, so no worker can observe a dangling pointer.
        let func: *const (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
        };
        let job = Job {
            func,
            next: &next,
            panicked: &panicked,
            n_chunks,
            participants: threads - 1,
        };
        {
            let mut slot = lock(&self.shared.slot);
            while slot.spawned < threads - 1 {
                let shared = Arc::clone(&self.shared);
                let idx = slot.spawned;
                std::thread::Builder::new()
                    .name(format!("eos-par-{idx}"))
                    .spawn(move || worker_loop(shared, idx))
                    .expect("failed to spawn eos-par worker");
                slot.spawned += 1;
            }
            slot.generation += 1;
            slot.job = Some(job);
            self.shared.work.notify_all();
        }
        let t0 = eos_trace::enabled().then(std::time::Instant::now);
        // The submitter drains the chunk counter itself, so every chunk
        // runs even if no worker wakes in time to help.
        unsafe { execute_chunks(&job) };
        if let Some(t0) = t0 {
            eos_trace::count!("pool.submitter_busy_ns", t0.elapsed().as_nanos() as u64);
        }
        // Unpublish first (no new attachments), then wait for attached
        // workers to finish their claimed chunks and detach.
        let mut slot = lock(&self.shared.slot);
        slot.job = None;
        while slot.active > 0 {
            slot = self
                .shared
                .done
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(slot);
        self.busy.store(false, Ordering::SeqCst);
        if panicked.load(Ordering::SeqCst) {
            panic!("a parallel chunk panicked (see worker output above)");
        }
    }
}

/// The current thread budget (including the calling thread): the scoped
/// per-thread override when inside [`with_thread_budget`], the global
/// budget otherwise.
pub fn num_threads() -> usize {
    SCOPED_THREADS
        .with(Cell::get)
        .unwrap_or_else(|| pool().threads.load(Ordering::SeqCst))
}

/// Overrides the *global* thread budget at runtime. `1` switches every
/// `par_*` helper to the serial path; values above the machine's core
/// count are honoured (extra workers time-share), which lets determinism
/// tests exercise thread counts the hardware does not have. A scoped
/// [`with_thread_budget`] on the calling thread takes precedence.
pub fn set_num_threads(n: usize) {
    pool().threads.store(n.max(1), Ordering::SeqCst);
}

/// Runs `f` with this thread's budget pinned to `n` (clamped to ≥ 1),
/// restoring the previous budget — scoped or global — on the way out,
/// including on panic. Nestable.
///
/// This is the mechanism behind `--jobs J`: an outer scheduler gives each
/// job thread `threads / J`, so `par_*` calls inside a job see a small
/// budget (usually 1, the inline serial path) instead of all jobs
/// stampeding the single global pool slot and falling back to inline
/// anyway *after* paying the dispatch attempt. Because chunk boundaries
/// never depend on the thread count, the scoped budget changes only
/// scheduling, never results.
pub fn with_thread_budget<R>(n: usize, f: impl FnOnce() -> R) -> R {
    /// Restores the previous scoped value on drop (panic-safe).
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCOPED_THREADS.with(|c| c.set(self.0));
        }
    }
    let prev = SCOPED_THREADS.with(|c| c.replace(Some(n.max(1))));
    let _restore = Restore(prev);
    f()
}

/// Sendable raw pointer for carving disjoint `&mut` chunks inside `run`.
#[derive(Clone, Copy)]
struct SendPtr<T>(*mut T);
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor (rather than field access) so closures capture the whole
    /// `Sync` wrapper instead of the raw pointer field.
    fn ptr(&self) -> *mut T {
        self.0
    }
}

/// Splits `data` into chunks of `chunk_len` elements (the last may be
/// short) and runs `f(chunk_index, chunk)` for each, in parallel. Chunk
/// boundaries depend only on `data.len()` and `chunk_len`, never on the
/// thread count, so any computation that writes each chunk independently
/// produces identical bytes at every thread count.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let len = data.len();
    if len == 0 {
        return;
    }
    let chunk_len = chunk_len.max(1);
    let n_chunks = len.div_ceil(chunk_len);
    let base = SendPtr(data.as_mut_ptr());
    pool().run(n_chunks, &|i| {
        let start = i * chunk_len;
        let end = (start + chunk_len).min(len);
        // SAFETY: chunk ranges are disjoint per `i` and within `data`.
        let chunk = unsafe { std::slice::from_raw_parts_mut(base.ptr().add(start), end - start) };
        f(i, chunk);
    });
}

/// Like [`par_chunks_mut`] over two buffers that advance in lockstep:
/// chunk `i` of `a` (`a_chunk` elements) pairs with chunk `i` of `b`
/// (`b_chunk` elements). Both buffers must produce the same chunk count.
pub fn par_chunks_mut2<A, B, F>(a: &mut [A], a_chunk: usize, b: &mut [B], b_chunk: usize, f: F)
where
    A: Send,
    B: Send,
    F: Fn(usize, &mut [A], &mut [B]) + Sync,
{
    let (a_len, b_len) = (a.len(), b.len());
    let a_chunk = a_chunk.max(1);
    let b_chunk = b_chunk.max(1);
    let n_chunks = a_len.div_ceil(a_chunk);
    assert_eq!(
        n_chunks,
        b_len.div_ceil(b_chunk),
        "par_chunks_mut2 buffers disagree on chunk count"
    );
    if n_chunks == 0 {
        return;
    }
    let pa = SendPtr(a.as_mut_ptr());
    let pb = SendPtr(b.as_mut_ptr());
    pool().run(n_chunks, &|i| {
        let (a0, a1) = (i * a_chunk, (i * a_chunk + a_chunk).min(a_len));
        let (b0, b1) = (i * b_chunk, (i * b_chunk + b_chunk).min(b_len));
        // SAFETY: per-buffer chunk ranges are disjoint per `i` and in bounds.
        let ca = unsafe { std::slice::from_raw_parts_mut(pa.ptr().add(a0), a1 - a0) };
        let cb = unsafe { std::slice::from_raw_parts_mut(pb.ptr().add(b0), b1 - b0) };
        f(i, ca, cb);
    });
}

/// Computes `f(i)` for `i in 0..n` in parallel and returns the results in
/// order. Each element is computed independently, so the output is
/// identical at every thread count.
pub fn par_map_range<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let mut out: Vec<Option<U>> = (0..n).map(|_| None).collect();
    // Small fixed chunks keep the work balanced without letting the
    // dispatch overhead dominate; boundaries are thread-count independent.
    let chunk = (n / 64).clamp(1, 32);
    par_chunks_mut(&mut out, chunk, |ci, slots| {
        for (off, slot) in slots.iter_mut().enumerate() {
            *slot = Some(f(ci * chunk + off));
        }
    });
    out.into_iter()
        .map(|v| v.expect("par_map_range chunk skipped"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests in this module mutate the global thread budget; run them (and
    /// any other test that calls `set_num_threads`) under this lock so the
    /// harness's test threads cannot interleave budget changes.
    pub static THREAD_TEST_LOCK: Mutex<()> = Mutex::new(());

    fn squares(n: usize) -> Vec<u64> {
        let mut out = vec![0u64; n];
        par_chunks_mut(&mut out, 7, |ci, chunk| {
            for (off, v) in chunk.iter_mut().enumerate() {
                let i = (ci * 7 + off) as u64;
                *v = i * i;
            }
        });
        out
    }

    #[test]
    fn chunked_fill_is_identical_at_every_thread_count() {
        let _guard = lock(&THREAD_TEST_LOCK);
        let expected: Vec<u64> = (0..1000).map(|i| i * i).collect();
        for threads in [1, 2, 4, 8] {
            set_num_threads(threads);
            assert_eq!(squares(1000), expected, "threads = {threads}");
        }
        set_num_threads(env_threads());
    }

    #[test]
    fn par_map_range_preserves_order() {
        let out = par_map_range(257, |i| 3 * i + 1);
        assert_eq!(out.len(), 257);
        assert!(out.iter().enumerate().all(|(i, &v)| v == 3 * i + 1));
    }

    #[test]
    fn lockstep_buffers_stay_aligned() {
        let mut a = vec![0usize; 90]; // 9 chunks of 10
        let mut b = vec![0usize; 18]; // 9 chunks of 2
        par_chunks_mut2(&mut a, 10, &mut b, 2, |i, ca, cb| {
            for v in ca.iter_mut() {
                *v = i;
            }
            for v in cb.iter_mut() {
                *v = i * 100;
            }
        });
        assert_eq!(a[55], 5);
        assert_eq!(b[11], 500);
    }

    #[test]
    fn nested_calls_fall_back_inline() {
        let outer = par_map_range(8, |i| {
            // This inner call races the outer job for the pool and must
            // run inline without deadlocking.
            let inner: usize = par_map_range(50, |j| i + j).into_iter().sum();
            inner
        });
        assert_eq!(outer.len(), 8);
        assert_eq!(outer[0], (0..50).sum::<usize>());
    }

    #[test]
    fn empty_input_is_a_no_op() {
        let mut empty: Vec<f32> = Vec::new();
        par_chunks_mut(&mut empty, 4, |_, _| panic!("must not run"));
        assert!(par_map_range(0, |i| i).is_empty());
    }

    #[test]
    fn worker_panics_propagate_to_the_submitter() {
        let _guard = lock(&THREAD_TEST_LOCK);
        set_num_threads(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            par_map_range(64, |i| {
                assert!(i != 13, "intentional test panic");
                i
            })
        }));
        assert!(result.is_err(), "panic was swallowed");
        set_num_threads(env_threads());
        // The pool must still be usable after a panicked job.
        assert_eq!(par_map_range(10, |i| i).len(), 10);
    }

    #[test]
    fn scoped_budget_overrides_and_restores() {
        let _guard = lock(&THREAD_TEST_LOCK);
        set_num_threads(4);
        assert_eq!(num_threads(), 4);
        let expected: Vec<u64> = (0..500).map(|i| i * i).collect();
        with_thread_budget(1, || {
            assert_eq!(num_threads(), 1);
            // Nested scopes stack and clamp.
            with_thread_budget(0, || assert_eq!(num_threads(), 1));
            with_thread_budget(3, || assert_eq!(num_threads(), 3));
            assert_eq!(num_threads(), 1);
            // Results under a scoped serial budget match the parallel path.
            assert_eq!(squares(500), expected);
        });
        assert_eq!(num_threads(), 4, "scope leaked past its closure");
        assert_eq!(squares(500), expected);
        set_num_threads(env_threads());
    }

    #[test]
    fn scoped_budget_restores_on_panic() {
        let _guard = lock(&THREAD_TEST_LOCK);
        set_num_threads(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            with_thread_budget(1, || panic!("intentional test panic"))
        }));
        assert!(result.is_err());
        assert_eq!(num_threads(), 4, "scope leaked past a panic");
        set_num_threads(env_threads());
    }

    #[test]
    fn scoped_budget_is_per_thread() {
        let _guard = lock(&THREAD_TEST_LOCK);
        set_num_threads(4);
        with_thread_budget(1, || {
            // A sibling thread must still see the global budget.
            let seen = std::thread::scope(|s| s.spawn(num_threads).join().unwrap());
            assert_eq!(seen, 4);
            assert_eq!(num_threads(), 1);
        });
        set_num_threads(env_threads());
    }

    #[test]
    fn thread_budget_is_clamped_to_one() {
        let _guard = lock(&THREAD_TEST_LOCK);
        set_num_threads(0);
        assert_eq!(num_threads(), 1);
        set_num_threads(env_threads());
    }
}
