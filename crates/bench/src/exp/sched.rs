//! Two-level job scheduler for independent experiment work.
//!
//! The outer level runs whole jobs — backbone trainings, experiment
//! cells — on a small team of worker threads; the inner level is the
//! existing op-parallel pool in [`eos_tensor::par`]. The two share one
//! thread budget: with `--jobs J` over `n` tasks the scheduler spawns
//! `W = min(J, n)` workers and wraps each in
//! [`par::with_thread_budget`]`(threads / W)`, so the workers that
//! actually exist split the whole machine between them (a `--jobs 8`
//! batch of 2 tasks gives each task half the budget, not an eighth).
//! With `W` at or above the budget every slice is 1 and all inner
//! `par_*` calls take the inline serial path — pure job-level
//! parallelism.
//!
//! **Determinism.** [`run_jobs`] executes the *same closures* the serial
//! path would run and returns their results in input order. Every
//! experiment cell seeds its RNG from its own fingerprint and every
//! chunked kernel is thread-count independent, so job outputs are
//! bit-identical at any `jobs` value; only scheduling (and stderr
//! interleaving) changes. `jobs <= 1` short-circuits to a plain in-order
//! loop on the calling thread with the full ambient budget.
//!
//! **Fault isolation.** Every task runs under `catch_unwind` — on the
//! serial path too — and a panic becomes that slot's [`JobPanic`]
//! result instead of aborting the batch: siblings run to completion,
//! completed work is kept, and the caller decides how a dead cell is
//! reported (the tables turn it into
//! [`EngineError::TaskPanic`](crate::exp::EngineError::TaskPanic)).
//!
//! Scheduler activity lands on ungated `exp.job.*` counters (dispatch
//! and completion counts, per-worker busy/idle nanoseconds) so
//! [`Engine::finish`](crate::exp::Engine::finish) can print utilisation.

use eos_tensor::par;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A task that panicked: its input-order index and the panic payload,
/// downcast to text where possible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// Index of the task in the submitted batch.
    pub index: usize,
    /// The panic payload (`&str`/`String` payloads verbatim, anything
    /// else a placeholder).
    pub message: String,
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn run_task<T>(i: usize, task: impl FnOnce() -> T) -> Result<T, JobPanic> {
    match catch_unwind(AssertUnwindSafe(task)) {
        Ok(v) => Ok(v),
        Err(p) => {
            eos_trace::counter("exp.job.panicked").add(1);
            Err(JobPanic {
                index: i,
                message: panic_message(p.as_ref()),
            })
        }
    }
}

/// The thread budget each of `workers` concurrent jobs gets out of a
/// `threads` budget: an equal share, at least one thread.
pub fn job_budget(threads: usize, workers: usize) -> usize {
    (threads / workers.max(1)).max(1)
}

/// Runs every task and returns their results in input order, each slot
/// `Ok(value)` or `Err(JobPanic)` if that task panicked.
///
/// With `jobs > 1`, up to `min(jobs, tasks.len())` worker threads claim
/// tasks from a shared counter; the inner thread budget is split over
/// the workers actually spawned: `max(1, ambient / workers)`. A
/// panicking task never aborts its siblings — remaining tasks still run
/// and every completed result is returned.
pub fn run_jobs<T, F>(jobs: usize, tasks: Vec<F>) -> Vec<Result<T, JobPanic>>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = tasks.len();
    if jobs <= 1 || n <= 1 {
        // Serial path: identical closures, identical order, full budget —
        // and the same per-task panic isolation as the workers.
        return tasks
            .into_iter()
            .enumerate()
            .map(|(i, f)| run_task(i, f))
            .collect();
    }
    let workers = jobs.min(n);
    // The split is against the ambient budget at submission time (the
    // global count, or an enclosing scoped budget if run_jobs is nested)
    // and over the workers that exist — a small batch under a large
    // --jobs must not strand most of the machine.
    let inner_budget = job_budget(par::num_threads(), workers);
    eos_trace::counter("exp.job.dispatched").add(n as u64);
    eos_trace::hist!("exp.job.batch", n as u64);

    let slots: Vec<Mutex<Option<F>>> = tasks.into_iter().map(|f| Mutex::new(Some(f))).collect();
    let results: Vec<Mutex<Option<Result<T, JobPanic>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    std::thread::scope(|s| {
        for w in 0..workers {
            let (slots, results, next) = (&slots, &results, &next);
            std::thread::Builder::new()
                .name(format!("eos-job-{w}"))
                .spawn_scoped(s, move || {
                    let wall = Instant::now();
                    let mut busy = 0u64;
                    par::with_thread_budget(inner_budget, || loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= n {
                            break;
                        }
                        let task = lock(&slots[i]).take().expect("task claimed twice");
                        let t0 = Instant::now();
                        *lock(&results[i]) = Some(run_task(i, task));
                        let ns = t0.elapsed().as_nanos() as u64;
                        busy += ns;
                        eos_trace::counter("exp.job.completed").add(1);
                        eos_trace::hist!("exp.job.duration_ns", ns);
                    });
                    let wall_ns = wall.elapsed().as_nanos() as u64;
                    eos_trace::counter(&format!("exp.job.worker{w}.busy_ns")).add(busy);
                    eos_trace::counter("exp.job.busy_ns").add(busy);
                    eos_trace::counter("exp.job.idle_ns").add(wall_ns.saturating_sub(busy));
                })
                .expect("failed to spawn eos-job worker");
        }
    });

    results
        .into_iter()
        .map(|m| lock(&m).take().expect("job result missing"))
        .collect()
}

/// [`run_jobs`] over a slice: `f(index, &item)` for each item, results in
/// input order. `f` must be `Fn` (shared across workers); closures that
/// need per-task state should build task closures and call [`run_jobs`]
/// directly.
pub fn map_jobs<T, U, F>(jobs: usize, items: &[T], f: F) -> Vec<Result<U, JobPanic>>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync + Send,
{
    let f = &f;
    run_jobs(
        jobs,
        items
            .iter()
            .enumerate()
            .map(|(i, item)| move || f(i, item))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn values<T: std::fmt::Debug>(results: Vec<Result<T, JobPanic>>) -> Vec<T> {
        results.into_iter().map(|r| r.unwrap()).collect()
    }

    #[test]
    fn results_come_back_in_input_order() {
        for jobs in [1, 2, 4, 16] {
            let out = values(map_jobs(jobs, &(0..37).collect::<Vec<_>>(), |i, &x| {
                assert_eq!(i, x);
                x * x
            }));
            assert!(
                out.iter().enumerate().all(|(i, &v)| v == i * i),
                "jobs = {jobs}"
            );
        }
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        // A deterministic per-task computation (its own seeded RNG, like
        // an experiment cell) must not depend on the jobs value.
        let cell = |i: usize| -> Vec<u64> {
            let mut rng = eos_tensor::Rng64::new(i as u64 ^ 0x9E37);
            (0..50).map(|_| rng.next_u64()).collect()
        };
        let serial = values(map_jobs(1, &(0..9).collect::<Vec<_>>(), |_, &i| cell(i)));
        let parallel = values(map_jobs(4, &(0..9).collect::<Vec<_>>(), |_, &i| cell(i)));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn workers_get_a_budget_slice() {
        let ambient = par::num_threads();
        let budgets = values(map_jobs(3, &[(); 6], |_, _| par::num_threads()));
        let expected = (ambient / 3).max(1);
        assert!(budgets.iter().all(|&b| b == expected), "{budgets:?}");
        // And the scope does not leak into the caller.
        assert_eq!(par::num_threads(), ambient);
    }

    #[test]
    fn budget_splits_over_spawned_workers_not_requested_jobs() {
        // --jobs 8 with 2 tasks spawns 2 workers; each must hold half the
        // ambient budget, not an eighth (the rest would sit idle).
        let ambient = par::num_threads();
        if ambient < 2 {
            return; // a 1-thread budget cannot distinguish the two splits
        }
        let budgets = values(map_jobs(8, &[(); 2], |_, _| par::num_threads()));
        let expected = (ambient / 2).max(1);
        assert_eq!(budgets, vec![expected; 2]);
    }

    #[test]
    fn a_panicking_job_surfaces_as_err_and_spares_its_siblings() {
        for jobs in [1, 2] {
            let done = AtomicUsize::new(0);
            let results = map_jobs(jobs, &(0..8).collect::<Vec<_>>(), |_, &i| {
                assert!(i != 3, "intentional test panic");
                done.fetch_add(1, Ordering::SeqCst);
                i
            });
            assert_eq!(done.load(Ordering::SeqCst), 7, "siblings must still run");
            assert_eq!(results.len(), 8);
            for (i, r) in results.iter().enumerate() {
                if i == 3 {
                    let p = r.as_ref().unwrap_err();
                    assert_eq!(p.index, 3);
                    assert!(p.message.contains("intentional test panic"), "{p:?}");
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i, "jobs = {jobs}");
                }
            }
        }
    }

    #[test]
    fn empty_and_single_task_batches() {
        let none = run_jobs(4, Vec::<fn() -> usize>::new());
        assert!(none.is_empty());
        assert_eq!(values(run_jobs(4, vec![|| 41usize + 1])), vec![42]);
    }
}
