//! The dynamic micro-batcher: a bounded request queue feeding worker
//! threads that coalesce requests into eval-mode batched forwards.
//!
//! # Shape
//!
//! [`Server::start`] spawns `workers` threads, each owning its own
//! [`InferenceModel`] replica (built *on* the worker thread by the
//! caller's factory, so the model never has to cross threads). Clients
//! call [`Server::submit`] — non-blocking, returns a [`Ticket`] — or
//! [`Server::predict`], which submits and waits. Requests enter one
//! bounded FIFO protected by a mutex; a full queue fails the submit with
//! [`ServeError::Overloaded`] instead of buffering without bound.
//!
//! # Coalescing
//!
//! A worker pops the oldest request, then keeps absorbing queued
//! requests until it holds [`ServeConfig::max_batch`] of them or
//! [`ServeConfig::max_wait`] has elapsed since it started collecting —
//! whichever comes first. Under load the window never opens (the queue
//! already holds a full batch); at low rates a lone request pays at most
//! `max_wait` of batching delay. The batch runs as **one** eval-mode
//! forward under [`eos_tensor::par::with_thread_budget`], so an outer
//! `workers × threads_per_worker` split shares the machine exactly like
//! the suite scheduler's `--jobs` split does, and every request of the
//! batch is answered from its own row.
//!
//! # Determinism
//!
//! Row `i` of a batched forward depends only on row `i` of the input
//! (see `InferenceModel::forward`), so *any* coalescing — whatever
//! requests happen to share a batch, at any thread split — returns the
//! same bits for the same request. The differential test suite pins this
//! against the trainer's eval forward.
//!
//! # Shutdown
//!
//! [`Server::shutdown`] (also run on drop) closes the queue — new
//! submits fail with [`ServeError::ShuttingDown`] — then workers drain
//! every already-accepted request (skipping the batching wait, since no
//! more work can arrive) and exit; `shutdown` joins them. Every accepted
//! ticket resolves, exactly once.

use crate::error::ServeError;
use crate::model::InferenceModel;
use eos_tensor::{par, Tensor};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Tuning knobs for the micro-batcher.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Most requests one forward may coalesce.
    pub max_batch: usize,
    /// Longest a worker holds a partial batch open waiting for more
    /// requests. Zero disables coalescing waits entirely (a worker takes
    /// whatever is queued and runs).
    pub max_wait: Duration,
    /// Bound on queued (accepted but not yet running) requests; submits
    /// beyond it fail with [`ServeError::Overloaded`].
    pub queue_cap: usize,
    /// Worker threads, each with its own model replica.
    pub workers: usize,
    /// Inner op-level thread budget each worker's forward runs under
    /// (`with_thread_budget`), so `workers × threads_per_worker` is the
    /// server's total compute footprint. The effective budget is clamped
    /// to the machine's available parallelism: oversubscribing a
    /// compute-bound forward only adds scheduler thrash.
    pub threads_per_worker: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 32,
            max_wait: Duration::from_micros(200),
            queue_cap: 1024,
            workers: 1,
            threads_per_worker: par::num_threads(),
        }
    }
}

/// The op-level thread budget a worker configured with
/// `threads_per_worker` actually runs its forward under: the budget
/// clamped to the host's available parallelism.
pub fn effective_threads(threads_per_worker: usize) -> usize {
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    threads_per_worker.min(hw)
}

/// One answered request: logits, calibrated probabilities and the
/// predicted class, tagged with the request's submission-order id.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Submission-order id (the `n`-th accepted request has id `n`,
    /// starting at 0).
    pub id: u64,
    /// Raw class scores, one per class.
    pub logits: Vec<f32>,
    /// Stabilised softmax of the logits.
    pub probs: Vec<f32>,
    /// Index of the highest logit.
    pub argmax: usize,
}

/// One-shot result slot a ticket waits on.
struct Slot {
    result: Mutex<Option<Result<Prediction, ServeError>>>,
    ready: Condvar,
}

/// Handle to one in-flight request; redeem it with [`Ticket::wait`].
pub struct Ticket {
    id: u64,
    slot: Arc<Slot>,
}

impl Ticket {
    /// The request's submission-order id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the request's batch has run and returns its result.
    pub fn wait(self) -> Result<Prediction, ServeError> {
        let mut guard = lock(&self.slot.result);
        loop {
            if let Some(res) = guard.take() {
                return res;
            }
            guard = self
                .slot
                .ready
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// [`Ticket::wait`] with a deadline: `None` if the result did not
    /// arrive within `timeout` (the ticket is consumed either way —
    /// liveness tests use this so a starved request fails instead of
    /// hanging the suite).
    pub fn wait_timeout(self, timeout: Duration) -> Option<Result<Prediction, ServeError>> {
        let deadline = Instant::now() + timeout;
        let mut guard = lock(&self.slot.result);
        loop {
            if let Some(res) = guard.take() {
                return Some(res);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (g, _) = self
                .slot
                .ready
                .wait_timeout(guard, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            guard = g;
        }
    }
}

/// A request parked in the queue.
struct Request {
    id: u64,
    features: Vec<f32>,
    slot: Arc<Slot>,
    submitted: Instant,
}

struct QueueState {
    queue: VecDeque<Request>,
    accepting: bool,
}

struct Shared {
    state: Mutex<QueueState>,
    /// Workers wait here for requests (and for the shutdown signal).
    arrived: Condvar,
    cfg: ServeConfig,
    in_features: usize,
    classes: usize,
    next_id: AtomicU64,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn fill(slot: &Slot, res: Result<Prediction, ServeError>) {
    let mut guard = lock(&slot.result);
    debug_assert!(guard.is_none(), "a request resolved twice");
    *guard = Some(res);
    slot.ready.notify_all();
}

/// The serving engine. See the module docs for the full contract.
pub struct Server {
    shared: Arc<Shared>,
    /// Worker handles, taken by the first `shutdown`.
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Server {
    /// Starts `cfg.workers` worker threads. `factory(worker_index)` runs
    /// *on* each worker thread to build its private model replica —
    /// typically by restoring one shared `EOSW` blob — so the model type
    /// itself never needs to be `Send`. Every replica must agree on
    /// input width and class count (the first one fixes the contract;
    /// panicking on disagreement is deliberate: replicas answering from
    /// different models is a deployment bug, not a request error).
    pub fn start<F>(cfg: ServeConfig, factory: F) -> Server
    where
        F: Fn(usize) -> InferenceModel + Send + Sync + 'static,
    {
        assert!(cfg.workers > 0, "server needs at least one worker");
        assert!(cfg.max_batch > 0, "max_batch must be positive");
        assert!(cfg.queue_cap > 0, "queue_cap must be positive");
        // Probe the factory on the caller to fix the input contract
        // before the first submit can race a slow worker spawn. The probe
        // replica is dropped here — `InferenceModel` is deliberately not
        // `Send` (layer stacks are plain heap data but type-erased), so
        // each worker builds its own replica on its own thread.
        let probe = factory(0);
        let (in_features, classes) = (probe.in_features(), probe.classes());
        drop(probe);
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                queue: VecDeque::with_capacity(cfg.queue_cap),
                accepting: true,
            }),
            arrived: Condvar::new(),
            cfg,
            in_features,
            classes,
            next_id: AtomicU64::new(0),
        });
        let factory = Arc::new(factory);
        let mut workers = Vec::with_capacity(cfg.workers);
        for w in 0..cfg.workers {
            let shared = Arc::clone(&shared);
            let factory = Arc::clone(&factory);
            let handle = std::thread::Builder::new()
                .name(format!("eos-serve-{w}"))
                .spawn(move || {
                    let model = factory(w);
                    assert_eq!(
                        (model.in_features(), model.classes()),
                        (shared.in_features, shared.classes),
                        "worker {w} replica disagrees with the model contract"
                    );
                    worker_loop(&shared, model);
                })
                .expect("failed to spawn eos-serve worker");
            workers.push(handle);
        }
        Server {
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// Input width the server's model expects.
    pub fn in_features(&self) -> usize {
        self.shared.in_features
    }

    /// Number of classes the server's model scores.
    pub fn classes(&self) -> usize {
        self.shared.classes
    }

    /// Requests accepted but not yet picked up by a worker. Observability
    /// only — the value is stale the moment the lock drops.
    pub fn queue_depth(&self) -> usize {
        lock(&self.shared.state).queue.len()
    }

    /// Accepts one request without blocking. `Err` means the request was
    /// **not** accepted: queue full ([`ServeError::Overloaded`]), closed
    /// ([`ServeError::ShuttingDown`]) or the feature width is wrong
    /// ([`ServeError::BadInput`]). On `Ok` the request *will* resolve:
    /// redeem the ticket with [`Ticket::wait`].
    pub fn submit(&self, features: Vec<f32>) -> Result<Ticket, ServeError> {
        if features.len() != self.shared.in_features {
            return Err(ServeError::BadInput {
                expected: self.shared.in_features,
                got: features.len(),
            });
        }
        let slot = Arc::new(Slot {
            result: Mutex::new(None),
            ready: Condvar::new(),
        });
        let mut st = lock(&self.shared.state);
        if !st.accepting {
            return Err(ServeError::ShuttingDown);
        }
        if st.queue.len() >= self.shared.cfg.queue_cap {
            drop(st);
            eos_trace::count!("serve.overloaded", 1);
            return Err(ServeError::Overloaded {
                cap: self.shared.cfg.queue_cap,
            });
        }
        // Ids are assigned under the queue lock, so id order IS submission
        // (acceptance) order and the FIFO holds ids in ascending order.
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        st.queue.push_back(Request {
            id,
            features,
            slot: Arc::clone(&slot),
            submitted: Instant::now(),
        });
        eos_trace::count!("serve.requests", 1);
        eos_trace::hist!("serve.queue_depth", st.queue.len() as u64);
        drop(st);
        self.shared.arrived.notify_one();
        Ok(Ticket { id, slot })
    }

    /// Submits and waits: the one-call client path, wrapped in a
    /// `serve.request` span so request latency lands in the trace tree.
    pub fn predict(&self, features: Vec<f32>) -> Result<Prediction, ServeError> {
        let _span = eos_trace::span("serve.request");
        self.submit(features)?.wait()
    }

    /// Stops accepting, drains every accepted request, joins the
    /// workers. Idempotent; also runs on drop. Returns the number of
    /// requests that were still queued when shutdown began (all of them
    /// resolved before this call returned).
    pub fn shutdown(&self) -> usize {
        let drained = {
            let mut st = lock(&self.shared.state);
            st.accepting = false;
            st.queue.len()
        };
        self.shared.arrived.notify_all();
        let handles = std::mem::take(&mut *lock(&self.workers));
        for h in handles {
            let _ = h.join();
        }
        drained
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Pops one coalesced batch, or `None` when the queue is closed and
/// empty (worker exits). Blocks while the queue is open and empty.
fn collect_batch(shared: &Shared) -> Option<Vec<Request>> {
    let cfg = &shared.cfg;
    let mut batch: Vec<Request> = Vec::new();
    let mut st = lock(&shared.state);
    // Wait for the first request (or shutdown).
    loop {
        if let Some(r) = st.queue.pop_front() {
            batch.push(r);
            break;
        }
        if !st.accepting {
            return None;
        }
        st = shared
            .arrived
            .wait(st)
            .unwrap_or_else(PoisonError::into_inner);
    }
    // Absorb whatever is already queued.
    while batch.len() < cfg.max_batch {
        match st.queue.pop_front() {
            Some(r) => batch.push(r),
            None => break,
        }
    }
    // Hold a partial batch open for up to `max_wait` — but only while the
    // queue is accepting; during a drain nothing new can arrive, so
    // waiting would only delay the shutdown.
    let deadline = Instant::now() + cfg.max_wait;
    while batch.len() < cfg.max_batch && st.accepting {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let (g, timed_out) = shared
            .arrived
            .wait_timeout(st, deadline - now)
            .unwrap_or_else(PoisonError::into_inner);
        st = g;
        while batch.len() < cfg.max_batch {
            match st.queue.pop_front() {
                Some(r) => batch.push(r),
                None => break,
            }
        }
        if timed_out.timed_out() {
            break;
        }
    }
    // A wake-up we absorbed may have been meant for a sibling worker
    // still parked on the condvar with a non-empty queue; hand the signal
    // on rather than letting it die with us.
    if !st.queue.is_empty() {
        shared.arrived.notify_one();
    }
    drop(st);
    Some(batch)
}

/// Runs one batch through the worker's replica and resolves every
/// request of the batch, in queue order.
fn run_batch(shared: &Shared, model: &mut InferenceModel, batch: Vec<Request>) {
    let _span = eos_trace::span("serve.batch");
    let n = batch.len();
    eos_trace::count!("serve.batches", 1);
    eos_trace::hist!("serve.batch_size", n as u64);
    let width = shared.in_features;
    let mut flat = vec![0.0f32; n * width];
    for (row, req) in flat.chunks_exact_mut(width).zip(&batch) {
        row.copy_from_slice(&req.features);
    }
    let x = Tensor::from_vec(flat, &[n, width]);
    // The configured budget is a *footprint*, not a demand: granting a
    // compute-bound forward more threads than the machine has cores only
    // adds scheduler thrash (oversubscribed pool workers time-share the
    // same cores), so the effective op-level budget is clamped to the
    // hardware. Chunk boundaries are thread-count independent, so the
    // clamp changes scheduling only, never results.
    let budget = effective_threads(shared.cfg.threads_per_worker);
    let forward = catch_unwind(AssertUnwindSafe(|| {
        par::with_thread_budget(budget, || model.forward(&x))
    }));
    let logits = match forward {
        Ok(logits) => logits,
        Err(_) => {
            eos_trace::count!("serve.worker_panics", 1);
            for req in batch {
                fill(&req.slot, Err(ServeError::WorkerPanicked));
            }
            return;
        }
    };
    let probs = logits.softmax_rows();
    for (i, req) in batch.into_iter().enumerate() {
        let lrow = logits.row_slice(i);
        let mut argmax = 0;
        for (j, &v) in lrow.iter().enumerate() {
            if v > lrow[argmax] {
                argmax = j;
            }
        }
        eos_trace::hist!(
            "serve.latency_ns",
            req.submitted.elapsed().as_nanos() as u64
        );
        fill(
            &req.slot,
            Ok(Prediction {
                id: req.id,
                logits: lrow.to_vec(),
                probs: probs.row_slice(i).to_vec(),
                argmax,
            }),
        );
    }
}

fn worker_loop(shared: &Shared, mut model: InferenceModel) {
    while let Some(batch) = collect_batch(shared) {
        if batch.is_empty() {
            continue;
        }
        run_batch(shared, &mut model, batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eos_nn::{Linear, Sequential};
    use eos_tensor::Tensor;

    /// A 3-class linear model whose logits are a fixed function of the
    /// input (`W = [[1,0],[0,1],[-1,-1]]`), so tests can predict exact
    /// outputs per request.
    fn probe_model() -> InferenceModel {
        let w = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, -1.0, -1.0], &[3, 2]);
        let net = Sequential::new(vec![Box::new(Linear::from_weights(w, None))]);
        InferenceModel::new(Box::new(net), 2)
    }

    fn tiny_server(workers: usize, max_batch: usize) -> Server {
        Server::start(
            ServeConfig {
                max_batch,
                max_wait: Duration::from_millis(1),
                queue_cap: 64,
                workers,
                threads_per_worker: 1,
            },
            |_| probe_model(),
        )
    }

    #[test]
    fn predict_answers_from_the_right_row() {
        let server = tiny_server(2, 4);
        let p = server.predict(vec![2.0, -1.0]).unwrap();
        assert_eq!(p.logits, vec![2.0, -1.0, -1.0]);
        assert_eq!(p.argmax, 0);
        assert!((p.probs.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        let q = server.predict(vec![-3.0, 5.0]).unwrap();
        assert_eq!(q.argmax, 1);
    }

    #[test]
    fn bad_width_is_rejected_before_queueing() {
        let server = tiny_server(1, 4);
        assert_eq!(
            server.submit(vec![1.0]).err(),
            Some(ServeError::BadInput {
                expected: 2,
                got: 1
            })
        );
        assert_eq!(server.queue_depth(), 0);
    }

    #[test]
    fn shutdown_is_idempotent_and_rejects_new_work() {
        let server = tiny_server(1, 4);
        server.shutdown();
        server.shutdown();
        assert_eq!(
            server.predict(vec![0.0, 0.0]).err(),
            Some(ServeError::ShuttingDown)
        );
    }

    #[test]
    fn ids_follow_submission_order() {
        let server = tiny_server(1, 8);
        let a = server.submit(vec![1.0, 0.0]).unwrap();
        let b = server.submit(vec![0.0, 1.0]).unwrap();
        assert!(a.id() < b.id());
        assert_eq!(a.wait().unwrap().id, 0);
        assert_eq!(b.wait().unwrap().id, 1);
    }
}
