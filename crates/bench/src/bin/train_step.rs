//! Steady-state training-step benchmark and heap-allocation audit.
//!
//! A debug counting allocator wraps `System` and counts every allocation
//! (alloc, alloc_zeroed, realloc). After warm-up steps fill the scratch
//! pool, the layers' own buffers and the optimiser state, a steady-state
//! training step must perform **zero** heap allocations — the audit runs
//! single-threaded so the count is deterministic, and the binary exits
//! non-zero if any allocation sneaks back into the hot path. A second
//! audit repeats the check with two concurrent jobs (each under a scoped
//! one-thread budget, mirroring the suite scheduler's split) to prove the
//! process-global scratch pool and each state's layer buffers stay
//! allocation-free under outer parallelism once the pool is stocked to
//! the concurrent peak working set.
//!
//! Timing then covers three configurations: one thread, the ambient
//! thread budget with tracing disabled (the configuration the acceptance
//! gate compares against the pre-trace baseline), and the ambient budget
//! with tracing enabled, reporting the overhead. Each configuration runs
//! for a fixed time — 1.5 s, in six slices of 0.25 s taken in turn with
//! the other configurations', so a slow spell of the host falls on all
//! three — and reports the median and 10th percentile of its step times.
//! Everything is written to `results/BENCH_train_step.json`.
//!
//! `--smoke` trims the audit steps and the timed phases for
//! `scripts/verify.sh`.

use eos_bench::{format_duration, percentile, record_host_facts, JsonRecord};
use eos_nn::{Architecture, ConvNet, CrossEntropyLoss, Loss, Sgd};
use eos_tensor::{normal, par, Rng64, Tensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Counts every allocation on every thread; frees are not counted (the
/// audit is about allocation pressure, not leaks).
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// One mini-batch step exactly as the trainer loop runs it.
struct StepState {
    net: ConvNet,
    loss: CrossEntropyLoss,
    opt: Sgd,
    x: Tensor,
    chunk: Vec<usize>,
    by: Vec<usize>,
    preds: Vec<usize>,
}

impl StepState {
    fn step(&mut self) -> f32 {
        let bx = self.x.select_rows(&self.chunk);
        self.net.zero_grad();
        let logits = self.net.forward(&bx, true);
        let (l, dlogits) = self.loss.loss_and_grad(&logits, &self.by);
        self.net.backward(&dlogits);
        self.opt.step_visit(&mut self.net);
        logits.argmax_rows_into(&mut self.preds);
        l
    }

    /// [`StepState::step`] with a per-phase allocation count, printed so a
    /// failing audit points at the offending phase.
    fn step_traced(&mut self) -> f32 {
        let read = || {
            (
                ALLOCATIONS.load(Ordering::SeqCst),
                eos_tensor::scratch::stats().1 as u64,
            )
        };
        let t0 = read();
        let bx = self.x.select_rows(&self.chunk);
        let t1 = read();
        self.net.zero_grad();
        let t2 = read();
        let logits = self.net.forward(&bx, true);
        let t3 = read();
        let (l, dlogits) = self.loss.loss_and_grad(&logits, &self.by);
        let t4 = read();
        self.net.backward(&dlogits);
        let t5 = read();
        self.opt.step_visit(&mut self.net);
        let t6 = read();
        logits.argmax_rows_into(&mut self.preds);
        let t7 = read();
        println!(
            "  phase allocations: select {} zero_grad {} forward {} loss {} backward {} opt {} argmax {}",
            t1.0 - t0.0, t2.0 - t1.0, t3.0 - t2.0, t4.0 - t3.0, t5.0 - t4.0, t6.0 - t5.0, t7.0 - t6.0
        );
        println!(
            "  scratch misses:    select {} zero_grad {} forward {} loss {} backward {} opt {} argmax {}",
            t1.1 - t0.1, t2.1 - t1.1, t3.1 - t2.1, t4.1 - t3.1, t5.1 - t4.1, t6.1 - t5.1, t7.1 - t6.1
        );
        l
    }
}

/// A fresh step state on its own RNG stream (each concurrent job gets
/// its own model, data and optimiser — jobs share nothing but the
/// process-wide allocator being audited).
fn make_state(seed: u64) -> StepState {
    let (batch, classes) = (16usize, 4usize);
    let shape = (3usize, 16usize, 16usize);
    let arch = Architecture::ResNet {
        blocks_per_stage: 1,
        width: 8,
    };
    let mut rng = Rng64::new(seed);
    let x = normal(
        &[batch * 2, shape.0 * shape.1 * shape.2],
        0.0,
        1.0,
        &mut rng,
    );
    let net = ConvNet::new(arch, shape, classes, &mut rng);
    StepState {
        net,
        loss: CrossEntropyLoss::new(),
        opt: Sgd::new(0.05, 0.9, 5e-4),
        x,
        chunk: (0..batch).collect(),
        by: (0..batch).map(|i| i % classes).collect(),
        preds: Vec::with_capacity(batch),
    }
}

/// A timed configuration of the step: its thread budget, whether tracing
/// is on, and the step times its phases collected.
struct Timed {
    label: String,
    threads: usize,
    traced: bool,
    steps: Vec<Duration>,
}

impl Timed {
    fn new(label: String, threads: usize, traced: bool) -> Self {
        Timed {
            label,
            threads,
            traced,
            steps: Vec::new(),
        }
    }

    fn p50(&self) -> Duration {
        percentile(&self.steps, 50.0)
    }

    fn p10(&self) -> Duration {
        percentile(&self.steps, 10.0)
    }
}

/// Times `configs` in `rounds` rounds; each round gives every
/// configuration, in turn, one untimed step and then steps for `slice`.
/// Tracing is left disabled and its registry reset.
fn time_in_rounds(state: &mut StepState, configs: &mut [Timed], rounds: usize, slice: Duration) {
    for _ in 0..rounds {
        for c in configs.iter_mut() {
            par::set_num_threads(c.threads);
            eos_trace::set_enabled(c.traced);
            std::hint::black_box(state.step());
            let end = Instant::now() + slice;
            loop {
                let t0 = Instant::now();
                std::hint::black_box(state.step());
                let t1 = Instant::now();
                c.steps.push(t1 - t0);
                if t1 >= end {
                    break;
                }
            }
        }
    }
    eos_trace::set_enabled(false);
    eos_trace::reset();
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Audit steps, then timing rounds and the slice of each round.
    let (audit_steps, rounds, slice_ms) = if smoke { (3, 3, 100) } else { (10, 6, 250) };
    let warmup = 5;
    let (batch, shape) = (16usize, (3usize, 16usize, 16usize));
    let mut state = make_state(11);

    // --- Allocation audit: single-threaded so chunk->thread assignment
    // cannot move a first-touch workspace miss into the measured window.
    let ambient = par::num_threads();
    par::set_num_threads(1);
    for _ in 0..warmup {
        std::hint::black_box(state.step());
    }
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..audit_steps {
        std::hint::black_box(state.step());
    }
    let allocs = ALLOCATIONS.load(Ordering::SeqCst) - before;
    let per_step = allocs as f64 / audit_steps as f64;
    println!("allocations per steady-state step: {per_step} ({allocs} over {audit_steps} steps)");
    if allocs > 0 {
        std::hint::black_box(state.step_traced());
    }

    // --- Concurrent-jobs audit: two independent jobs, each scoped to an
    // inner budget of one thread (the scheduler's split when jobs ≥
    // threads), must also be allocation-free in steady state. The scratch
    // pool is process-global, so two concurrent steps keep up to twice one
    // job's buffer working set in flight — and per-worker warm-up alone
    // only proves the pool holds ONE set (the second worker's warm-up
    // reuses the first's parked buffers). To make the audit deterministic
    // rather than interleaving-dependent, the pool is force-stocked to the
    // two-job peak before the window opens: drain it (holding the parked
    // buffers aside), let worker 0 re-warm against the empty pool so it
    // parks a fresh working set of its own, then give the held buffers
    // back. The pool then holds two disjoint working sets, so no
    // interleaving of the measured steps can miss. The final `exit`
    // barrier keeps each worker's `StepState` alive until the counter has
    // been read: dropping a whole net gives hundreds of long-lived buffers
    // to the pool, and letting that teardown race the read would smear its
    // bookkeeping allocations into the measured delta.
    let jobs = 2usize;
    let barrier = || std::sync::Barrier::new(jobs + 1);
    let (warmed, solo_start, solo_end, window, done, exit) = (
        barrier(),
        barrier(),
        barrier(),
        barrier(),
        barrier(),
        barrier(),
    );
    let concurrent_allocs = std::thread::scope(|s| {
        for j in 0..jobs {
            let (warmed, solo_start, solo_end) = (&warmed, &solo_start, &solo_end);
            let (window, done, exit) = (&window, &done, &exit);
            s.spawn(move || {
                par::with_thread_budget(1, || {
                    let mut st = make_state(23 + j as u64);
                    for _ in 0..warmup {
                        std::hint::black_box(st.step());
                    }
                    warmed.wait();
                    solo_start.wait();
                    if j == 0 {
                        for _ in 0..warmup {
                            std::hint::black_box(st.step());
                        }
                    }
                    solo_end.wait();
                    window.wait();
                    for _ in 0..audit_steps {
                        std::hint::black_box(st.step());
                    }
                    done.wait();
                    exit.wait();
                });
            });
        }
        warmed.wait();
        let held = eos_tensor::scratch::drain();
        solo_start.wait();
        solo_end.wait();
        for v in held {
            eos_tensor::scratch::give(v);
        }
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        window.wait();
        done.wait();
        let allocs = ALLOCATIONS.load(Ordering::SeqCst) - before;
        exit.wait();
        allocs
    });
    let concurrent_per_step = concurrent_allocs as f64 / (jobs * audit_steps) as f64;
    println!(
        "allocations per steady-state step ({jobs} concurrent jobs): {concurrent_per_step} \
         ({concurrent_allocs} over {jobs}x{audit_steps} steps)"
    );

    // --- Timing at one thread and at the ambient budget, untraced and
    // traced. The audit above ran with tracing disabled (its default), so
    // the untraced ambient phase is the number the acceptance gate
    // compares against the pre-trace baseline; the traced phase
    // quantifies what enabling spans/counters costs on top.
    let mut timed = [
        Timed::new("train step (1 thread)".into(), 1, false),
        Timed::new(format!("train step ({ambient} threads)"), ambient, false),
        Timed::new(
            format!("train step ({ambient} threads, traced)"),
            ambient,
            true,
        ),
    ];
    let slice = Duration::from_millis(slice_ms);
    time_in_rounds(&mut state, &mut timed, rounds, slice);
    par::set_num_threads(ambient);
    for t in &timed {
        println!(
            "{:<44} p50 {:>10}  p10 {:>10}  ({} steps)",
            t.label,
            format_duration(t.p50()),
            format_duration(t.p10()),
            t.steps.len()
        );
    }
    let [serial, parallel, traced] = &timed;
    let overhead_pct =
        100.0 * (traced.p50().as_nanos() as f64 / parallel.p50().as_nanos().max(1) as f64 - 1.0);
    println!("tracing-enabled overhead: {overhead_pct:+.2}% (p50 over p50)");

    let mut rec = JsonRecord::new();
    rec.str("bench", "train_step")
        .str("arch", "resnet-1x8")
        .int("batch", batch as u64)
        .int("input_len", (shape.0 * shape.1 * shape.2) as u64)
        .int("audit_steps", audit_steps as u64)
        .num("allocations_per_step", per_step)
        .int("concurrent_jobs", jobs as u64)
        .num("concurrent_allocations_per_step", concurrent_per_step)
        .int("timing_rounds", rounds as u64)
        .int("timing_slice_ms", slice_ms)
        .int("serial_steps", serial.steps.len() as u64)
        .int("serial_p50_ns", serial.p50().as_nanos() as u64)
        .int("serial_p10_ns", serial.p10().as_nanos() as u64)
        .int("threads", ambient as u64)
        .int("parallel_steps", parallel.steps.len() as u64)
        .int("parallel_p50_ns", parallel.p50().as_nanos() as u64)
        .int("parallel_p10_ns", parallel.p10().as_nanos() as u64)
        .int("traced_steps", traced.steps.len() as u64)
        .int("traced_p50_ns", traced.p50().as_nanos() as u64)
        .int("traced_p10_ns", traced.p10().as_nanos() as u64)
        .num("tracing_overhead_pct", overhead_pct);
    record_host_facts(&mut rec);
    rec.write("BENCH_train_step");

    if allocs > 0 {
        eprintln!("FAIL: steady-state training step allocated ({per_step} per step)");
        std::process::exit(1);
    }
    if concurrent_allocs > 0 {
        eprintln!(
            "FAIL: steady-state step allocated under {jobs} concurrent jobs \
             ({concurrent_per_step} per step)"
        );
        std::process::exit(1);
    }
}
