//! `oversample`: pixel-space over-sampling, as Table I's Pre- arm and
//! `pixel_eos` run it. One op is `balance_with` on the CIFAR-10
//! analogue's train set, alternating EOS(k=10) and B-SMOTE(5,5); both
//! run a whole-set kNN. SMOTE and Bal-SVM stay out of the op mix (their
//! op times would make the distribution multi-modal) and are timed once
//! per traced run instead.

use super::heads::replay_eos_neighbors;
use super::{measure_serial, overhead_pct, untraced};
use crate::report::Outcome;
use crate::Opts;
use eos_core::{Eos, Scale};
use eos_data::Dataset;
use eos_resample::{
    balance_with, class_counts, deficits, BalancedSvm, BorderlineSmote, Oversampler, Smote,
};
use eos_tensor::Rng64;
use std::time::Instant;

/// The EOS neighbourhood size of the op mix.
const EOS_K: usize = 10;

/// The train set and the two samplers of the op mix.
pub struct Oversample {
    train: Dataset,
    mix: [Box<dyn Oversampler>; 2],
    deficits: Vec<usize>,
    rng: Rng64,
    next: usize,
}

/// What one op produced.
struct OpResult {
    ms: f64,
    ok: bool,
    synthetic: usize,
}

/// Balances `train` with `sampler`; checks that the synthetic rows per
/// class equal the class deficits (only their total for a sampler that
/// `relabels` its synthetic rows, as Bal-SVM does) and that every value
/// is finite.
fn balance(
    train: &Dataset,
    deficits: &[usize],
    sampler: &dyn Oversampler,
    relabels: bool,
    rng: &mut Rng64,
) -> OpResult {
    let (x, y, nc) = (&train.x, &train.y, train.num_classes);
    let t0 = Instant::now();
    let (bx, by) = balance_with(sampler, x, y, nc, rng);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let synthetic = &by[y.len().min(by.len())..];
    let counts_ok = if relabels {
        synthetic.len() == deficits.iter().sum::<usize>()
    } else {
        class_counts(synthetic, nc) == deficits
    };
    OpResult {
        ms,
        ok: bx.dim(0) == by.len() && counts_ok && bx.all_finite(),
        synthetic: synthetic.len(),
    }
}

impl Oversample {
    /// Generates the data from `seed` and runs one untimed op of each
    /// sampler.
    pub fn setup(seed: u64) -> Oversample {
        let (train, _) = eos_bench::prepared_dataset("cifar10", Scale::Small, seed);
        let mut s = Oversample {
            deficits: deficits(&train.y, train.num_classes),
            train,
            mix: [
                Box::new(Eos::new(EOS_K)),
                Box::new(BorderlineSmote::new(5, 5)),
            ],
            rng: Rng64::new(seed ^ 0x4F56_4552),
            next: 0,
        };
        s.op();
        s.op();
        s
    }

    /// The next op of the mix.
    fn op_result(&mut self) -> (usize, OpResult) {
        let i = self.next % self.mix.len();
        self.next += 1;
        let mut rng = self.rng.fork();
        let r = balance(
            &self.train,
            &self.deficits,
            self.mix[i].as_ref(),
            false,
            &mut rng,
        );
        (i, r)
    }

    /// One op; returns its milliseconds and whether its check passed.
    pub fn op(&mut self) -> (f64, bool) {
        let (_, r) = self.op_result();
        (r.ms, r.ok)
    }
}

/// Untraced run: end-to-end metrics.
pub fn run(opts: &Opts) -> Outcome {
    // The calibration does not track the kNN queries: on the reference
    // host they hardly slowed when it did, and scaling made the figures
    // less steady. Report the timings as measured.
    untraced(
        false,
        || Oversample::setup(opts.seed),
        |s| {
            let m = measure_serial(opts.seconds, s.mix.len(), || s.op());
            let attempted = m.op_ms.len() as u64;
            (m, attempted)
        },
    )
}

/// Traced run: each op's `balance_with` timed per sampler, EOS's index
/// build and enemy-table queries replayed and timed, SMOTE and Bal-SVM
/// timed once.
pub fn traced(seed: u64, phase_s: f64) -> Outcome {
    let mut s = Oversample::setup(seed);
    let untraced = measure_serial(phase_s, s.mix.len(), || s.op());
    let (mut ms, mut ops) = ([0.0; 2], [0usize; 2]);
    let (mut synthetic, mut build, mut query, mut queries, mut eos_ops) = (0, 0.0, 0.0, 0, 0);
    eos_trace::set_enabled(true);
    let traced = measure_serial(phase_s, s.mix.len(), || {
        let (i, r) = s.op_result();
        ms[i] += r.ms;
        ops[i] += 1;
        synthetic += r.synthetic;
        if i == 0 {
            let t = &s.train;
            let (b, q, n) = replay_eos_neighbors(&t.x, &t.y, t.num_classes, EOS_K);
            (build, query, queries, eos_ops) = (build + b, query + q, queries + n, eos_ops + 1);
        }
        (r.ms, r.ok)
    });
    let once = [
        balance(
            &s.train,
            &s.deficits,
            &Smote::new(5),
            false,
            &mut s.rng.fork(),
        ),
        balance(
            &s.train,
            &s.deficits,
            &BalancedSvm::new(5),
            true,
            &mut s.rng.fork(),
        ),
    ];
    eos_trace::set_enabled(false);

    let n = traced.op_ms.len().max(1) as f64;
    let failed = traced.failed + once.iter().filter(|r| !r.ok).count() as u64;
    let mut out = Outcome {
        correct: failed == 0,
        attempted: traced.op_ms.len() as u64 + once.len() as u64,
        failed,
        ..Outcome::default()
    };
    out.push(
        "oversample.resample.balance.eos_ms",
        ms[0] / ops[0].max(1) as f64,
    );
    out.push(
        "oversample.resample.balance.bsmote_ms",
        ms[1] / ops[1].max(1) as f64,
    );
    out.push("oversample.resample.balance.smote_ms", once[0].ms);
    out.push("oversample.resample.balance.balsvm_ms", once[1].ms);
    out.push("oversample.resample.synthetic_rows", synthetic as f64 / n);
    let eos_ops = eos_ops.max(1) as f64;
    out.push("oversample.neighbors.build_ms", build / eos_ops);
    out.push("oversample.neighbors.query_ms", query / eos_ops);
    out.push("oversample.neighbors.queries", queries as f64 / eos_ops);
    out.push(
        "oversample.trace.overhead_pct",
        overhead_pct(untraced.ops_per_s(), traced.ops_per_s()),
    );
    out
}
