//! `heads`: phases 2+3 exactly as every table cell runs them. Setup
//! trains the CelebA-analogue small backbone through `Engine::backbone`
//! on a throwaway cache, then asks again (served from the cache). One op
//! is `ThreePhase::finetune_and_eval` with the next sampler of Table II's
//! lineup: SMOTE, B-SMOTE, Bal-SVM, EOS.

use super::{measure_serial, overhead_pct, same_bits, split_gap_pct, untraced, ScratchDir};
use crate::rebuild;
use crate::report::Outcome;
use crate::Opts;
use eos_bench::{prepared_dataset, ArtifactCache, Engine, SamplerSpec};
use eos_core::{evaluate, extract_embeddings, PipelineConfig, Scale, ThreePhase};
use eos_data::Dataset;
use eos_neighbors::{AutoIndex, Metric};
use eos_nn::{Layer, Linear, LossKind};
use eos_resample::{balance_with, class_counts, deficits, indices_by_class, Oversampler};
use eos_tensor::{Rng64, Tensor};
use std::time::Instant;

/// Metric stem of each sampler, in lineup order.
pub const SAMPLER_KEYS: [&str; 4] = ["smote", "bsmote", "balsvm", "eos"];

/// Table II's oversampler lineup, in column order.
pub fn lineup() -> Vec<(SamplerSpec, Box<dyn Oversampler>)> {
    let mut specs = SamplerSpec::classic_lineup().to_vec();
    specs.push(SamplerSpec::eos(10));
    specs
        .into_iter()
        .map(|s| (s, s.build().expect("lineup has no baseline")))
        .collect()
}

/// Seconds spent in each setup step.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// Generating and standardising the dataset.
    pub generate_s: f64,
    /// `Engine::backbone` on an empty cache (trains and stores).
    pub backbone_cold_s: f64,
    /// `Engine::backbone` again, served from the cache.
    pub backbone_warm_s: f64,
}

/// A trained backbone with its test set and the sampler lineup.
pub struct Heads {
    tp: ThreePhase,
    test: Dataset,
    cfg: PipelineConfig,
    samplers: Vec<(SamplerSpec, Box<dyn Oversampler>)>,
    rng: Rng64,
    next: usize,
    /// How long each setup step took.
    pub times: SetupTimes,
    _cache: ScratchDir,
}

impl Heads {
    /// Generates the data, trains the backbone cold, loads it warm and
    /// runs one untimed warm-up op per sampler.
    pub fn setup(seed: u64) -> Heads {
        let cfg = PipelineConfig::small();
        let t0 = Instant::now();
        let (train, test) = prepared_dataset("celeba", Scale::Small, seed);
        let t1 = Instant::now();
        let dir = ScratchDir::new("heads-cache").expect("scratch cache dir");
        let eng = Engine::with_cache(Scale::Small, seed, Some(ArtifactCache::at(dir.path())));
        let backbone = || {
            eng.backbone(&train, LossKind::Ce, &cfg)
                .unwrap_or_else(|e| panic!("backbone: {e}"))
        };
        let tp = backbone();
        let t2 = Instant::now();
        drop(backbone());
        let t3 = Instant::now();
        let mut s = Heads {
            tp,
            test,
            cfg,
            samplers: lineup(),
            rng: Rng64::new(seed ^ 0x4845_4144),
            next: 0,
            times: SetupTimes {
                generate_s: (t1 - t0).as_secs_f64(),
                backbone_cold_s: (t2 - t1).as_secs_f64(),
                backbone_warm_s: (t3 - t2).as_secs_f64(),
            },
            _cache: dir,
        };
        for _ in 0..s.samplers.len() {
            s.op();
        }
        s
    }

    /// The next sampler index and a fresh RNG stream for its op.
    fn next_op(&mut self) -> (usize, Rng64) {
        let i = self.next % self.samplers.len();
        self.next += 1;
        (i, self.rng.fork())
    }

    /// Whether `sampler`, replayed from `rng`, hands the head a balanced
    /// training set: every class at the majority count. Bal-SVM relabels
    /// its synthetic rows by design, so for it only the total is checked.
    fn head_set_balanced(&self, i: usize, mut rng: Rng64) -> bool {
        let (spec, sampler) = &self.samplers[i];
        let nc = self.tp.num_classes;
        let (_, by) = balance_with(
            sampler.as_ref(),
            &self.tp.train_fe,
            &self.tp.train_y,
            nc,
            &mut rng,
        );
        let majority = *class_counts(&self.tp.train_y, nc)
            .iter()
            .max()
            .unwrap_or(&0);
        let counts = class_counts(&by, nc);
        let relabels = matches!(spec, SamplerSpec::BalancedSvm { .. });
        by.len() == nc * majority && (relabels || counts.iter().all(|&c| c == majority))
    }

    /// One `finetune_and_eval`; returns its milliseconds and whether BAC
    /// and macro-F1 are in [0, 1] and the head's set was balanced.
    pub fn op(&mut self) -> (f64, bool) {
        let (i, mut rng) = self.next_op();
        let replay = rng.clone();
        let t0 = Instant::now();
        let r =
            self.tp
                .finetune_and_eval(self.samplers[i].1.as_ref(), &self.test, &self.cfg, &mut rng);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let unit = |v: f64| v.is_finite() && (0.0..=1.0).contains(&v);
        (
            ms,
            unit(r.bac) && unit(r.f1) && self.head_set_balanced(i, replay),
        )
    }
}

/// Untraced run: end-to-end metrics.
pub fn run(opts: &Opts) -> Outcome {
    // Timings as measured: scaling is used only where it was shown to
    // steady the figures (`train`).
    untraced(
        false,
        || Heads::setup(opts.seed),
        |s| {
            let m = measure_serial(opts.seconds, s.samplers.len(), || s.op());
            let attempted = m.op_ms.len() as u64;
            (m, attempted)
        },
    )
}

/// Predictions of `head` over embeddings, in `evaluate`'s 256-row batches.
pub fn head_predict(head: &mut Linear, fe: &Tensor) -> Vec<usize> {
    let n = fe.dim(0);
    let mut preds = Vec::with_capacity(n);
    for lo in (0..n).step_by(256) {
        let rows: Vec<usize> = (lo..(lo + 256).min(n)).collect();
        preds.extend(head.forward(&fe.select_rows(&rows), false).argmax_rows());
    }
    preds
}

/// Milliseconds of EOS's index build and enemy-table queries, replayed
/// with its inputs, and the number of rows queried.
pub fn replay_eos_neighbors(
    x: &Tensor,
    y: &[usize],
    num_classes: usize,
    k: usize,
) -> (f64, f64, usize) {
    let t0 = Instant::now();
    let index = AutoIndex::new(x, Metric::Euclidean);
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let idx = indices_by_class(y, num_classes);
    let (mut query_ms, mut queries) = (0.0, 0);
    for (class, &need) in deficits(y, num_classes).iter().enumerate() {
        if need > 0 {
            let t = Instant::now();
            let hits = index.query_rows_batch(&idx[class], k);
            query_ms += t.elapsed().as_secs_f64() * 1e3;
            queries += hits.len();
        }
    }
    (build_ms, query_ms, queries)
}

/// Milliseconds accumulated per traced call.
#[derive(Default)]
struct Acc {
    finetune: f64,
    evaluate: f64,
    embed: f64,
    head_infer: f64,
    head_train: f64,
    head_rows: usize,
    balance: [f64; 4],
    balance_ops: [usize; 4],
    nn_build: f64,
    nn_query: f64,
    eos_ops: usize,
}

/// Traced run: `finetune_and_eval`'s two public calls timed, then the
/// same op rebuilt from its parts (`balance_with`, `Linear::new`,
/// `train_epochs`, `extract_embeddings`, head forward) with each part
/// timed and the rebuilt predictions asserted identical. EOS ops also
/// replay EOS's neighbour index build and queries.
pub fn traced(seed: u64, phase_s: f64) -> Outcome {
    let mut s = Heads::setup(seed);
    let untraced = measure_serial(phase_s, s.samplers.len(), || s.op());
    let mut acc = Acc::default();
    eos_trace::set_enabled(true);
    let traced = measure_serial(phase_s, s.samplers.len(), || {
        let (i, mut rng) = s.next_op();
        let replay = rng.clone();
        let sampler = s.samplers[i].1.as_ref();
        let t0 = Instant::now();
        s.tp.finetune_head(Some(sampler), &s.cfg, &mut rng);
        let t1 = Instant::now();
        let r = evaluate(&mut s.tp.net, &s.test);
        let t2 = Instant::now();
        acc.finetune += (t1 - t0).as_secs_f64() * 1e3;
        acc.evaluate += (t2 - t1).as_secs_f64() * 1e3;

        let nc = s.tp.num_classes;
        let (mut head, _, split) = rebuild::finetune_head(
            &s.tp.train_fe,
            &s.tp.train_y,
            nc,
            sampler,
            &s.cfg,
            &mut replay.clone(),
        );
        acc.balance[i] += split.balance_ms;
        acc.balance_ops[i] += 1;
        acc.head_train += split.train_ms;
        acc.head_rows += split.rows;
        let t3 = Instant::now();
        let fe = extract_embeddings(&mut s.tp.net, &s.test.x);
        let t4 = Instant::now();
        let preds = head_predict(&mut head, &fe);
        acc.embed += (t4 - t3).as_secs_f64() * 1e3;
        acc.head_infer += t4.elapsed().as_secs_f64() * 1e3;
        if let SamplerSpec::Eos { k, .. } = s.samplers[i].0 {
            let (b, q, _) = replay_eos_neighbors(&s.tp.train_fe, &s.tp.train_y, nc, k);
            acc.nn_build += b;
            acc.nn_query += q;
            acc.eos_ops += 1;
        }
        let same_head = same_bits(head.weight().data(), s.tp.net.head.weight().data());
        let unit = |v: f64| v.is_finite() && (0.0..=1.0).contains(&v);
        let ok = same_head
            && preds == r.predictions
            && unit(r.bac)
            && unit(r.f1)
            && s.head_set_balanced(i, replay);
        ((t2 - t0).as_secs_f64() * 1e3, ok)
    });
    eos_trace::set_enabled(false);

    let n = traced.op_ms.len().max(1) as f64;
    let mut out = Outcome {
        correct: traced.failed == 0,
        attempted: traced.op_ms.len() as u64,
        failed: traced.failed,
        ..Outcome::default()
    };
    out.push("heads.core.finetune_ms", acc.finetune / n);
    out.push("heads.core.evaluate_ms", acc.evaluate / n);
    let balance_total: f64 = acc.balance.iter().sum();
    out.push(
        "heads.core.finetune.split_gap_pct",
        split_gap_pct(acc.finetune, balance_total + acc.head_train),
    );
    out.push(
        "heads.core.evaluate.split_gap_pct",
        split_gap_pct(acc.evaluate, acc.embed + acc.head_infer),
    );
    out.push("heads.nn.embed_ms", acc.embed / n);
    out.push("heads.nn.head_infer_ms", acc.head_infer / n);
    out.push("heads.nn.head_train_ms", acc.head_train / n);
    out.push("heads.nn.head_rows", acc.head_rows as f64 / n);
    for (j, key) in SAMPLER_KEYS.iter().enumerate() {
        out.push(
            format!("heads.resample.balance.{key}_ms"),
            acc.balance[j] / acc.balance_ops[j].max(1) as f64,
        );
    }
    let eos_ops = acc.eos_ops.max(1) as f64;
    out.push("heads.neighbors.build_ms", acc.nn_build / eos_ops);
    out.push("heads.neighbors.query_ms", acc.nn_query / eos_ops);
    out.push("heads.data.generate_s", s.times.generate_s);
    out.push("heads.exp.backbone_cold_s", s.times.backbone_cold_s);
    out.push("heads.exp.backbone_warm_s", s.times.backbone_warm_s);
    out.push(
        "heads.trace.overhead_pct",
        overhead_pct(untraced.ops_per_s(), traced.ops_per_s()),
    );
    out
}
