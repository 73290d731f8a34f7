//! The three-phase training framework (paper §III-C) and the pixel-space
//! pre-processing pipeline it is evaluated against (Table I, §V-E2).

use crate::config::PipelineConfig;
use crate::metrics::ConfusionMatrix;
use eos_data::Dataset;
use eos_nn::{
    effective_number_weights, train_epochs, try_train_epochs_resumable, Checkpointer, ConvNet,
    CrossEntropyLoss, EpochStats, Layer, Linear, Loss, LossKind, MultiStepLr, Sgd, TrainConfig,
    TrainFailure,
};
use eos_resample::{balance_with, Oversampler};
use eos_tensor::{Rng64, Tensor};
use std::time::Instant;

const EVAL_BATCH: usize = 256;

/// Outcome of evaluating a pipeline on a test set.
#[derive(Debug, Clone)]
pub struct EvalResult {
    /// Balanced accuracy.
    pub bac: f64,
    /// Geometric mean of recalls.
    pub gm: f64,
    /// Macro F1.
    pub f1: f64,
    /// Per-sample predictions (aligned with the test set).
    pub predictions: Vec<usize>,
    /// Wall-clock seconds the producing pipeline spent training.
    pub seconds: f64,
}

impl EvalResult {
    fn from_confusion(cm: &ConfusionMatrix, predictions: Vec<usize>, seconds: f64) -> Self {
        let m = cm.metrics();
        EvalResult {
            bac: m.bac,
            gm: m.gm,
            f1: m.f1,
            predictions,
            seconds,
        }
    }
}

/// Extracts feature embeddings for a whole sample matrix in bounded-memory
/// batches (phase two's first step).
pub fn extract_embeddings(net: &mut ConvNet, x: &Tensor) -> Tensor {
    let n = x.dim(0);
    let mut parts: Vec<Tensor> = Vec::new();
    let mut i = 0;
    while i < n {
        let hi = (i + EVAL_BATCH).min(n);
        let rows: Vec<usize> = (i..hi).collect();
        parts.push(net.embed(&x.select_rows(&rows)));
        i = hi;
    }
    let refs: Vec<&Tensor> = parts.iter().collect();
    Tensor::concat_rows(&refs)
}

/// Batched inference + metrics on a test set.
pub fn evaluate(net: &mut ConvNet, test: &Dataset) -> EvalResult {
    let n = test.len();
    let mut predictions = Vec::with_capacity(n);
    let mut i = 0;
    while i < n {
        let hi = (i + EVAL_BATCH).min(n);
        let rows: Vec<usize> = (i..hi).collect();
        let logits = net.forward(&test.x.select_rows(&rows), false);
        predictions.extend(logits.argmax_rows());
        i = hi;
    }
    let cm = ConfusionMatrix::from_predictions(&test.y, &predictions, test.num_classes);
    EvalResult::from_confusion(&cm, predictions, 0.0)
}

fn backbone_schedule(cfg: &PipelineConfig, loss: LossKind, class_counts: &[usize]) -> TrainConfig {
    // Decay at 2/3 and 5/6 of the schedule, echoing Cui et al.'s regime.
    let m1 = cfg.backbone_epochs * 2 / 3;
    let m2 = cfg.backbone_epochs * 5 / 6;
    TrainConfig {
        epochs: cfg.backbone_epochs,
        batch_size: cfg.batch_size,
        lr: cfg.lr,
        momentum: cfg.momentum,
        weight_decay: cfg.weight_decay,
        schedule: Some(Box::new(MultiStepLr {
            base_lr: cfg.lr,
            milestones: vec![m1.max(1), m2.max(2)],
            gamma: 0.1,
        })),
        drw_epoch: (loss == LossKind::Ldam).then(|| {
            // LDAM-DRW defers effective-number re-weighting to the tail.
            cfg.drw_epoch.min(cfg.backbone_epochs.saturating_sub(1))
        }),
        checkpoint: None,
    }
    .with_counts(class_counts)
}

trait WithCounts {
    fn with_counts(self, counts: &[usize]) -> TrainConfig;
}

impl WithCounts for TrainConfig {
    fn with_counts(self, _counts: &[usize]) -> TrainConfig {
        self
    }
}

/// A trained backbone plus its extracted train-set embeddings — phases one
/// and two of the framework, ready for repeated head fine-tuning (the
/// efficiency claim of §V-E2 rests on reusing this across oversamplers).
pub struct ThreePhase {
    /// The end-to-end trained network.
    pub net: ConvNet,
    /// Feature embeddings of the training set.
    pub train_fe: Tensor,
    /// Training labels (aligned with `train_fe`).
    pub train_y: Vec<usize>,
    /// Number of classes.
    pub num_classes: usize,
    /// Per-epoch backbone statistics.
    pub history: Vec<EpochStats>,
    /// Wall-clock seconds of backbone training (+ extraction).
    pub backbone_seconds: f64,
}

impl ThreePhase {
    /// Phase one: trains the backbone end-to-end on the (imbalanced)
    /// training set under the given loss, then extracts embeddings.
    ///
    /// Convenience wrapper over [`ThreePhase::try_train`] that panics
    /// (with the [`TrainFailure`] diagnostics) if phase one diverges.
    pub fn train(
        train: &Dataset,
        loss_kind: LossKind,
        cfg: &PipelineConfig,
        rng: &mut Rng64,
    ) -> Self {
        Self::try_train(train, loss_kind, cfg, rng).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Phase one, with divergence surfaced as a structured
    /// [`TrainFailure`] (diagnosis plus completed-epoch history) instead
    /// of a panic — the entry point the experiment engine's
    /// fault-tolerant path goes through.
    pub fn try_train(
        train: &Dataset,
        loss_kind: LossKind,
        cfg: &PipelineConfig,
        rng: &mut Rng64,
    ) -> Result<Self, TrainFailure> {
        Self::try_train_ckpt(train, loss_kind, cfg, rng, None)
    }

    /// [`ThreePhase::try_train`] with epoch-granular crash safety: when a
    /// [`Checkpointer`] is supplied, phase one resumes from its newest
    /// valid `EOST` checkpoint and saves one at every due epoch boundary,
    /// so a killed backbone training re-pays only the epochs since the
    /// last checkpoint — and ends with byte-identical weights.
    pub fn try_train_ckpt(
        train: &Dataset,
        loss_kind: LossKind,
        cfg: &PipelineConfig,
        rng: &mut Rng64,
        checkpoint: Option<Checkpointer>,
    ) -> Result<Self, TrainFailure> {
        let t0 = Instant::now();
        let counts = train.class_counts();
        let mut net = ConvNet::new(cfg.arch, train.shape, train.num_classes, rng);
        let mut loss = loss_kind.build(&counts);
        let mut tc = backbone_schedule(cfg, loss_kind, &counts);
        tc.checkpoint = checkpoint;
        let drw = (loss_kind == LossKind::Ldam).then(|| effective_number_weights(0.999, &counts));
        let history = {
            let _phase1 = eos_trace::span("eos.phase1");
            try_train_epochs_resumable(&mut net, loss.as_mut(), &train.x, &train.y, &tc, drw, rng)?
        };
        let train_fe = {
            // Phase two starts with embedding extraction; the augmentation
            // half lives in [`ThreePhase::finetune_head`] and aggregates
            // into the same span node.
            let _phase2 = eos_trace::span("eos.phase2");
            extract_embeddings(&mut net, &train.x)
        };
        Ok(ThreePhase {
            net,
            train_fe,
            train_y: train.y.clone(),
            num_classes: train.num_classes,
            history,
            backbone_seconds: t0.elapsed().as_secs_f64(),
        })
    }

    /// Re-assembles a pipeline from previously produced parts — a
    /// restored backbone and its extracted train-set embeddings — without
    /// re-running phase one. This is the constructor artifact caches go
    /// through: everything downstream (baseline eval, head fine-tunes,
    /// gap reports) behaves bit-identically to the freshly trained
    /// pipeline the parts came from. The per-epoch history is empty and
    /// `backbone_seconds` is zero, because no training happened here.
    pub fn from_parts(
        net: ConvNet,
        train_fe: Tensor,
        train_y: Vec<usize>,
        num_classes: usize,
    ) -> Self {
        assert_eq!(
            train_fe.dim(0),
            train_y.len(),
            "embedding/label count mismatch"
        );
        assert_eq!(
            train_fe.dim(1),
            net.feature_dim(),
            "embedding width does not match the backbone"
        );
        ThreePhase {
            net,
            train_fe,
            train_y,
            num_classes,
            history: Vec::new(),
            backbone_seconds: 0.0,
        }
    }

    /// Evaluates the network as trained end-to-end (no head fine-tuning):
    /// the "Baseline" column of Table II.
    pub fn baseline_eval(&mut self, test: &Dataset) -> EvalResult {
        let mut r = evaluate(&mut self.net, test);
        r.seconds = self.backbone_seconds;
        r
    }

    /// Embeddings of an arbitrary set under the trained extractor.
    pub fn embed(&mut self, data: &Dataset) -> Tensor {
        extract_embeddings(&mut self.net, &data.x)
    }

    /// Phases two and three: balances the train embeddings with `sampler`
    /// (pass `None` for no augmentation), fine-tunes a freshly initialised
    /// classifier head on them with cross-entropy, and installs it.
    ///
    /// Returns the wall-clock seconds of the fine-tune.
    pub fn finetune_head(
        &mut self,
        sampler: Option<&dyn Oversampler>,
        cfg: &PipelineConfig,
        rng: &mut Rng64,
    ) -> f64 {
        let t0 = Instant::now();
        let (bx, by) = {
            // The augmentation half of phase two (same node as extraction).
            let _phase2 = eos_trace::span("eos.phase2");
            match sampler {
                Some(s) => balance_with(s, &self.train_fe, &self.train_y, self.num_classes, rng),
                None => (self.train_fe.clone(), self.train_y.clone()),
            }
        };
        let _phase3 = eos_trace::span("eos.phase3");
        let mut head = Linear::new(self.net.feature_dim(), self.num_classes, true, rng);
        let mut ce = CrossEntropyLoss::new();
        let tc = TrainConfig {
            epochs: cfg.head_epochs,
            batch_size: cfg.batch_size,
            lr: cfg.head_lr,
            momentum: cfg.momentum,
            weight_decay: cfg.weight_decay,
            schedule: None,
            drw_epoch: None,
            checkpoint: None,
        };
        let _ = train_epochs(&mut head, &mut ce, &bx, &by, &tc, None, rng);
        self.net.set_head(head);
        t0.elapsed().as_secs_f64()
    }

    /// [`ThreePhase::finetune_head`] followed by test evaluation; the
    /// reported seconds cover backbone + fine-tune (the paper's EOS
    /// run-time accounting).
    pub fn finetune_and_eval(
        &mut self,
        sampler: &dyn Oversampler,
        test: &Dataset,
        cfg: &PipelineConfig,
        rng: &mut Rng64,
    ) -> EvalResult {
        let ft = self.finetune_head(Some(sampler), cfg, rng);
        let mut r = evaluate(&mut self.net, test);
        r.seconds = self.backbone_seconds + ft;
        r
    }

    /// Generalization-gap report of the current backbone against a test
    /// set: per-class Algorithm 1 gaps plus the Figure 4 TP/FP split.
    pub fn gap_report(&mut self, test: &Dataset) -> (crate::gap::ClassGaps, crate::gap::GapReport) {
        let test_fe = extract_embeddings(&mut self.net, &test.x);
        let gaps = crate::gap::generalization_gap(
            &self.train_fe,
            &self.train_y,
            &test_fe,
            &test.y,
            self.num_classes,
        );
        let preds = evaluate(&mut self.net, test).predictions;
        let split = crate::gap::tp_fp_gap(
            &self.train_fe,
            &self.train_y,
            &test_fe,
            &test.y,
            &preds,
            self.num_classes,
        );
        (gaps, split)
    }

    /// Per-epoch train/test balanced accuracy while fine-tuning the head —
    /// the Figure 7 trace. Returns `(train_bac, test_bac)` per epoch.
    pub fn finetune_trace(
        &mut self,
        sampler: &dyn Oversampler,
        test: &Dataset,
        epochs: usize,
        cfg: &PipelineConfig,
        rng: &mut Rng64,
    ) -> Vec<(f64, f64)> {
        let (bx, by) = balance_with(
            sampler,
            &self.train_fe,
            &self.train_y,
            self.num_classes,
            rng,
        );
        let mut head = Linear::new(self.net.feature_dim(), self.num_classes, true, rng);
        let ce = CrossEntropyLoss::new();
        let mut opt = Sgd::new(cfg.head_lr, cfg.momentum, cfg.weight_decay);
        let n = by.len();
        let mut order: Vec<usize> = (0..n).collect();
        let test_fe = extract_embeddings(&mut self.net, &test.x);
        let mut trace = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            rng.shuffle(&mut order);
            for chunk in order.chunks(cfg.batch_size) {
                let cx = bx.select_rows(chunk);
                let cy: Vec<usize> = chunk.iter().map(|&i| by[i]).collect();
                head.zero_grad();
                let logits = head.forward(&cx, true);
                let (_, dl) = ce.loss_and_grad(&logits, &cy);
                head.backward_params(&dl);
                opt.step(&mut head.params());
            }
            let train_pred = head.forward(&self.train_fe, false).argmax_rows();
            let test_pred = head.forward(&test_fe, false).argmax_rows();
            let train_bac =
                ConfusionMatrix::from_predictions(&self.train_y, &train_pred, self.num_classes)
                    .balanced_accuracy();
            let test_bac = ConfusionMatrix::from_predictions(&test.y, &test_pred, test.num_classes)
                .balanced_accuracy();
            trace.push((train_bac, test_bac));
        }
        self.net.set_head(head);
        trace
    }
}

/// The pre-processing pipeline the paper compares against (Table I "Pre-"
/// rows, §V-E2 run-time): oversample in **pixel space**, then train the
/// full CNN end-to-end on the enlarged set. Returns the evaluation with
/// `seconds` covering the whole pipeline.
pub fn preprocess_and_train(
    train: &Dataset,
    test: &Dataset,
    loss_kind: LossKind,
    sampler: Option<&dyn Oversampler>,
    cfg: &PipelineConfig,
    rng: &mut Rng64,
) -> EvalResult {
    let t0 = Instant::now();
    let (bx, by) = match sampler {
        Some(s) => balance_with(s, &train.x, &train.y, train.num_classes, rng),
        None => (train.x.clone(), train.y.clone()),
    };
    let counts = {
        let mut c = vec![0usize; train.num_classes];
        for &l in &by {
            c[l] += 1;
        }
        c
    };
    let mut net = ConvNet::new(cfg.arch, train.shape, train.num_classes, rng);
    let mut loss = loss_kind.build(&counts);
    let tc = backbone_schedule(cfg, loss_kind, &counts);
    let drw = (loss_kind == LossKind::Ldam).then(|| effective_number_weights(0.999, &counts));
    let _ = train_epochs(&mut net, loss.as_mut(), &bx, &by, &tc, drw, rng);
    let mut r = evaluate(&mut net, test);
    r.seconds = t0.elapsed().as_secs_f64();
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eos::Eos;
    use eos_data::SynthSpec;
    use eos_resample::Smote;

    fn tiny_cfg() -> PipelineConfig {
        let mut cfg = PipelineConfig::small();
        cfg.arch = eos_nn::Architecture::ResNet {
            blocks_per_stage: 1,
            width: 4,
        };
        cfg.backbone_epochs = 8;
        cfg.head_epochs = 5;
        cfg
    }

    fn tiny_data() -> (Dataset, Dataset) {
        // A gentler profile than the paper's 40:1 so these unit tests
        // assert learning, not minority heroics (the benches do that).
        let mut spec = SynthSpec::celeba_like(1);
        spec.n_max_train = 40;
        spec.imbalance_ratio = 8.0;
        spec.n_test_per_class = 10;
        let (mut train, mut test) = spec.generate(11);
        let (mean, std) = train.feature_stats();
        train.standardize(&mean, &std);
        test.standardize(&mean, &std);
        (train, test)
    }

    #[test]
    fn three_phase_learns_something() {
        let (train, test) = tiny_data();
        let mut rng = Rng64::new(1);
        let cfg = tiny_cfg();
        let mut tp = ThreePhase::train(&train, LossKind::Ce, &cfg, &mut rng);
        let base = tp.baseline_eval(&test);
        // 5 classes, chance BAC = 0.2; the toy budget just needs to beat it.
        assert!(base.bac > 0.24, "baseline BAC {}", base.bac);
        assert_eq!(tp.train_fe.dim(0), train.len());
        assert_eq!(tp.train_fe.dim(1), tp.net.feature_dim());
    }

    #[test]
    fn finetune_keeps_or_improves_chance_level() {
        let (train, test) = tiny_data();
        let mut rng = Rng64::new(2);
        let cfg = tiny_cfg();
        let mut tp = ThreePhase::train(&train, LossKind::Ce, &cfg, &mut rng);
        let eos = tp.finetune_and_eval(&Eos::new(10), &test, &cfg, &mut rng);
        assert!(eos.bac > 0.24, "EOS BAC {}", eos.bac);
        assert_eq!(eos.predictions.len(), test.len());
        assert!(eos.seconds > 0.0);
    }

    #[test]
    fn finetune_trace_has_requested_length() {
        let (train, test) = tiny_data();
        let mut rng = Rng64::new(3);
        let cfg = tiny_cfg();
        let mut tp = ThreePhase::train(&train, LossKind::Ce, &cfg, &mut rng);
        let trace = tp.finetune_trace(&Smote::new(5), &test, 5, &cfg, &mut rng);
        assert_eq!(trace.len(), 5);
        for (tr, te) in trace {
            assert!((0.0..=1.0).contains(&tr) && (0.0..=1.0).contains(&te));
        }
    }

    #[test]
    fn preprocessing_pipeline_runs_and_is_slower_per_epoch() {
        let (train, test) = tiny_data();
        let mut rng = Rng64::new(4);
        let cfg = tiny_cfg();
        let pre = preprocess_and_train(
            &train,
            &test,
            LossKind::Ce,
            Some(&Smote::new(5)),
            &cfg,
            &mut rng,
        );
        assert!(pre.bac > 0.25, "pre BAC {}", pre.bac);
        assert!(pre.seconds > 0.0);
    }

    #[test]
    fn embeddings_are_batch_consistent() {
        let (train, _) = tiny_data();
        let mut rng = Rng64::new(5);
        let cfg = tiny_cfg();
        let mut tp = ThreePhase::train(&train, LossKind::Ce, &cfg, &mut rng);
        // Extracting twice must agree (inference mode, running stats).
        let again = extract_embeddings(&mut tp.net, &train.x);
        assert_eq!(tp.train_fe.data(), again.data());
    }

    #[test]
    fn ldam_drw_pipeline_runs() {
        // At this test's 8-epoch toy budget LDAM may not beat chance;
        // the assertion is that the DRW pipeline runs end-to-end, the
        // loss decreases and nothing diverges (the benches assert the
        // accuracy shape at experiment scale).
        let (train, test) = tiny_data();
        let mut rng = Rng64::new(6);
        let cfg = tiny_cfg();
        let mut tp = ThreePhase::train(&train, LossKind::Ldam, &cfg, &mut rng);
        let first = tp.history.first().unwrap().loss;
        let last = tp.history.last().unwrap().loss;
        assert!(first.is_finite() && last.is_finite());
        assert!(last < first, "LDAM loss should decrease: {first} -> {last}");
        let r = tp.baseline_eval(&test);
        assert!((0.0..=1.0).contains(&r.bac));
    }
}
