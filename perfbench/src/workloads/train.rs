//! `train`: phase-1 backbone training, one minibatch step per op, run as
//! the trainer runs it: `select_rows` → `ConvNet::forward(train)` →
//! `loss_and_grad` → `backward` → `Sgd::step_visit`. Input: the CIFAR-10
//! analogue at small scale (ResNet 1×8, 3×8×8, batch 32, CE, SGD with
//! momentum). The nn/tensor training lowerings do almost all the work.

use super::{measure_serial, overhead_pct, same_bits, split_gap_pct, untraced};
use crate::rebuild::Rebuilt;
use crate::report::{Outcome, CHILDREN};
use crate::Opts;
use eos_core::{PipelineConfig, Scale};
use eos_nn::{
    load_weights, save_weights_bytes, Architecture, ConvNet, CrossEntropyLoss, Layer, Loss, Sgd,
};
use eos_tensor::{Rng64, Tensor};
use std::time::Instant;

/// The step state: network, optimiser and the epoch cursor over a
/// seeded shuffle of the training rows.
pub struct Train {
    net: ConvNet,
    loss: CrossEntropyLoss,
    opt: Sgd,
    x: Tensor,
    y: Vec<usize>,
    order: Vec<usize>,
    cursor: usize,
    rng: Rng64,
    shape: (usize, usize, usize),
    classes: usize,
    batch: usize,
    chunk: Vec<usize>,
    by: Vec<usize>,
}

/// The `(blocks_per_stage, width)` of the small-scale ResNet.
pub fn resnet_dims(cfg: &PipelineConfig) -> (usize, usize) {
    match cfg.arch {
        Architecture::ResNet {
            blocks_per_stage,
            width,
        } => (blocks_per_stage, width),
        other => panic!(
            "the benchmark expects a ResNet backbone, got {}",
            other.name()
        ),
    }
}

impl Train {
    /// Generates the data from `seed`, builds the network and runs one
    /// untimed warm-up step.
    pub fn setup(seed: u64) -> Train {
        let cfg = PipelineConfig::small();
        let (train, _) = eos_bench::prepared_dataset("cifar10", Scale::Small, seed);
        let mut rng = Rng64::new(seed);
        let net = ConvNet::new(cfg.arch, train.shape, train.num_classes, &mut rng);
        let mut s = Train {
            net,
            loss: CrossEntropyLoss::new(),
            opt: Sgd::new(cfg.lr, cfg.momentum, cfg.weight_decay),
            order: (0..train.len()).collect(),
            cursor: usize::MAX,
            x: train.x,
            y: train.y,
            rng,
            shape: train.shape,
            classes: train.num_classes,
            batch: cfg.batch_size,
            chunk: Vec::new(),
            by: Vec::new(),
        };
        s.op();
        s
    }

    /// Advances to the next full batch, reshuffling at each epoch end.
    fn next_batch(&mut self) {
        if self.cursor.saturating_add(self.batch) > self.order.len() {
            self.rng.shuffle(&mut self.order);
            self.cursor = 0;
        }
        self.chunk.clear();
        self.chunk
            .extend_from_slice(&self.order[self.cursor..self.cursor + self.batch]);
        self.by.clear();
        self.by.extend(self.chunk.iter().map(|&i| self.y[i]));
        self.cursor += self.batch;
    }

    /// The network being trained.
    pub fn net_mut(&mut self) -> &mut ConvNet {
        &mut self.net
    }

    /// One step; returns its milliseconds and whether the loss is finite.
    pub fn op(&mut self) -> (f64, bool) {
        self.next_batch();
        let t0 = Instant::now();
        let bx = self.x.select_rows(&self.chunk);
        self.net.zero_grad();
        let logits = self.net.forward(&bx, true);
        let (l, dlogits) = self.loss.loss_and_grad(&logits, &self.by);
        let _ = self.net.backward(&dlogits);
        self.opt.step_visit(&mut self.net);
        (t0.elapsed().as_secs_f64() * 1e3, l.is_finite())
    }
}

/// Untraced run: end-to-end metrics.
pub fn run(opts: &Opts) -> Outcome {
    // A step is dense f32 compute, whose slow stretches on the reference
    // host the calibration tracks: report the timings at reference speed.
    untraced(
        true,
        || Train::setup(opts.seed),
        |s| {
            let m = measure_serial(opts.seconds, 1, || s.op());
            let attempted = m.op_ms.len() as u64;
            (m, attempted)
        },
    )
}

/// Milliseconds accumulated per traced call.
#[derive(Default)]
struct Acc {
    select: f64,
    fwd: f64,
    loss: f64,
    bwd: f64,
    optim: f64,
    fwd_child: [f64; CHILDREN.len()],
    bwd_child: [f64; CHILDREN.len()],
}

/// Checks that the rebuilt child list reproduces `ConvNet` bit for bit
/// on `x`, through both `forward(train = false)` and `infer`.
pub fn rebuilt_matches_convnet(
    seed: u64,
    x: &Tensor,
    shape: (usize, usize, usize),
    classes: usize,
) -> bool {
    let cfg = PipelineConfig::small();
    let (bps, width) = resnet_dims(&cfg);
    let mut net = ConvNet::new(cfg.arch, shape, classes, &mut Rng64::new(seed));
    let mut rebuilt = Rebuilt::resnet(shape, bps, width, classes, &mut Rng64::new(seed));
    let mut ms = [0.0; CHILDREN.len()];
    let fwd = rebuilt.forward_timed(x, false, &mut ms);
    let inf = rebuilt.infer_timed(x, &mut ms);
    let names: Vec<&str> = rebuilt.children.iter().map(|c| c.name.as_str()).collect();
    names == CHILDREN
        && same_bits(fwd.data(), net.forward(x, false).data())
        && same_bits(inf.data(), net.infer(x).data())
}

/// Traced run: the step's public calls timed one by one, and a rebuilt
/// copy of the network stepped in lockstep with each child timed. Every
/// step asserts the copy's logits match the network's bit for bit.
pub fn traced(seed: u64, phase_s: f64) -> Outcome {
    let cfg = PipelineConfig::small();
    let mut s = Train::setup(seed);
    let (shape, classes) = (s.shape, s.classes);
    let probe = s.x.select_rows(&s.order[..s.batch]);
    let mut out = Outcome {
        correct: rebuilt_matches_convnet(seed, &probe, shape, classes),
        ..Outcome::default()
    };
    let untraced = measure_serial(phase_s, 1, || s.op());

    let (bps, width) = resnet_dims(&cfg);
    let mut copy = Rebuilt::resnet(shape, bps, width, classes, &mut Rng64::new(seed));
    let bytes = save_weights_bytes(&mut s.net);
    load_weights(&mut copy, &bytes[..]).expect("rebuilt list takes the network's weights");
    let mut copy_opt = Sgd::new(cfg.lr, cfg.momentum, cfg.weight_decay);
    copy_opt.set_velocity(s.opt.velocity().to_vec());
    let mut acc = Acc::default();
    eos_trace::set_enabled(true);
    let traced = measure_serial(phase_s, 1, || {
        s.next_batch();
        let t0 = Instant::now();
        let bx = s.x.select_rows(&s.chunk);
        let t1 = Instant::now();
        s.net.zero_grad();
        let t2 = Instant::now();
        let logits = s.net.forward(&bx, true);
        let t3 = Instant::now();
        let (l, dlogits) = s.loss.loss_and_grad(&logits, &s.by);
        let t4 = Instant::now();
        let _ = s.net.backward(&dlogits);
        let t5 = Instant::now();
        s.opt.step_visit(&mut s.net);
        let t6 = Instant::now();
        let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
        acc.select += ms(t0, t1);
        acc.optim += ms(t1, t2) + ms(t5, t6);
        acc.fwd += ms(t2, t3);
        acc.loss += ms(t3, t4);
        acc.bwd += ms(t4, t5);

        copy.zero_grad();
        let copy_logits = copy.forward_timed(&bx, true, &mut acc.fwd_child);
        let (_, copy_dlogits) = s.loss.loss_and_grad(&copy_logits, &s.by);
        let _ = copy.backward_timed(&copy_dlogits, &mut acc.bwd_child);
        copy_opt.step_visit(&mut copy);
        let ok = l.is_finite() && same_bits(copy_logits.data(), logits.data());
        (ms(t0, t6), ok)
    });
    eos_trace::set_enabled(false);

    let n = traced.op_ms.len().max(1) as f64;
    out.attempted = traced.op_ms.len() as u64;
    out.failed = traced.failed;
    out.correct &= traced.failed == 0;
    out.push("train.tensor.select_ms", acc.select / n);
    out.push("train.nn.fwd_ms", acc.fwd / n);
    out.push("train.nn.loss_ms", acc.loss / n);
    out.push("train.nn.bwd_ms", acc.bwd / n);
    out.push("train.nn.optim_ms", acc.optim / n);
    let flops = 3.0 * copy.fwd_flops_per_row as f64 * s.batch as f64;
    out.push(
        "train.nn.train_gflops",
        flops / ((acc.fwd + acc.bwd) / n / 1e3) / 1e9,
    );
    for (pass, child_ms, whole) in [
        ("fwd", &acc.fwd_child, acc.fwd),
        ("bwd", &acc.bwd_child, acc.bwd),
    ] {
        for (child, t) in CHILDREN.iter().zip(child_ms) {
            out.push(format!("train.nn.{pass}.{child}_ms"), t / n);
        }
        out.push(
            format!("train.nn.{pass}.split_gap_pct"),
            split_gap_pct(whole, child_ms.iter().sum()),
        );
    }
    out.push(
        "train.trace.overhead_pct",
        overhead_pct(untraced.ops_per_s(), traced.ops_per_s()),
    );
    out
}
