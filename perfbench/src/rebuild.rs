//! Copies of library compositions whose parts the library keeps private,
//! rebuilt from public constructors so the traced run can time each part.
//!
//! [`Rebuilt`] is the ResNet backbone plus head as a flat list of named
//! children: `Sequential` hides its layers, so per-child timing needs its
//! own copy of the network. Built in `resnet_cifar`'s RNG order, it holds
//! the same weights as `ConvNet::new` given the same seed, and the tests
//! (and every traced run) assert its logits are bit-identical.
//! [`finetune_head`] is `ThreePhase::finetune_head` split into its
//! `balance_with` / `Linear::new` / `train_epochs` calls.

use eos_core::PipelineConfig;
use eos_nn::{
    train_epochs, BasicBlock, BatchNorm2d, Conv2d, CrossEntropyLoss, GlobalAvgPool, Layer, Linear,
    Param, Relu, TrainConfig,
};
use eos_resample::{balance_with, Oversampler};
use eos_tensor::{Conv2dGeometry, Rng64, Tensor};
use std::time::Instant;

/// One named child of the rebuilt network.
pub struct Child {
    /// Metric name of the child (`stem-conv`, `block2`, `head`, ...).
    pub name: String,
    /// The layer itself.
    pub layer: Box<dyn Layer>,
}

/// The ResNet feature extractor and its linear head as one flat list.
pub struct Rebuilt {
    /// Children in forward order; the last is the head.
    pub children: Vec<Child>,
    /// Multiply-add FLOPs of one row's forward through the convolutions
    /// and the head (batch norm, ReLU and pooling are not counted).
    pub fwd_flops_per_row: u64,
}

fn conv_flops(g: &Conv2dGeometry, out_c: usize) -> u64 {
    (2 * out_c * g.out_height() * g.out_width() * g.in_channels * g.kernel * g.kernel) as u64
}

impl Rebuilt {
    /// The children of `ConvNet::new(Architecture::ResNet { blocks_per_stage,
    /// width }, in_shape, classes, rng)`, constructed in the same order
    /// from the same `rng`, so the weights come out identical.
    pub fn resnet(
        in_shape: (usize, usize, usize),
        blocks_per_stage: usize,
        width: usize,
        classes: usize,
        rng: &mut Rng64,
    ) -> Self {
        let (c, h, w) = in_shape;
        let mut children = Vec::new();
        let mut push = |name: String, layer: Box<dyn Layer>| children.push(Child { name, layer });
        let stem = Conv2dGeometry {
            in_channels: c,
            height: h,
            width: w,
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        let mut flops = conv_flops(&stem, width);
        push(
            "stem-conv".into(),
            Box::new(Conv2d::new(stem, width, false, rng)),
        );
        push("stem-bn".into(), Box::new(BatchNorm2d::new(width, h * w)));
        push("stem-relu".into(), Box::new(Relu::new()));
        let (mut cur_c, mut cur_h, mut cur_w) = (width, h, w);
        let mut block = 0;
        for stage in 0..3 {
            let out_c = width << stage;
            for b in 0..blocks_per_stage {
                let stride = if stage > 0 && b == 0 { 2 } else { 1 };
                let (oh, ow) = (cur_h / stride, cur_w / stride);
                let per_pos = 2 * out_c * oh * ow * 9;
                flops += (per_pos * cur_c + per_pos * out_c) as u64;
                if stride != 1 || cur_c != out_c {
                    flops += (2 * out_c * oh * ow * cur_c) as u64;
                }
                block += 1;
                push(
                    format!("block{block}"),
                    Box::new(BasicBlock::new(cur_c, out_c, cur_h, cur_w, stride, rng)),
                );
                (cur_c, cur_h, cur_w) = (out_c, oh, ow);
            }
        }
        push(
            "gap".into(),
            Box::new(GlobalAvgPool::new(cur_c, cur_h * cur_w)),
        );
        flops += (2 * cur_c * classes) as u64;
        push(
            "head".into(),
            Box::new(Linear::new(cur_c, classes, true, rng)),
        );
        Rebuilt {
            children,
            fwd_flops_per_row: flops,
        }
    }

    /// Forward through every child, adding each child's milliseconds to
    /// `ms[i]`.
    pub fn forward_timed(&mut self, x: &Tensor, train: bool, ms: &mut [f64]) -> Tensor {
        let mut h = x.clone();
        for (child, t) in self.children.iter_mut().zip(ms) {
            let t0 = Instant::now();
            h = child.layer.forward(&h, train);
            *t += t0.elapsed().as_secs_f64() * 1e3;
        }
        h
    }

    /// Eval-only forward (`Layer::infer`) child by child, as
    /// [`Rebuilt::forward_timed`].
    pub fn infer_timed(&mut self, x: &Tensor, ms: &mut [f64]) -> Tensor {
        let mut h = x.clone();
        for (child, t) in self.children.iter_mut().zip(ms) {
            let t0 = Instant::now();
            h = child.layer.infer(&h);
            *t += t0.elapsed().as_secs_f64() * 1e3;
        }
        h
    }

    /// Backward through the children in reverse, adding each child's
    /// milliseconds to `ms[i]` (indexed in forward order).
    pub fn backward_timed(&mut self, grad: &Tensor, ms: &mut [f64]) -> Tensor {
        let mut g = grad.clone();
        for (child, t) in self.children.iter_mut().zip(ms).rev() {
            let t0 = Instant::now();
            g = child.layer.backward(&g);
            *t += t0.elapsed().as_secs_f64() * 1e3;
        }
        g
    }
}

/// Parameter, state and shape plumbing in `ConvNet`'s order (features
/// then head), so `Sgd::step_visit` and `EOSW` weight blobs treat the
/// rebuilt list exactly like the network it copies.
impl Layer for Rebuilt {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let mut ms = vec![0.0; self.children.len()];
        self.forward_timed(x, train, &mut ms)
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let mut ms = vec![0.0; self.children.len()];
        self.backward_timed(grad, &mut ms)
    }

    fn params(&mut self) -> Vec<&mut Param> {
        self.children
            .iter_mut()
            .flat_map(|c| c.layer.params())
            .collect()
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for c in &mut self.children {
            c.layer.visit_params(f);
        }
    }

    fn out_features(&self, in_features: usize) -> usize {
        self.children
            .iter()
            .fold(in_features, |w, c| c.layer.out_features(w))
    }

    fn extra_state(&self) -> Vec<f32> {
        self.children
            .iter()
            .flat_map(|c| c.layer.extra_state())
            .collect()
    }

    fn load_extra_state(&mut self, state: &[f32]) {
        let mut offset = 0;
        for c in &mut self.children {
            let len = c.layer.extra_state().len();
            c.layer.load_extra_state(&state[offset..offset + len]);
            offset += len;
        }
        assert_eq!(offset, state.len(), "leftover extra state");
    }
}

/// Milliseconds spent in each call of a rebuilt head fine-tune.
#[derive(Debug, Clone, Copy, Default)]
pub struct FinetuneSplit {
    /// `balance_with` (phase two's augmentation half).
    pub balance_ms: f64,
    /// `Linear::new` plus `train_epochs` (phase three).
    pub train_ms: f64,
    /// Rows the head trained on.
    pub rows: usize,
}

/// `ThreePhase::finetune_head(Some(sampler), cfg, rng)` rebuilt from its
/// public calls: same calls, same order, same RNG stream, so the returned
/// head is bit-identical to the one `finetune_head` installs. Also
/// returns the balanced training labels for inspection.
pub fn finetune_head(
    train_fe: &Tensor,
    train_y: &[usize],
    num_classes: usize,
    sampler: &dyn Oversampler,
    cfg: &PipelineConfig,
    rng: &mut Rng64,
) -> (Linear, Vec<usize>, FinetuneSplit) {
    let t0 = Instant::now();
    let (bx, by) = balance_with(sampler, train_fe, train_y, num_classes, rng);
    let t1 = Instant::now();
    let mut head = Linear::new(train_fe.dim(1), num_classes, true, rng);
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
    let split = FinetuneSplit {
        balance_ms: (t1 - t0).as_secs_f64() * 1e3,
        train_ms: t1.elapsed().as_secs_f64() * 1e3,
        rows: by.len(),
    };
    (head, by, split)
}
