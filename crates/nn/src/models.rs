//! Full classification networks: a feature extractor plus a linear
//! classifier head, kept separable because the paper's three-phase
//! framework trains them at different times.

use crate::activation::Relu;
use crate::layer::{Layer, Param};
use crate::linear::Linear;
use crate::resnet::{densenet_lite, resnet_cifar, wide_resnet};
use crate::sequential::Sequential;
use eos_tensor::{Rng64, Tensor};

/// The CNN architecture families evaluated in the paper (Table V), with
/// reproduction-scale hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Architecture {
    /// CIFAR-style ResNet: `blocks_per_stage` blocks × 3 stages, base
    /// `width`. The paper's ResNet-32 is `{blocks_per_stage: 5, width: 16}`.
    ResNet {
        /// Residual blocks per stage.
        blocks_per_stage: usize,
        /// Base channel width (feature dim is 4×width).
        width: usize,
    },
    /// Wide residual network with width multiplier `k`.
    WideResNet {
        /// Width multiplier.
        k: usize,
    },
    /// Densely connected network with the given growth rate.
    DenseNet {
        /// Channels added per dense layer.
        growth: usize,
        /// Dense layers per block.
        layers_per_block: usize,
    },
}

impl Architecture {
    /// Short name used in experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            Architecture::ResNet { .. } => "ResNet",
            Architecture::WideResNet { .. } => "WideResNet",
            Architecture::DenseNet { .. } => "DenseNet",
        }
    }

    /// Builds the feature extractor for `in_shape = (C, H, W)` and returns
    /// it with its embedding width.
    fn build_features(
        &self,
        in_shape: (usize, usize, usize),
        rng: &mut Rng64,
    ) -> (Sequential, usize) {
        match *self {
            Architecture::ResNet {
                blocks_per_stage,
                width,
            } => resnet_cifar(in_shape, blocks_per_stage, width, rng),
            Architecture::WideResNet { k } => wide_resnet(in_shape, k, rng),
            Architecture::DenseNet {
                growth,
                layers_per_block,
            } => densenet_lite(in_shape, growth, layers_per_block, rng),
        }
    }
}

/// A feature extractor and a linear classifier head.
///
/// This is the decomposition of Figure 2: `features` produces the *feature
/// embeddings* (FE) at the penultimate layer; `head` maps them to logits.
/// The three-phase framework trains the whole network end-to-end, then
/// freezes `features` and fine-tunes a fresh `head` on augmented FEs.
pub struct ConvNet {
    /// Extraction layers `f_θ` (ends with global average pooling).
    pub features: Sequential,
    /// Classification layer `W_c`.
    pub head: Linear,
    feature_dim: usize,
}

impl ConvNet {
    /// Builds a network for `in_shape = (C, H, W)` inputs and `classes`
    /// outputs.
    pub fn new(
        arch: Architecture,
        in_shape: (usize, usize, usize),
        classes: usize,
        rng: &mut Rng64,
    ) -> Self {
        let (features, feature_dim) = arch.build_features(in_shape, rng);
        let head = Linear::new(feature_dim, classes, true, rng);
        ConvNet {
            features,
            head,
            feature_dim,
        }
    }

    /// Embedding width `d` of the penultimate layer.
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    /// Full forward pass to logits.
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let fe = self.features.forward(x, train);
        self.head.forward(&fe, train)
    }

    /// Feature embeddings only (inference mode, no caching) — phase two of
    /// the framework extracts these for the whole train and test sets.
    pub fn embed(&mut self, x: &Tensor) -> Tensor {
        self.features.forward(x, false)
    }

    /// Forward-only inference to logits: eval-mode batch norm, inert
    /// dropout, no backward caches. The serving engine's entry point.
    pub fn infer(&mut self, x: &Tensor) -> Tensor {
        self.forward(x, false)
    }

    /// Backward pass from ∂loss/∂logits through head and features,
    /// accumulating every parameter gradient. Training discards the
    /// gradient with respect to the images, so it is not computed: the
    /// features' first layer runs [`Layer::backward_params`].
    /// [`Layer::backward`] on a `ConvNet` returns that gradient too.
    pub fn backward(&mut self, dlogits: &Tensor) {
        let dfe = self.head.backward(dlogits);
        self.features.backward_params(&dfe);
    }

    /// All trainable parameters (features then head).
    pub fn params(&mut self) -> Vec<&mut Param> {
        let mut ps = self.features.params();
        ps.extend(self.head.params());
        ps
    }

    /// [`Layer::visit_params`] over features then head, allocation-free.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.features.visit_params(f);
        self.head.visit_params(f);
    }

    /// Zeroes all gradients.
    pub fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.grad.fill_(0.0));
    }

    /// Total scalar parameter count.
    pub fn param_count(&mut self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// Replaces the classifier head (phase three re-assembly).
    pub fn set_head(&mut self, head: Linear) {
        assert_eq!(head.in_features(), self.feature_dim, "head width mismatch");
        self.head = head;
    }
}

impl Layer for ConvNet {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        ConvNet::forward(self, x, train)
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let dfe = self.head.backward(grad);
        self.features.backward(&dfe)
    }

    fn backward_params(&mut self, grad: &Tensor) {
        ConvNet::backward(self, grad);
    }

    fn params(&mut self) -> Vec<&mut Param> {
        ConvNet::params(self)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        ConvNet::visit_params(self, f);
    }

    fn out_features(&self, in_features: usize) -> usize {
        let fe = self.features.out_features(in_features);
        self.head.out_features(fe)
    }

    fn extra_state(&self) -> Vec<f32> {
        self.features.extra_state()
    }

    fn load_extra_state(&mut self, state: &[f32]) {
        self.features.load_extra_state(state);
    }
}

/// Builds an MLP with ReLU hidden activations: `dims = [in, h1, ..., out]`.
/// No activation after the final layer. Used by the classifier-retraining
/// variants and the GAN baselines.
pub fn mlp(dims: &[usize], rng: &mut Rng64) -> Sequential {
    assert!(dims.len() >= 2, "mlp needs at least input and output dims");
    let mut net = Sequential::empty();
    for i in 0..dims.len() - 1 {
        net.push(Box::new(Linear::new(dims[i], dims[i + 1], true, rng)));
        if i + 2 < dims.len() {
            net.push(Box::new(Relu::new()));
        }
    }
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use eos_tensor::normal;

    fn tiny() -> Architecture {
        Architecture::ResNet {
            blocks_per_stage: 1,
            width: 4,
        }
    }

    #[test]
    fn convnet_shapes() {
        let mut rng = Rng64::new(0);
        let mut net = ConvNet::new(tiny(), (3, 8, 8), 5, &mut rng);
        assert_eq!(net.feature_dim(), 16);
        let x = normal(&[2, 3 * 64], 0.0, 1.0, &mut rng);
        assert_eq!(net.forward(&x, false).dims(), &[2, 5]);
        assert_eq!(net.embed(&x).dims(), &[2, 16]);
    }

    #[test]
    fn backward_produces_input_grad() {
        let mut rng = Rng64::new(1);
        let mut net = ConvNet::new(tiny(), (3, 8, 8), 3, &mut rng);
        let x = normal(&[2, 3 * 64], 0.0, 1.0, &mut rng);
        let logits = net.forward(&x, true);
        let dx = Layer::backward(&mut net, &Tensor::ones(logits.dims()));
        assert_eq!(dx.dims(), x.dims());
        assert!(dx.all_finite());
    }

    #[test]
    fn set_head_swaps_classifier() {
        let mut rng = Rng64::new(2);
        let mut net = ConvNet::new(tiny(), (3, 8, 8), 3, &mut rng);
        let w = Tensor::zeros(&[3, net.feature_dim()]);
        net.set_head(Linear::from_weights(w, None));
        let x = normal(&[1, 3 * 64], 0.0, 1.0, &mut rng);
        assert_eq!(net.forward(&x, false).data(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "head width mismatch")]
    fn set_head_rejects_wrong_width() {
        let mut rng = Rng64::new(3);
        let mut net = ConvNet::new(tiny(), (3, 8, 8), 3, &mut rng);
        net.set_head(Linear::from_weights(Tensor::zeros(&[3, 7]), None));
    }

    #[test]
    fn visit_params_matches_params_on_every_architecture() {
        // `visit_params` is the allocation-free twin of `params`; if a
        // layer implements one without the other, the optimiser would
        // silently skip (or double-count) its parameters. Pointer-compare
        // the two traversals over every architecture family.
        let mut rng = Rng64::new(40);
        for arch in [
            tiny(),
            Architecture::WideResNet { k: 1 },
            Architecture::DenseNet {
                growth: 4,
                layers_per_block: 2,
            },
        ] {
            let mut net = ConvNet::new(arch, (3, 8, 8), 3, &mut rng);
            let mut visited: Vec<*const Param> = Vec::new();
            net.visit_params(&mut |p| visited.push(p as *const Param));
            let direct: Vec<*const Param> = net
                .params()
                .into_iter()
                .map(|p| p as *const Param)
                .collect();
            assert_eq!(visited, direct, "{}", arch.name());
        }
    }

    #[test]
    fn all_architectures_build_and_run() {
        let mut rng = Rng64::new(4);
        for arch in [
            tiny(),
            Architecture::WideResNet { k: 1 },
            Architecture::DenseNet {
                growth: 4,
                layers_per_block: 2,
            },
        ] {
            let mut net = ConvNet::new(arch, (3, 8, 8), 4, &mut rng);
            let x = normal(&[2, 3 * 64], 0.0, 1.0, &mut rng);
            let y = net.forward(&x, false);
            assert_eq!(y.dims(), &[2, 4], "{}", arch.name());
            assert!(y.all_finite());
        }
    }

    #[test]
    fn mlp_builder() {
        let mut rng = Rng64::new(5);
        let mut net = mlp(&[4, 8, 8, 2], &mut rng);
        let y = net.forward(&Tensor::ones(&[3, 4]), false);
        assert_eq!(y.dims(), &[3, 2]);
        // linear-relu-linear-relu-linear = 5 layers
        assert_eq!(net.len(), 5);
    }
}
