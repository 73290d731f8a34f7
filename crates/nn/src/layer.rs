//! The [`Layer`] trait and trainable [`Param`] type.

use eos_tensor::Tensor;

/// A trainable parameter: its current value and accumulated gradient.
#[derive(Debug, Clone)]
pub struct Param {
    /// Current value.
    pub value: Tensor,
    /// Gradient accumulated by the most recent backward pass(es).
    pub grad: Tensor,
    /// Whether weight decay applies (disabled for norms' scale/shift).
    pub decay: bool,
}

impl Param {
    /// Wraps an initial value with a zeroed gradient; weight decay on.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.dims());
        Param {
            value,
            grad,
            decay: true,
        }
    }

    /// Wraps an initial value exempt from weight decay.
    pub fn new_no_decay(value: Tensor) -> Self {
        let mut p = Self::new(value);
        p.decay = false;
        p
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// True when the parameter holds no scalars.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

/// A differentiable network component.
///
/// Layers own their parameters and the activation caches the backward pass
/// needs, so `forward` and `backward` take `&mut self`. Calling `backward`
/// is only valid immediately after a `forward` with `train = true`;
/// gradients *accumulate* into [`Param::grad`] until [`Layer::zero_grad`].
pub trait Layer {
    /// Computes the layer output for a `(batch, features)` input.
    ///
    /// `train` selects training-mode behaviour (batch statistics, caching
    /// for backward); inference mode uses running statistics and may skip
    /// caching.
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor;

    /// Propagates `grad` (∂loss/∂output) backwards, accumulating parameter
    /// gradients and returning ∂loss/∂input.
    fn backward(&mut self, grad: &Tensor) -> Tensor;

    /// [`Layer::backward`] for a caller that discards ∂loss/∂input: it
    /// must accumulate exactly the parameter gradients `backward` would,
    /// bit for bit, and may skip computing the input gradient. Containers
    /// call it on their first layer, and trainers on the whole network,
    /// since nothing reads the gradient with respect to the data.
    fn backward_params(&mut self, grad: &Tensor) {
        let _ = self.backward(grad);
    }

    /// Forward-only inference entry: eval-mode behaviour (batch norm uses
    /// running statistics, dropout is the identity) with no backward
    /// caching. This is the path the serving engine drives; it must leave
    /// every observable output of the layer a pure function of the input
    /// and the loaded weights.
    fn infer(&mut self, x: &Tensor) -> Tensor {
        self.forward(x, false)
    }

    /// Mutable access to all trainable parameters, in a stable order.
    fn params(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Calls `f` on every trainable parameter in the same stable order as
    /// [`Layer::params`], without building a `Vec`. The training hot path
    /// (gradient zeroing, optimiser steps) goes through this so a
    /// steady-state step stays allocation-free; layers with parameters
    /// must override it alongside `params`.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        let _ = f;
    }

    /// Zeroes all accumulated gradients.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.grad.fill_(0.0));
    }

    /// Total number of scalar trainable parameters.
    fn param_count(&mut self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// Output feature width given an input feature width, used by
    /// container layers for shape validation and by model builders.
    fn out_features(&self, in_features: usize) -> usize;

    /// Non-trainable state that inference depends on (batch-norm running
    /// statistics). Containers concatenate their children's state in
    /// layer order. Used by weight serialization.
    fn extra_state(&self) -> Vec<f32> {
        Vec::new()
    }

    /// Restores state produced by [`Layer::extra_state`]. The default
    /// accepts only an empty slice.
    fn load_extra_state(&mut self, state: &[f32]) {
        assert!(
            state.is_empty(),
            "layer has no extra state but received {} values",
            state.len()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_starts_with_zero_grad() {
        let p = Param::new(Tensor::ones(&[2, 3]));
        assert_eq!(p.grad.sum(), 0.0);
        assert_eq!(p.len(), 6);
        assert!(p.decay);
        assert!(!Param::new_no_decay(Tensor::ones(&[1])).decay);
    }
}
