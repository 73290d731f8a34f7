//! Ordered container of layers.

use crate::layer::{Layer, Param};
use eos_tensor::Tensor;

/// Runs layers in order on forward, in reverse on backward.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Wraps an ordered list of layers.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Sequential { layers }
    }

    /// An empty container to be extended with [`Sequential::push`].
    pub fn empty() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True when the container holds no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Layer for Sequential {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let mut h = x.clone();
        for layer in &mut self.layers {
            h = layer.forward(&h, train);
        }
        h
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let mut g = grad.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    /// [`Layer::backward`] through every layer but the first, which only
    /// accumulates its parameter gradients.
    fn backward_params(&mut self, grad: &Tensor) {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return;
        };
        let mut g: Option<Tensor> = None;
        for layer in rest.iter_mut().rev() {
            g = Some(layer.backward(g.as_ref().unwrap_or(grad)));
        }
        first.backward_params(g.as_ref().unwrap_or(grad));
    }

    fn params(&mut self) -> Vec<&mut Param> {
        self.layers.iter_mut().flat_map(|l| l.params()).collect()
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for l in &mut self.layers {
            l.visit_params(f);
        }
    }

    fn out_features(&self, in_features: usize) -> usize {
        self.layers
            .iter()
            .fold(in_features, |w, l| l.out_features(w))
    }

    fn extra_state(&self) -> Vec<f32> {
        self.layers.iter().flat_map(|l| l.extra_state()).collect()
    }

    fn load_extra_state(&mut self, state: &[f32]) {
        let mut offset = 0;
        for layer in &mut self.layers {
            let len = layer.extra_state().len();
            layer.load_extra_state(&state[offset..offset + len]);
            offset += len;
        }
        assert_eq!(offset, state.len(), "leftover extra state");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Relu;
    use crate::linear::Linear;
    use eos_tensor::{central_difference, normal, rel_error, Rng64};

    fn mlp(rng: &mut Rng64) -> Sequential {
        Sequential::new(vec![
            Box::new(Linear::new(3, 5, true, rng)),
            Box::new(Relu::new()),
            Box::new(Linear::new(5, 2, true, rng)),
        ])
    }

    #[test]
    fn forward_chains_shapes() {
        let mut rng = Rng64::new(0);
        let mut net = mlp(&mut rng);
        let y = net.forward(&Tensor::ones(&[4, 3]), false);
        assert_eq!(y.dims(), &[4, 2]);
        assert_eq!(net.out_features(3), 2);
    }

    #[test]
    fn params_collects_all_layers() {
        let mut rng = Rng64::new(0);
        let mut net = mlp(&mut rng);
        assert_eq!(net.params().len(), 4); // two weights, two biases
        assert_eq!(net.param_count(), 3 * 5 + 5 + 5 * 2 + 2);
    }

    #[test]
    fn end_to_end_gradcheck_through_container() {
        let mut rng = Rng64::new(10);
        let x = normal(&[2, 3], 0.0, 1.0, &mut rng);
        let c = normal(&[2, 2], 0.0, 1.0, &mut rng);
        let mut net = mlp(&mut Rng64::new(77));
        let _ = net.forward(&x, true);
        let dx = net.backward(&c);
        let ndx = central_difference(&x, 1e-2, |p| {
            mlp(&mut Rng64::new(77)).forward(p, false).dot(&c)
        });
        assert!(rel_error(&dx, &ndx) < 1e-2);
    }
}
