//! Fully-connected layer.

use crate::layer::{Layer, Param};
use eos_tensor::{kaiming_uniform, Rng64, Tensor};

/// Affine layer `y = x Wᵀ + b` with `W: (out, in)`.
///
/// The classifier head of the paper's framework is a single `Linear`; its
/// per-class row norms are what Figure 5 analyses.
pub struct Linear {
    weight: Param,
    bias: Option<Param>,
    in_features: usize,
    out_features: usize,
    cache_x: Option<Tensor>,
}

impl Linear {
    /// Kaiming-uniform initialised layer.
    pub fn new(in_features: usize, out_features: usize, bias: bool, rng: &mut Rng64) -> Self {
        assert!(in_features > 0 && out_features > 0);
        let weight = Param::new(kaiming_uniform(
            &[out_features, in_features],
            in_features,
            rng,
        ));
        let bias = bias.then(|| Param::new_no_decay(Tensor::zeros(&[out_features])));
        Linear {
            weight,
            bias,
            in_features,
            out_features,
            cache_x: None,
        }
    }

    /// Builds a layer from an explicit weight matrix (and optional bias) —
    /// used when re-assembling a fine-tuned classifier head.
    pub fn from_weights(weight: Tensor, bias: Option<Tensor>) -> Self {
        assert_eq!(weight.rank(), 2);
        let (out_features, in_features) = (weight.dim(0), weight.dim(1));
        if let Some(b) = &bias {
            assert_eq!(b.len(), out_features, "bias width mismatch");
        }
        Linear {
            weight: Param::new(weight),
            bias: bias.map(Param::new_no_decay),
            in_features,
            out_features,
            cache_x: None,
        }
    }

    /// The `(out, in)` weight matrix.
    pub fn weight(&self) -> &Tensor {
        &self.weight.value
    }

    /// The bias vector, when present.
    pub fn bias(&self) -> Option<&Tensor> {
        self.bias.as_ref().map(|p| &p.value)
    }

    /// L2 norm of each class row of the weight matrix — the quantity
    /// plotted in the paper's Figure 5.
    pub fn row_norms(&self) -> Vec<f32> {
        (0..self.out_features)
            .map(|i| {
                self.weight
                    .value
                    .row_slice(i)
                    .iter()
                    .map(|x| x * x)
                    .sum::<f32>()
                    .sqrt()
            })
            .collect()
    }

    /// Input width.
    pub fn in_features(&self) -> usize {
        self.in_features
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        assert_eq!(x.rank(), 2, "Linear expects (batch, features)");
        assert_eq!(
            x.dim(1),
            self.in_features,
            "Linear fed {} features, expected {}",
            x.dim(1),
            self.in_features
        );
        if train {
            self.cache_x = Some(x.clone());
        }
        let mut y = x.matmul_nt(&self.weight.value);
        if let Some(b) = &self.bias {
            y = y.add_row_broadcast(&b.value);
        }
        y
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        self.backward_params(grad);
        grad.matmul(&self.weight.value)
    }

    /// dW and db only, without the `grad · W` product for `dx`.
    fn backward_params(&mut self, grad: &Tensor) {
        let x = self
            .cache_x
            .as_ref()
            .expect("Linear::backward without a training forward");
        assert_eq!(grad.dims(), &[x.dim(0), self.out_features]);
        // dW = grad^T x ; db = column sums of grad.
        self.weight.grad.add_assign_(&grad.matmul_tn(x));
        if let Some(b) = &mut self.bias {
            b.grad.add_assign_(&grad.sum_rows());
        }
    }

    fn params(&mut self) -> Vec<&mut Param> {
        let mut ps = vec![&mut self.weight];
        if let Some(b) = &mut self.bias {
            ps.push(b);
        }
        ps
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        if let Some(b) = &mut self.bias {
            f(b);
        }
    }

    fn out_features(&self, in_features: usize) -> usize {
        assert_eq!(in_features, self.in_features);
        self.out_features
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eos_tensor::{central_difference, rel_error};

    fn loss_weights() -> Tensor {
        Tensor::from_vec(vec![0.7, -1.3, 0.2, 0.9, -0.4, 1.1], &[2, 3])
    }

    #[test]
    fn harness_gradcheck_with_and_without_bias() {
        use crate::gradcheck::gradcheck_layer;
        use eos_tensor::normal;
        let x = normal(&[3, 4], 0.0, 1.0, &mut Rng64::new(50));
        let c = normal(&[3, 2], 0.0, 1.0, &mut Rng64::new(51));
        for bias in [true, false] {
            let check = gradcheck_layer(
                "linear",
                &mut || Box::new(Linear::new(4, 2, bias, &mut Rng64::new(52))),
                &x,
                &c,
                1e-2,
            );
            assert_eq!(check.checks.len(), if bias { 3 } else { 2 });
            check.assert_below(1e-2);
        }
    }

    /// loss = <c, layer(x)> so dloss/dout = c; exercises all gradients.
    fn weighted_output_loss(layer: &mut Linear, x: &Tensor, c: &Tensor) -> f32 {
        layer.forward(x, true).dot(c)
    }

    #[test]
    fn forward_matches_manual() {
        let w = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![0.5, -0.5], &[2]);
        let mut l = Linear::from_weights(w, Some(b));
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]);
        let y = l.forward(&x, false);
        assert_eq!(y.data(), &[3.5, 6.5]);
    }

    #[test]
    fn gradcheck_weight_bias_and_input() {
        let mut rng = Rng64::new(1);
        let mut layer = Linear::new(4, 3, true, &mut rng);
        let x = eos_tensor::normal(&[2, 4], 0.0, 1.0, &mut rng);
        let c = loss_weights();

        // Analytic gradients.
        layer.zero_grad();
        let _ = layer.forward(&x, true);
        let dx = layer.backward(&c);

        // Numeric input gradient.
        let ndx = central_difference(&x, 1e-2, |p| {
            let mut l2 = Linear::from_weights(layer.weight().clone(), layer.bias().cloned());
            weighted_output_loss(&mut l2, p, &c)
        });
        assert!(rel_error(&dx, &ndx) < 1e-2, "input grad mismatch");

        // Numeric weight gradient.
        let w0 = layer.weight().clone();
        let ndw = central_difference(&w0, 1e-2, |wp| {
            let mut l2 = Linear::from_weights(wp.clone(), layer.bias().cloned());
            weighted_output_loss(&mut l2, &x, &c)
        });
        assert!(
            rel_error(&layer.params()[0].grad, &ndw) < 1e-2,
            "weight grad"
        );

        // Numeric bias gradient.
        let b0 = layer.bias().unwrap().clone();
        let ndb = central_difference(&b0, 1e-2, |bp| {
            let mut l2 = Linear::from_weights(layer.weight().clone(), Some(bp.clone()));
            weighted_output_loss(&mut l2, &x, &c)
        });
        assert!(rel_error(&layer.params()[1].grad, &ndb) < 1e-2, "bias grad");
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut rng = Rng64::new(2);
        let mut layer = Linear::new(2, 2, false, &mut rng);
        let x = Tensor::ones(&[1, 2]);
        let g = Tensor::ones(&[1, 2]);
        let _ = layer.forward(&x, true);
        let _ = layer.backward(&g);
        let once = layer.params()[0].grad.clone();
        let _ = layer.forward(&x, true);
        let _ = layer.backward(&g);
        let twice = layer.params()[0].grad.clone();
        assert_eq!(twice.data(), once.scale(2.0).data());
        layer.zero_grad();
        assert_eq!(layer.params()[0].grad.sum(), 0.0);
    }

    #[test]
    fn row_norms_match_weights() {
        let w = Tensor::from_vec(vec![3.0, 4.0, 0.0, 5.0], &[2, 2]);
        let l = Linear::from_weights(w, None);
        assert_eq!(l.row_norms(), vec![5.0, 5.0]);
    }

    #[test]
    fn param_count() {
        let mut rng = Rng64::new(3);
        let mut l = Linear::new(64, 10, true, &mut rng);
        assert_eq!(l.param_count(), 64 * 10 + 10);
    }

    #[test]
    #[should_panic(expected = "expected")]
    fn rejects_wrong_width() {
        let mut rng = Rng64::new(4);
        let mut l = Linear::new(3, 2, false, &mut rng);
        l.forward(&Tensor::ones(&[1, 4]), false);
    }
}
