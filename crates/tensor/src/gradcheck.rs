//! Finite-difference gradient checking helpers.
//!
//! Every layer in `eos-nn` is verified against central differences; these
//! are the shared utilities those tests use.

use crate::tensor::Tensor;

/// Numerically estimates `d loss / d params` by central differences.
///
/// `loss` is evaluated with perturbed copies of `params`; the returned
/// tensor has the same shape as `params`.
pub fn central_difference(
    params: &Tensor,
    eps: f32,
    mut loss: impl FnMut(&Tensor) -> f32,
) -> Tensor {
    assert!(eps > 0.0, "eps must be positive");
    let mut grad = Tensor::zeros(params.dims());
    let mut probe = params.clone();
    for i in 0..params.len() {
        let orig = probe.data()[i];
        probe.data_mut()[i] = orig + eps;
        let up = loss(&probe);
        probe.data_mut()[i] = orig - eps;
        let down = loss(&probe);
        probe.data_mut()[i] = orig;
        grad.data_mut()[i] = (up - down) / (2.0 * eps);
    }
    grad
}

/// Scale-invariant relative error between an analytic and a numeric
/// gradient: `|a - b| / max(1, |a|, |b|)`, maximised over elements.
pub fn rel_error(analytic: &Tensor, numeric: &Tensor) -> f32 {
    assert_eq!(analytic.dims(), numeric.dims());
    analytic
        .data()
        .iter()
        .zip(numeric.data())
        .map(|(&a, &n)| (a - n).abs() / a.abs().max(n.abs()).max(1.0))
        .fold(0.0, f32::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_gradient_of_quadratic() {
        // loss(x) = sum(x_i^2) has gradient 2x.
        let x = Tensor::from_vec(vec![1.0, -2.0, 0.5], &[3]);
        let g = central_difference(&x, 1e-3, |p| p.data().iter().map(|v| v * v).sum());
        let expected = x.scale(2.0);
        assert!(rel_error(&expected, &g) < 1e-3);
    }

    #[test]
    fn recovers_gradient_of_linear_form() {
        // loss(x) = c . x has gradient c.
        let c = [0.3f32, -0.7, 2.0, 0.0];
        let x = Tensor::zeros(&[4]);
        let g = central_difference(&x, 1e-3, |p| {
            p.data().iter().zip(&c).map(|(a, b)| a * b).sum()
        });
        for (gi, ci) in g.data().iter().zip(&c) {
            assert!((gi - ci).abs() < 1e-4);
        }
    }

    #[test]
    fn rel_error_is_zero_for_identical() {
        let t = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        assert_eq!(rel_error(&t, &t.clone()), 0.0);
    }
}
