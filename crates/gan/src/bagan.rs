//! BAGAN-lite: autoencoder-based class-conditional generation.

use eos_nn::{clip_grad_norm, mlp, Layer, Sequential, Sgd};
use eos_resample::{deficits, indices_by_class, Oversampler};
use eos_tensor::{Rng64, Tensor};

/// Mean-squared reconstruction error over all elements and its gradient
/// with respect to `recon`: `L = Σ (r − t)² / n`, `∂L/∂r = 2 (r − t) / n`
/// with `n` the element count — the criterion BAGAN's autoencoder trains
/// under, factored out so the `check_numerics` gate can verify it like
/// the classification losses.
pub fn mse_loss_and_grad(recon: &Tensor, target: &Tensor) -> (f32, Tensor) {
    assert_eq!(recon.dims(), target.dims(), "MSE shape mismatch");
    let diff = recon.sub(target);
    let scale = 1.0 / recon.len().max(1) as f32;
    let loss = diff.dot(&diff) * scale;
    (loss, diff.scale(2.0 * scale))
}

/// BAGAN-style oversampler, reduced to its load-bearing mechanism: learn a
/// single autoencoder on *all* classes (BAGAN's initialisation trick),
/// model each class as a Gaussian in the learned latent space, and decode
/// class-conditional latent samples into synthetic instances.
///
/// Like the original, generation follows the class's global distribution
/// and is blind to decision boundaries — the failure mode Table III
/// exposes against EOS.
pub struct BaganLite {
    /// Latent width of the autoencoder.
    pub latent: usize,
    /// Hidden width of encoder/decoder.
    pub hidden: usize,
    /// Reconstruction training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Learning rate.
    pub lr: f32,
}

impl BaganLite {
    /// Experiment-scale budget.
    pub fn new() -> Self {
        BaganLite {
            latent: 8,
            hidden: 32,
            epochs: 30,
            batch: 16,
            lr: 0.02,
        }
    }

    /// Minimal budget for tests.
    pub fn fast() -> Self {
        BaganLite {
            latent: 4,
            hidden: 16,
            epochs: 10,
            batch: 8,
            lr: 0.02,
        }
    }

    pub(crate) fn train_autoencoder(
        &self,
        x: &Tensor,
        rng: &mut Rng64,
    ) -> (Sequential, Sequential) {
        let width = x.dim(1);
        let mut encoder = mlp(&[width, self.hidden, self.latent], rng);
        let mut decoder = mlp(&[self.latent, self.hidden, width], rng);
        let mut opt = Sgd::new(self.lr, 0.5, 0.0);
        let n = x.dim(0);
        let mut order: Vec<usize> = (0..n).collect();
        for _ in 0..self.epochs {
            rng.shuffle(&mut order);
            for chunk in order.chunks(self.batch) {
                let batch = x.select_rows(chunk);
                encoder.zero_grad();
                decoder.zero_grad();
                let z = encoder.forward(&batch, true);
                let recon = decoder.forward(&z, true);
                let (_, grad) = mse_loss_and_grad(&recon, &batch);
                debug_assert!(grad.all_finite(), "autoencoder gradient diverged");
                let dz = decoder.backward(&grad);
                encoder.backward_params(&dz);
                let mut params = encoder.params();
                params.extend(decoder.params());
                // MSE + plain SGD diverges when the reconstruction error
                // feeds back through growing weights; a global-norm clip
                // keeps the autoencoder in the stable regime.
                clip_grad_norm(&mut params, 1.0);
                opt.step(&mut params);
            }
        }
        (encoder, decoder)
    }
}

impl Default for BaganLite {
    fn default() -> Self {
        Self::new()
    }
}

impl Oversampler for BaganLite {
    fn name(&self) -> &'static str {
        "BAGAN"
    }

    fn oversample(
        &self,
        x: &Tensor,
        y: &[usize],
        num_classes: usize,
        rng: &mut Rng64,
    ) -> (Tensor, Vec<usize>) {
        assert_eq!(x.dim(0), y.len());
        let needs = deficits(y, num_classes);
        let idx = indices_by_class(y, num_classes);
        let width = x.dim(1);
        // One autoencoder across all classes (BAGAN's whole-data init).
        let (mut encoder, mut decoder) = self.train_autoencoder(x, rng);
        let latents = encoder.forward(x, false);
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for (class, &need) in needs.iter().enumerate() {
            if need == 0 {
                continue;
            }
            assert!(
                !idx[class].is_empty(),
                "cannot oversample empty class {class}"
            );
            // Class-conditional latent Gaussian.
            let class_z = latents.select_rows(&idx[class]);
            let mean = class_z.mean_rows();
            let std = class_z.var_rows().map(|v| v.sqrt().max(1e-3));
            let mut zs = Vec::with_capacity(need * self.latent);
            for _ in 0..need {
                for j in 0..self.latent {
                    zs.push(rng.normal_f32(mean.data()[j], std.data()[j]));
                }
            }
            let z = Tensor::from_vec(zs, &[need, self.latent]);
            let fake = decoder.forward(&z, false);
            data.extend_from_slice(fake.data());
            labels.extend(std::iter::repeat_n(class, need));
        }
        (Tensor::from_vec(data, &[labels.len(), width]), labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eos_resample::{balance_with, class_counts};
    use eos_tensor::normal;

    #[test]
    fn mse_matches_finite_differences_and_the_inline_form() {
        use eos_tensor::{central_difference, rel_error, Rng64};
        let mut rng = Rng64::new(9);
        let recon = normal(&[3, 4], 0.0, 1.0, &mut rng);
        let target = normal(&[3, 4], 0.0, 1.0, &mut rng);
        let (loss, grad) = mse_loss_and_grad(&recon, &target);
        assert!(loss > 0.0);
        // Same closed form the training loop used before the refactor.
        let inline = recon.sub(&target).scale(2.0 / recon.len() as f32);
        assert_eq!(grad.data(), inline.data(), "refactor must be bit-exact");
        let ngrad = central_difference(&recon, 1e-3, |p| mse_loss_and_grad(p, &target).0);
        assert!(rel_error(&grad, &ngrad) < 1e-2);
    }

    #[test]
    fn balances_counts() {
        let mut rng = Rng64::new(1);
        let x = normal(&[30, 3], 0.0, 1.0, &mut rng);
        let mut y = vec![0usize; 22];
        y.extend(vec![1usize; 8]);
        let (_, by) = balance_with(&BaganLite::fast(), &x, &y, 2, &mut rng);
        assert_eq!(class_counts(&by, 2), vec![22, 22]);
    }

    #[test]
    fn reconstruction_improves_with_training() {
        let mut rng = Rng64::new(2);
        let x = normal(&[60, 4], 1.0, 0.5, &mut rng);
        let bagan = BaganLite::fast();
        let (mut enc, mut dec) = bagan.train_autoencoder(&x, &mut rng);
        let recon = dec.forward(&enc.forward(&x, false), false);
        let err = recon.sub(&x).norm() / x.norm();
        // An untrained decoder outputs ~0, i.e. relative error ~1.
        assert!(err < 0.8, "autoencoder should reconstruct: rel err {err}");
    }

    #[test]
    fn generated_samples_track_class_mean() {
        let mut rng = Rng64::new(3);
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for _ in 0..40 {
            rows.push(normal(&[3], -2.0, 0.3, &mut rng));
            y.push(0);
        }
        for _ in 0..10 {
            rows.push(normal(&[3], 2.0, 0.3, &mut rng));
            y.push(1);
        }
        let x = Tensor::stack_rows(&rows);
        let (sx, _) = BaganLite::new().oversample(&x, &y, 2, &mut rng);
        assert!(
            sx.mean() > 0.0,
            "minority samples should decode on the minority side: {}",
            sx.mean()
        );
    }
}
