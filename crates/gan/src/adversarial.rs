//! Shared adversarial-training machinery: BCE-with-logits and the
//! generator/discriminator alternating loop.

use eos_nn::{Layer, Sequential, Sgd};
use eos_tensor::{normal, Rng64, Tensor};

/// Numerically stable binary cross-entropy on logits.
///
/// Returns the mean loss and ∂loss/∂logits for targets in `{0, 1}`.
pub fn bce_with_logits(logits: &Tensor, targets: &[f32]) -> (f32, Tensor) {
    assert_eq!(logits.len(), targets.len(), "logit/target mismatch");
    let n = targets.len().max(1);
    let mut grad = Tensor::zeros(logits.dims());
    let mut loss = 0.0f32;
    for ((g, &z), &t) in grad.data_mut().iter_mut().zip(logits.data()).zip(targets) {
        // log(1 + e^{-|z|}) + max(z, 0) - z·t  — the standard stable form.
        loss += (1.0 + (-z.abs()).exp()).ln() + z.max(0.0) - z * t;
        let p = 1.0 / (1.0 + (-z).exp());
        *g = (p - t) / n as f32;
    }
    (loss / n as f32, grad)
}

/// Hyper-parameters of one adversarial training run.
#[derive(Debug, Clone, Copy)]
pub struct GanConfig {
    /// Latent dimension fed to the generator.
    pub latent: usize,
    /// Hidden width of both networks.
    pub hidden: usize,
    /// Alternating training steps.
    pub steps: usize,
    /// Mini-batch size per step.
    pub batch: usize,
    /// Learning rate (both networks).
    pub lr: f32,
}

impl GanConfig {
    /// A budget sized for the reproduction's experiments.
    pub fn small() -> Self {
        GanConfig {
            latent: 8,
            hidden: 32,
            steps: 200,
            batch: 16,
            lr: 0.05,
        }
    }

    /// A minimal budget for unit tests and doctests.
    pub fn tiny() -> Self {
        GanConfig {
            latent: 4,
            hidden: 16,
            steps: 60,
            batch: 8,
            lr: 0.05,
        }
    }
}

/// Trains `generator` against `discriminator` on `real` rows with the
/// non-saturating GAN objective. The discriminator must map the
/// generator's output width to a single logit.
pub fn train_gan(
    generator: &mut Sequential,
    discriminator: &mut Sequential,
    real: &Tensor,
    cfg: &GanConfig,
    rng: &mut Rng64,
) {
    assert!(real.dim(0) > 0, "cannot train a GAN on zero samples");
    let n = real.dim(0);
    let mut g_opt = Sgd::new(cfg.lr, 0.5, 0.0);
    let mut d_opt = Sgd::new(cfg.lr, 0.5, 0.0);
    for _ in 0..cfg.steps {
        let b = cfg.batch.min(n);
        // --- Discriminator step: real=1, fake=0.
        let real_rows: Vec<usize> = (0..b).map(|_| rng.below(n)).collect();
        let real_batch = real.select_rows(&real_rows);
        let z = normal(&[b, cfg.latent], 0.0, 1.0, rng);
        let fake_batch = generator.forward(&z, false);
        discriminator.zero_grad();
        let logits_real = discriminator.forward(&real_batch, true);
        let (_, d_real) = bce_with_logits(&logits_real, &vec![1.0; b]);
        discriminator.backward_params(&d_real);
        let logits_fake = discriminator.forward(&fake_batch, true);
        let (_, d_fake) = bce_with_logits(&logits_fake, &vec![0.0; b]);
        discriminator.backward_params(&d_fake);
        d_opt.step(&mut discriminator.params());
        // --- Generator step: make D call fakes real (non-saturating).
        let z = normal(&[b, cfg.latent], 0.0, 1.0, rng);
        generator.zero_grad();
        let fake = generator.forward(&z, true);
        let logits = discriminator.forward(&fake, true);
        let (_, dl) = bce_with_logits(&logits, &vec![1.0; b]);
        let dfake = discriminator.backward(&dl);
        generator.backward_params(&dfake);
        g_opt.step(&mut generator.params());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eos_nn::mlp;
    use eos_tensor::{central_difference, rel_error};

    #[test]
    fn bce_known_values() {
        // logit 0 -> p = 0.5 -> loss = ln 2 for either target.
        let logits = Tensor::zeros(&[2, 1]);
        let (l, g) = bce_with_logits(&logits, &[1.0, 0.0]);
        assert!((l - std::f32::consts::LN_2).abs() < 1e-6);
        assert!((g.data()[0] + 0.25).abs() < 1e-6); // (0.5 - 1)/2
        assert!((g.data()[1] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn bce_gradcheck() {
        let logits = Tensor::from_vec(vec![0.5, -1.2, 2.0], &[3, 1]);
        let targets = [1.0, 0.0, 1.0];
        let (_, g) = bce_with_logits(&logits, &targets);
        let ng = central_difference(&logits, 1e-3, |z| bce_with_logits(z, &targets).0);
        assert!(rel_error(&g, &ng) < 1e-2);
    }

    #[test]
    fn bce_is_stable_for_huge_logits() {
        let logits = Tensor::from_vec(vec![500.0, -500.0], &[2, 1]);
        let (l, g) = bce_with_logits(&logits, &[0.0, 1.0]);
        assert!(l.is_finite() && g.all_finite());
        assert!(l > 100.0, "confidently wrong should hurt");
    }

    #[test]
    fn gan_moves_generated_mean_toward_real() {
        // Real data at mean 3; an untrained generator outputs near 0.
        // After training, generated samples should drift toward 3.
        let mut rng = Rng64::new(7);
        let real = normal(&[80, 2], 3.0, 0.3, &mut rng);
        let cfg = GanConfig::tiny();
        let mut g = mlp(&[cfg.latent, cfg.hidden, 2], &mut rng);
        let mut d = mlp(&[2, cfg.hidden, 1], &mut rng);
        let z = normal(&[64, cfg.latent], 0.0, 1.0, &mut rng);
        let before = g.forward(&z, false).mean();
        train_gan(&mut g, &mut d, &real, &cfg, &mut rng);
        let after = g.forward(&z, false).mean();
        assert!(
            (after - 3.0).abs() < (before - 3.0).abs(),
            "generator mean moved {before:.2} -> {after:.2}, target 3"
        );
        assert!(
            after > 1.0,
            "generator should approach the real mean: {after}"
        );
    }
}
