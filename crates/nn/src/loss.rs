//! Classification losses: cross-entropy and the three cost-sensitive
//! losses the paper evaluates (Focal, ASL, LDAM with deferred
//! re-weighting).
//!
//! Every loss returns the mean loss over the batch and the gradient with
//! respect to the logits; gradients are verified against central finite
//! differences in the tests.

use eos_tensor::Tensor;

const P_CLAMP: f32 = 1e-7;

/// A classification loss over `(batch, classes)` logits.
pub trait Loss {
    /// Mean loss over the batch and ∂loss/∂logits.
    fn loss_and_grad(&self, logits: &Tensor, labels: &[usize]) -> (f32, Tensor);

    /// Installs (or clears) per-class weights. Used by deferred
    /// re-weighting (DRW): the trainer switches weights on at a late epoch.
    fn set_class_weights(&mut self, weights: Option<Vec<f32>>);

    /// Short display name, used by the trainer's diagnostics.
    fn name(&self) -> &'static str {
        "loss"
    }
}

fn check_inputs(logits: &Tensor, labels: &[usize]) {
    assert_eq!(logits.rank(), 2, "logits must be (batch, classes)");
    assert_eq!(logits.dim(0), labels.len(), "batch/label count mismatch");
    let c = logits.dim(1);
    assert!(labels.iter().all(|&y| y < c), "label out of range");
}

fn weight_of(weights: &Option<Vec<f32>>, y: usize) -> f32 {
    weights.as_ref().map_or(1.0, |w| w[y])
}

/// `ln Σ_j e^{row_j}`, max-shifted. `lse(row) − row[y]` is `−ln p_y`
/// computed exactly — finite for any logit magnitude, unlike clamping the
/// softmax output, which flattens the loss surface below the clamp while
/// the analytic gradient keeps its slope (the check_numerics gate caught
/// LDAM doing exactly that at its paper logit scale).
fn log_sum_exp(row: &[f32]) -> f32 {
    let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    m + row.iter().map(|&z| (z - m).exp()).sum::<f32>().ln()
}

/// Smith-style class-balanced weights from Cui et al.:
/// `w_c ∝ (1 − β) / (1 − β^{n_c})`, normalised to sum to the class count.
/// This is the re-weighting LDAM-DRW defers to its final epochs.
pub fn effective_number_weights(beta: f64, counts: &[usize]) -> Vec<f32> {
    assert!((0.0..1.0).contains(&beta), "beta must be in [0,1)");
    assert!(!counts.is_empty());
    let raw: Vec<f64> = counts
        .iter()
        .map(|&n| {
            assert!(n > 0, "empty class in effective_number_weights");
            (1.0 - beta) / (1.0 - beta.powi(n as i32))
        })
        .collect();
    let sum: f64 = raw.iter().sum();
    let scale = counts.len() as f64 / sum;
    raw.iter().map(|&w| (w * scale) as f32).collect()
}

// ---------------------------------------------------------------------
// Cross-entropy
// ---------------------------------------------------------------------

/// Softmax cross-entropy with optional per-class weights.
#[derive(Default)]
pub struct CrossEntropyLoss {
    weights: Option<Vec<f32>>,
}

impl CrossEntropyLoss {
    /// Unweighted cross-entropy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Loss for CrossEntropyLoss {
    fn loss_and_grad(&self, logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
        check_inputs(logits, labels);
        let n = labels.len();
        let p = logits.softmax_rows();
        let mut grad = p.clone();
        let mut loss = 0.0f32;
        let c = logits.dim(1);
        for (i, &y) in labels.iter().enumerate() {
            let w = weight_of(&self.weights, y);
            loss += w * (log_sum_exp(logits.row_slice(i)) - logits.at(&[i, y]));
            let row = &mut grad.data_mut()[i * c..(i + 1) * c];
            row[y] -= 1.0;
            for g in row.iter_mut() {
                *g *= w / n as f32;
            }
        }
        (loss / n as f32, grad)
    }

    fn set_class_weights(&mut self, weights: Option<Vec<f32>>) {
        self.weights = weights;
    }

    fn name(&self) -> &'static str {
        "CE"
    }
}

// ---------------------------------------------------------------------
// Focal loss
// ---------------------------------------------------------------------

/// Focal loss (Lin et al.): `-(1 − p_t)^γ · log p_t`, down-weighting easy
/// examples so hard (typically minority) samples dominate the gradient.
pub struct FocalLoss {
    /// Focusing parameter γ; the paper's experiments use the common γ = 2.
    pub gamma: f32,
    weights: Option<Vec<f32>>,
}

impl FocalLoss {
    /// Focal loss with focusing parameter `gamma`.
    pub fn new(gamma: f32) -> Self {
        assert!(gamma >= 0.0);
        FocalLoss {
            gamma,
            weights: None,
        }
    }
}

impl Loss for FocalLoss {
    fn loss_and_grad(&self, logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
        check_inputs(logits, labels);
        let n = labels.len();
        let c = logits.dim(1);
        let p = logits.softmax_rows();
        let g = self.gamma;
        let mut grad = Tensor::zeros(&[n, c]);
        let mut loss = 0.0f32;
        for (i, &y) in labels.iter().enumerate() {
            let w = weight_of(&self.weights, y);
            let pt = p.at(&[i, y]);
            // ln p_t via log-sum-exp: exact at any logit magnitude, where
            // ln(softmax) saturates to ln(0) = −∞ / ln(1) = −0.
            let ln_pt = logits.at(&[i, y]) - log_sum_exp(logits.row_slice(i));
            // (1 − p_t) is floored only where a negative power needs it.
            let one_minus = (1.0 - pt).max(P_CLAMP);
            loss += -w * one_minus.powf(g) * ln_pt;
            // dL/dp_t · dp_t/dz_j with dp_t/dz_j = p_t(δ − p_j); the
            // 1/p_t in dL/dp_t cancels against that p_t analytically, so
            // no division — the gradient stays finite as p_t → 0.
            let factor = g * one_minus.powf(g - 1.0) * ln_pt * pt - one_minus.powf(g);
            let row = &mut grad.data_mut()[i * c..(i + 1) * c];
            for (j, gr) in row.iter_mut().enumerate() {
                let delta = if j == y { 1.0 } else { 0.0 };
                *gr = w * factor * (delta - p.at(&[i, j])) / n as f32;
            }
        }
        (loss / n as f32, grad)
    }

    fn set_class_weights(&mut self, weights: Option<Vec<f32>>) {
        self.weights = weights;
    }

    fn name(&self) -> &'static str {
        "Focal"
    }
}

// ---------------------------------------------------------------------
// LDAM
// ---------------------------------------------------------------------

/// Label-distribution-aware margin loss (Cao et al.): cross-entropy on
/// scaled logits with a per-class margin `Δ_c ∝ n_c^{-1/4}` subtracted
/// from the true-class logit, encouraging larger minority margins.
pub struct LdamLoss {
    margins: Vec<f32>,
    /// Logit scale `s` applied before softmax (paper uses 30).
    pub scale: f32,
    weights: Option<Vec<f32>>,
}

impl LdamLoss {
    /// Builds the margin table from per-class training counts. `max_margin`
    /// rescales the largest margin (paper: 0.5).
    pub fn new(class_counts: &[usize], max_margin: f32, scale: f32) -> Self {
        assert!(!class_counts.is_empty());
        assert!(max_margin > 0.0 && scale > 0.0);
        let raw: Vec<f32> = class_counts
            .iter()
            .map(|&n| {
                assert!(n > 0, "empty class in LdamLoss");
                1.0 / (n as f32).powf(0.25)
            })
            .collect();
        let biggest = raw.iter().copied().fold(0.0f32, f32::max);
        let margins = raw.iter().map(|&m| m * max_margin / biggest).collect();
        LdamLoss {
            margins,
            scale,
            weights: None,
        }
    }
}

impl Loss for LdamLoss {
    fn loss_and_grad(&self, logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
        check_inputs(logits, labels);
        let c = logits.dim(1);
        assert_eq!(c, self.margins.len(), "margin table width mismatch");
        let n = labels.len();
        // u = s · (z − Δ_y e_y)
        let mut u = logits.clone();
        for (i, &y) in labels.iter().enumerate() {
            let v = u.at(&[i, y]) - self.margins[y];
            u.set(&[i, y], v);
        }
        u.scale_(self.scale);
        let p = u.softmax_rows();
        let mut grad = p.clone();
        let mut loss = 0.0f32;
        for (i, &y) in labels.iter().enumerate() {
            let w = weight_of(&self.weights, y);
            loss += w * (log_sum_exp(u.row_slice(i)) - u.at(&[i, y]));
            let row = &mut grad.data_mut()[i * c..(i + 1) * c];
            row[y] -= 1.0;
            for g in row.iter_mut() {
                *g *= w * self.scale / n as f32;
            }
        }
        (loss / n as f32, grad)
    }

    fn set_class_weights(&mut self, weights: Option<Vec<f32>>) {
        self.weights = weights;
    }

    fn name(&self) -> &'static str {
        "LDAM"
    }
}

// ---------------------------------------------------------------------
// ASL
// ---------------------------------------------------------------------

/// Asymmetric loss (Ben-Baruch et al.), adapted to single-label
/// multi-class by one-vs-all sigmoids: positives get focusing `γ+`,
/// negatives get harsher focusing `γ−` plus probability shifting `m`.
pub struct AsymmetricLoss {
    /// Positive focusing parameter (paper default 0).
    pub gamma_pos: f32,
    /// Negative focusing parameter (paper default 4).
    pub gamma_neg: f32,
    /// Probability margin subtracted from negatives (paper default 0.05).
    pub clip: f32,
    weights: Option<Vec<f32>>,
}

impl AsymmetricLoss {
    /// ASL with the given focusing parameters and probability margin.
    pub fn new(gamma_pos: f32, gamma_neg: f32, clip: f32) -> Self {
        assert!(gamma_pos >= 0.0 && gamma_neg >= 0.0 && (0.0..1.0).contains(&clip));
        AsymmetricLoss {
            gamma_pos,
            gamma_neg,
            clip,
            weights: None,
        }
    }

    /// The paper's defaults: γ+ = 0, γ− = 4, m = 0.05.
    pub fn paper_defaults() -> Self {
        Self::new(0.0, 4.0, 0.05)
    }
}

impl Loss for AsymmetricLoss {
    fn loss_and_grad(&self, logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
        check_inputs(logits, labels);
        let n = labels.len();
        let c = logits.dim(1);
        let mut grad = Tensor::zeros(&[n, c]);
        let mut loss = 0.0f32;
        for (i, &y) in labels.iter().enumerate() {
            let w = weight_of(&self.weights, y);
            let row = logits.row_slice(i);
            let grow = &mut grad.data_mut()[i * c..(i + 1) * c];
            for (j, (&z, gr)) in row.iter().zip(grow.iter_mut()).enumerate() {
                // ln σ(z) = −softplus(−z) and ln(1−σ(z)) = −softplus(z):
                // exact where ln(sigmoid) saturates to ln(0)/ln(1), so the
                // loss keeps the slope the gradient reports (clamping the
                // probability flattened it — flagged by check_numerics).
                let softplus = |t: f32| t.max(0.0) + (-t.abs()).exp().ln_1p();
                let p = 1.0 / (1.0 + (-z).exp());
                if j == y {
                    let g = self.gamma_pos;
                    let om = 1.0 - p;
                    let ln_p = -softplus(-z);
                    loss += -w * om.powf(g) * ln_p;
                    // dL/dp · dp/dz with dp/dz = p(1−p); the 1/p in dL/dp
                    // cancels analytically, so no division and the
                    // gradient stays finite as p → 0 or 1.
                    let factor = g * om.powf(g) * ln_p * p - om.powf(g + 1.0);
                    *gr = w * factor / n as f32;
                } else {
                    let pm = (p - self.clip).max(0.0);
                    if pm <= 0.0 {
                        continue; // loss and gradient are exactly zero
                    }
                    let g = self.gamma_neg;
                    let om = 1.0 - pm;
                    let ln_om = if self.clip == 0.0 {
                        -softplus(z)
                    } else {
                        om.ln() // bounded below by the clip margin
                    };
                    loss += -w * pm.powf(g) * ln_om;
                    // With no clip, om = 1−p and the 1/om cancels against
                    // dp/dz = p(1−p); with a clip, om ≥ clip bounds the
                    // division away from zero.
                    let grad_term = if self.clip == 0.0 {
                        -g * pm.powf(g - 1.0) * ln_om * p * om + pm.powf(g) * p
                    } else {
                        (-g * pm.powf(g - 1.0) * ln_om + pm.powf(g) / om) * p * (1.0 - p)
                    };
                    *gr = w * grad_term / n as f32;
                }
            }
        }
        (loss / n as f32, grad)
    }

    fn set_class_weights(&mut self, weights: Option<Vec<f32>>) {
        self.weights = weights;
    }

    fn name(&self) -> &'static str {
        "ASL"
    }
}

// ---------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------

/// The four loss families the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LossKind {
    /// Plain cross-entropy.
    Ce,
    /// Focal loss, γ = 2.
    Focal,
    /// Asymmetric loss with the authors' defaults.
    Asl,
    /// LDAM with deferred re-weighting.
    Ldam,
}

impl LossKind {
    /// All four kinds, in the paper's table order.
    pub const ALL: [LossKind; 4] = [LossKind::Ce, LossKind::Asl, LossKind::Focal, LossKind::Ldam];

    /// Short name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            LossKind::Ce => "CE",
            LossKind::Focal => "Focal",
            LossKind::Asl => "ASL",
            LossKind::Ldam => "LDAM",
        }
    }

    /// Instantiates the loss; `class_counts` parameterises LDAM's margins.
    pub fn build(self, class_counts: &[usize]) -> Box<dyn Loss> {
        match self {
            LossKind::Ce => Box::new(CrossEntropyLoss::new()),
            LossKind::Focal => Box::new(FocalLoss::new(2.0)),
            LossKind::Asl => Box::new(AsymmetricLoss::paper_defaults()),
            // The paper (after Cao et al.) uses s = 30 at ResNet-32 scale;
            // at this reproduction's logit scale s = 5 is the stable
            // equivalent (larger s diverges under the same LR schedule).
            LossKind::Ldam => Box::new(LdamLoss::new(class_counts, 0.5, 5.0)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eos_tensor::{central_difference, normal, rel_error, Rng64};

    fn gradcheck(loss: &dyn Loss, seed: u64) {
        let mut rng = Rng64::new(seed);
        let logits = normal(&[4, 3], 0.0, 1.5, &mut rng);
        let labels = vec![0, 2, 1, 2];
        let (_, grad) = loss.loss_and_grad(&logits, &labels);
        let ngrad = central_difference(&logits, 1e-2, |z| loss.loss_and_grad(z, &labels).0);
        assert!(
            rel_error(&grad, &ngrad) < 2e-2,
            "loss gradient mismatch: {}",
            rel_error(&grad, &ngrad)
        );
    }

    #[test]
    fn ce_gradcheck() {
        gradcheck(&CrossEntropyLoss::new(), 1);
    }

    #[test]
    fn ce_weighted_gradcheck() {
        let mut l = CrossEntropyLoss::new();
        l.set_class_weights(Some(vec![0.5, 2.0, 1.5]));
        gradcheck(&l, 2);
    }

    #[test]
    fn focal_gradcheck() {
        gradcheck(&FocalLoss::new(2.0), 3);
    }

    #[test]
    fn focal_gamma_zero_equals_ce() {
        let mut rng = Rng64::new(4);
        let logits = normal(&[5, 4], 0.0, 1.0, &mut rng);
        let labels = vec![0, 1, 2, 3, 1];
        let (lf, gf) = FocalLoss::new(0.0).loss_and_grad(&logits, &labels);
        let (lc, gc) = CrossEntropyLoss::new().loss_and_grad(&logits, &labels);
        assert!((lf - lc).abs() < 1e-5);
        assert!(rel_error(&gf, &gc) < 1e-4);
    }

    #[test]
    fn focal_survives_pt_at_the_clamp() {
        // A hugely confident correct prediction drives p_t to the
        // 1 − P_CLAMP clamp, where `one_minus` bottoms out at its f32
        // representation (~1.19e-7). `(1 − p_t)^{γ−1}` must stay finite
        // there for every γ the experiments use, including γ < 1 where
        // the exponent is negative.
        let logits = Tensor::from_vec(vec![40.0, -40.0, -40.0], &[1, 3]);
        for gamma in [0.0, 0.5, 1.0, 2.0] {
            let (l, g) = FocalLoss::new(gamma).loss_and_grad(&logits, &[0]);
            assert!(l.is_finite(), "γ={gamma}: loss {l}");
            assert!(g.all_finite(), "γ={gamma}: non-finite gradient");
            assert!(
                (0.0..1e-4).contains(&l),
                "γ={gamma}: easy sample, tiny loss"
            );
        }
    }

    #[test]
    fn focal_gamma_zero_equals_weighted_ce() {
        // γ = 0 must degenerate to cross-entropy *including* the class
        // weights installed by deferred re-weighting.
        let mut rng = Rng64::new(14);
        let logits = normal(&[5, 3], 0.0, 1.5, &mut rng);
        let labels = vec![0, 1, 2, 0, 1];
        let weights = vec![0.25, 1.0, 4.0];
        let mut focal = FocalLoss::new(0.0);
        focal.set_class_weights(Some(weights.clone()));
        let mut ce = CrossEntropyLoss::new();
        ce.set_class_weights(Some(weights));
        let (lf, gf) = focal.loss_and_grad(&logits, &labels);
        let (lc, gc) = ce.loss_and_grad(&logits, &labels);
        assert!((lf - lc).abs() < 1e-5, "{lf} vs {lc}");
        assert!(rel_error(&gf, &gc) < 1e-4);
    }

    #[test]
    fn focal_single_class_batch_gradcheck() {
        // Every label identical (the shape minority-only fine-tuning
        // batches take): the gradient must still match finite differences
        // and pull toward the one class everywhere.
        let mut rng = Rng64::new(15);
        let logits = normal(&[4, 3], 0.0, 1.0, &mut rng);
        let labels = vec![2, 2, 2, 2];
        let loss = FocalLoss::new(2.0);
        let (_, grad) = loss.loss_and_grad(&logits, &labels);
        let ngrad = central_difference(&logits, 1e-2, |z| loss.loss_and_grad(z, &labels).0);
        assert!(rel_error(&grad, &ngrad) < 2e-2);
        for i in 0..4 {
            assert!(grad.at(&[i, 2]) < 0.0, "true-class pull in row {i}");
        }
    }

    #[test]
    fn ldam_gradcheck_in_the_saturated_regime() {
        // At the paper's logit scale, softmax over s·z saturates easily.
        // The old loss clamped p_y at 1e-7, flattening the loss surface
        // while the gradient kept its −s/n slope; finite differences saw
        // the flat clamp and the check_numerics gate flagged a rel error
        // of 1.0. Computed via log-sum-exp the loss keeps its slope and
        // the analytic gradient matches everywhere.
        let mut rng = Rng64::new(16);
        let logits = normal(&[5, 3], 0.0, 1.5, &mut rng);
        let labels = vec![0, 2, 1, 1, 0];
        let loss = LdamLoss::new(&[40, 10, 4], 0.5, 10.0);
        let (l, grad) = loss.loss_and_grad(&logits, &labels);
        assert!(l.is_finite());
        let ngrad = central_difference(&logits, 1e-3, |z| loss.loss_and_grad(z, &labels).0);
        assert!(
            rel_error(&grad, &ngrad) < 1e-2,
            "saturated LDAM gradient mismatch: {}",
            rel_error(&grad, &ngrad)
        );
    }

    #[test]
    fn ce_loss_keeps_its_slope_under_saturated_logits() {
        // Logit gaps > 16 push p_y below the old 1e-7 clamp; the clamped
        // loss went flat there while the gradient stayed at p − e_y. The
        // log-sum-exp form is exact: loss ≈ gap, slope matches.
        let logits = Tensor::from_vec(vec![-20.0, 20.0, 0.0, 25.0, -25.0, 0.0], &[2, 3]);
        let labels = vec![0, 1];
        let ce = CrossEntropyLoss::new();
        let (l, grad) = ce.loss_and_grad(&logits, &labels);
        assert!((l - 45.0).abs() < 1e-3, "exact −ln p under saturation: {l}");
        let ngrad = central_difference(&logits, 1e-2, |z| ce.loss_and_grad(z, &labels).0);
        assert!(rel_error(&grad, &ngrad) < 1e-2);
    }

    #[test]
    fn asl_is_finite_and_consistent_under_saturated_logits() {
        // z = ±40 rounds sigmoid to exactly 0.0/1.0 in f32. The softplus
        // forms keep the loss exact, and the division-free gradient terms
        // stay finite (the old pm^γ/om hit 0/0 → NaN with clip = 0).
        let logits = Tensor::from_vec(vec![-40.0, 40.0, 0.5, 40.0, -40.0, 0.5], &[2, 3]);
        let labels = vec![0, 1];
        for loss in [
            AsymmetricLoss::paper_defaults(),
            AsymmetricLoss::new(1.0, 2.0, 0.0),
        ] {
            let (l, g) = loss.loss_and_grad(&logits, &labels);
            assert!(
                l.is_finite() && l > 0.0,
                "hard samples: big finite loss, got {l}"
            );
            assert!(g.all_finite(), "non-finite ASL gradient");
            // The mispredicted true classes must still be pulled up.
            assert!(g.at(&[0, 0]) < 0.0 && g.at(&[1, 1]) < 0.0);
        }
        // And in a merely-steep (not f32-saturated) regime the gradient
        // must match finite differences.
        let mid = Tensor::from_vec(vec![-8.0, 6.0, 0.5, 7.0, -5.0, 0.5], &[2, 3]);
        for loss in [
            AsymmetricLoss::paper_defaults(),
            AsymmetricLoss::new(1.0, 2.0, 0.0),
        ] {
            let (_, grad) = loss.loss_and_grad(&mid, &labels);
            let ngrad = central_difference(&mid, 1e-3, |z| loss.loss_and_grad(z, &labels).0);
            assert!(
                rel_error(&grad, &ngrad) < 1e-2,
                "steep ASL gradient mismatch: {}",
                rel_error(&grad, &ngrad)
            );
        }
    }

    #[test]
    fn focal_loss_is_exact_under_saturated_logits() {
        // A badly mispredicted sample (p_t ≈ e^{−40}): the old clamped
        // ln(p_t) bottomed out at ln(1e-7) ≈ −16; the log-sum-exp form
        // reports the true ≈ 40·(1−p_t)^γ ≈ 40.
        let logits = Tensor::from_vec(vec![-20.0, 20.0, 0.0], &[1, 3]);
        for gamma in [0.0, 2.0] {
            let (l, g) = FocalLoss::new(gamma).loss_and_grad(&logits, &[0]);
            assert!(
                (l - 40.0).abs() < 1e-3,
                "γ={gamma}: exact hard-sample loss, got {l}"
            );
            assert!(g.all_finite());
            assert!(g.at(&[0, 0]) < 0.0, "true class pulled up");
        }
    }

    #[test]
    fn loss_names_are_stable() {
        assert_eq!(CrossEntropyLoss::new().name(), "CE");
        assert_eq!(FocalLoss::new(2.0).name(), "Focal");
        assert_eq!(LdamLoss::new(&[10, 5], 0.5, 5.0).name(), "LDAM");
        assert_eq!(AsymmetricLoss::paper_defaults().name(), "ASL");
    }

    #[test]
    fn ldam_gradcheck() {
        gradcheck(&LdamLoss::new(&[100, 10, 1], 0.5, 3.0), 5);
    }

    #[test]
    fn ldam_minority_gets_largest_margin() {
        let l = LdamLoss::new(&[1000, 100, 10], 0.5, 30.0);
        let m = &l.margins;
        assert!(m[2] > m[1] && m[1] > m[0]);
        assert!((m[2] - 0.5).abs() < 1e-6, "largest margin rescaled to 0.5");
    }

    #[test]
    fn ldam_margin_raises_true_class_loss() {
        // Same logits: LDAM loss >= CE-at-scale loss because the margin
        // shrinks the true-class logit.
        let logits = Tensor::from_vec(vec![2.0, 0.0, 0.0], &[1, 3]);
        let ldam = LdamLoss::new(&[100, 100, 1], 0.5, 1.0);
        let (l_ldam, _) = ldam.loss_and_grad(&logits, &[0]);
        let (l_ce, _) = CrossEntropyLoss::new().loss_and_grad(&logits, &[0]);
        assert!(l_ldam > l_ce);
    }

    #[test]
    fn asl_gradcheck() {
        gradcheck(&AsymmetricLoss::paper_defaults(), 6);
    }

    #[test]
    fn asl_gradcheck_nonzero_gamma_pos() {
        gradcheck(&AsymmetricLoss::new(1.0, 2.0, 0.1), 7);
    }

    #[test]
    fn asl_clip_silences_confident_negatives() {
        // Negative with p < clip contributes nothing.
        let logits = Tensor::from_vec(vec![5.0, -8.0], &[1, 2]);
        let (_, grad) = AsymmetricLoss::paper_defaults().loss_and_grad(&logits, &[0]);
        assert_eq!(grad.at(&[0, 1]), 0.0);
    }

    #[test]
    fn ce_points_towards_true_class() {
        let logits = Tensor::from_vec(vec![0.0, 0.0, 0.0], &[1, 3]);
        let (_, grad) = CrossEntropyLoss::new().loss_and_grad(&logits, &[1]);
        assert!(
            grad.at(&[0, 1]) < 0.0,
            "true-class gradient must be negative"
        );
        assert!(grad.at(&[0, 0]) > 0.0 && grad.at(&[0, 2]) > 0.0);
    }

    #[test]
    fn effective_number_weights_favor_minorities() {
        let w = effective_number_weights(0.999, &[1000, 100, 10]);
        assert!(w[2] > w[1] && w[1] > w[0]);
        let total: f32 = w.iter().sum();
        assert!(
            (total - 3.0).abs() < 1e-4,
            "weights normalised to class count"
        );
    }

    #[test]
    fn loss_kind_builds_all() {
        for kind in LossKind::ALL {
            let l = kind.build(&[50, 5]);
            let logits = Tensor::from_vec(vec![0.5, -0.5], &[1, 2]);
            let (v, g) = l.loss_and_grad(&logits, &[0]);
            assert!(v.is_finite());
            assert!(g.all_finite());
        }
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn rejects_bad_label() {
        let logits = Tensor::zeros(&[1, 2]);
        let _ = CrossEntropyLoss::new().loss_and_grad(&logits, &[2]);
    }
}
