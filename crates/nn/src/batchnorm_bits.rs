//! Bit-level equivalence of the row-major batch norm with the
//! channel-major algorithm it replaced.
//!
//! [`ChannelMajorBn`] is that algorithm kept as a test oracle: the batch
//! regrouped so each channel's values lie end to end, every statistic one
//! sequential sum over them (`Iterator::sum` for the mean and variance,
//! `+0.0`-started loops for dγ/dβ), and the result regrouped back.
//!
//! Shapes are generated over C ∈ {1, 3, 7, 8, 9, 16, 17, 32} (single
//! lanes, partial and whole lane groups, a tail group),
//! S ∈ {1, 4, 16, 64} and n ∈ {1, 2, 5, 32}, each at thread budgets
//! 1/2/4/8, for `BatchNorm2d` (C channels of S positions) and `BatchNorm1d`
//! (C·S features). Batches of at least 2^15 elements (n = 32 with
//! C·S ≥ 1024) take the fanned-out passes, the rest run inline, so both
//! sides of the layer's size gate are checked. Channel 0 of every input and gradient is all `-0.0`,
//! its β is `-0.0` and the parameter gradients start at `-0.0`: a sum
//! started from the wrong signed zero then shows in `y`, the running
//! statistics or dγ/dβ.

use crate::{BatchNorm1d, BatchNorm2d, Layer};
use eos_tensor::{normal, par, Rng64, Tensor};

const EPS: f32 = 1e-5;
const MOMENTUM: f32 = 0.1;

/// The channel-major batch norm, one channel at a time.
pub(crate) struct ChannelMajorBn {
    pub(crate) gamma: Vec<f32>,
    pub(crate) beta: Vec<f32>,
    pub(crate) running_mean: Vec<f32>,
    pub(crate) running_var: Vec<f32>,
    pub(crate) gamma_grad: Vec<f32>,
    pub(crate) beta_grad: Vec<f32>,
    spatial: usize,
    x_hat: Vec<f32>,
    inv_std: Vec<f32>,
}

impl ChannelMajorBn {
    pub(crate) fn new(channels: usize, spatial: usize) -> Self {
        ChannelMajorBn {
            gamma: vec![1.0; channels],
            beta: vec![0.0; channels],
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            gamma_grad: vec![0.0; channels],
            beta_grad: vec![0.0; channels],
            spatial,
            x_hat: Vec::new(),
            inv_std: Vec::new(),
        }
    }

    /// Row-major `(n, C·S)` to channel-major `(C, n·S)`.
    fn group(&self, x: &Tensor) -> Vec<f32> {
        let (n, s, c) = (x.dim(0), self.spatial, self.gamma.len());
        let m = n * s;
        let mut out = vec![0.0; c * m];
        for i in 0..n {
            for ch in 0..c {
                out[ch * m + i * s..][..s].copy_from_slice(&x.row_slice(i)[ch * s..][..s]);
            }
        }
        out
    }

    fn ungroup(&self, cm: &[f32], n: usize) -> Tensor {
        let (s, c) = (self.spatial, self.gamma.len());
        let m = n * s;
        let mut out = Tensor::zeros(&[n, c * s]);
        for ch in 0..c {
            for i in 0..n {
                out.data_mut()[i * c * s + ch * s..][..s]
                    .copy_from_slice(&cm[ch * m + i * s..][..s]);
            }
        }
        out
    }

    pub(crate) fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let n = x.dim(0);
        let m = n * self.spatial;
        let x_cm = self.group(x);
        let mut ys = vec![0.0; x_cm.len()];
        if train {
            self.x_hat = vec![0.0; x_cm.len()];
            self.inv_std.clear();
        }
        for (ch, (xs, yrow)) in x_cm.chunks_exact(m).zip(ys.chunks_exact_mut(m)).enumerate() {
            let (gamma, beta) = (self.gamma[ch], self.beta[ch]);
            if train {
                let mean = xs.iter().sum::<f32>() / m as f32;
                let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / m as f32;
                let inv_std = 1.0 / (var + EPS).sqrt();
                let xh = &mut self.x_hat[ch * m..(ch + 1) * m];
                for ((y, &x), out_xh) in yrow.iter_mut().zip(xs).zip(xh) {
                    let v = (x - mean) * inv_std;
                    *out_xh = v;
                    *y = gamma * v + beta;
                }
                self.running_mean[ch] = (1.0 - MOMENTUM) * self.running_mean[ch] + MOMENTUM * mean;
                self.running_var[ch] = (1.0 - MOMENTUM) * self.running_var[ch] + MOMENTUM * var;
                self.inv_std.push(inv_std);
            } else {
                let inv_std = 1.0 / (self.running_var[ch] + EPS).sqrt();
                let rm = self.running_mean[ch];
                for (y, &x) in yrow.iter_mut().zip(xs) {
                    *y = gamma * ((x - rm) * inv_std) + beta;
                }
            }
        }
        self.ungroup(&ys, n)
    }

    pub(crate) fn backward(&mut self, grad: &Tensor) -> Tensor {
        let n = grad.dim(0);
        let m = n * self.spatial;
        let g_cm = self.group(grad);
        let mut dx_cm = vec![0.0; g_cm.len()];
        for (ch, (gs, dxs)) in g_cm
            .chunks_exact(m)
            .zip(dx_cm.chunks_exact_mut(m))
            .enumerate()
        {
            let xh = &self.x_hat[ch * m..(ch + 1) * m];
            let mut dgamma = 0.0f32;
            let mut dbeta = 0.0f32;
            for (g, x) in gs.iter().zip(xh) {
                dgamma += g * x;
                dbeta += g;
            }
            let scale = self.gamma[ch] * self.inv_std[ch] / m as f32;
            for ((dx, g), x) in dxs.iter_mut().zip(gs).zip(xh) {
                *dx = scale * (m as f32 * g - dbeta - x * dgamma);
            }
            self.gamma_grad[ch] += dgamma;
            self.beta_grad[ch] += dbeta;
        }
        self.ungroup(&dx_cm, n)
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A `(n, C·S)` batch whose channel 0 is all `-0.0`.
fn batch(n: usize, c: usize, s: usize, rng: &mut Rng64) -> Tensor {
    let mut t = normal(&[n, c * s], 0.4, 1.7, rng);
    for i in 0..n {
        t.data_mut()[i * c * s..][..s].fill(-0.0);
    }
    t
}

/// Drives `layer` (C channels of S positions) and the reference through
/// the same steps, asserting bit equality at every observable: three
/// training forwards, the running statistics, two accumulating
/// forward/backward passes, dγ/dβ, and an eval forward.
fn check(layer: &mut dyn Layer, n: usize, c: usize, s: usize, seed: u64, label: &str) {
    let mut rng = Rng64::new(seed);
    let mut reference = ChannelMajorBn::new(c, s);
    reference.gamma = normal(&[c], 1.0, 0.5, &mut rng).into_vec();
    reference.beta = normal(&[c], 0.0, 0.5, &mut rng).into_vec();
    reference.beta[0] = -0.0;
    reference.gamma_grad.fill(-0.0);
    reference.beta_grad.fill(-0.0);
    for (p, value) in layer
        .params()
        .into_iter()
        .zip([&reference.gamma, &reference.beta])
    {
        p.value.data_mut().copy_from_slice(value);
        p.grad.fill_(-0.0);
    }
    for step in 0..3 {
        let x = batch(n, c, s, &mut rng);
        let (y, want) = (layer.forward(&x, true), reference.forward(&x, true));
        assert_eq!(
            bits(y.data()),
            bits(want.data()),
            "{label}: train y, step {step}"
        );
    }
    let mut stats = reference.running_mean.clone();
    stats.extend_from_slice(&reference.running_var);
    assert_eq!(
        bits(&layer.extra_state()),
        bits(&stats),
        "{label}: running stats"
    );
    for pass in 0..2 {
        let x = batch(n, c, s, &mut rng);
        let g = batch(n, c, s, &mut rng);
        let _ = (layer.forward(&x, true), reference.forward(&x, true));
        let (dx, want) = (layer.backward(&g), reference.backward(&g));
        assert_eq!(
            bits(dx.data()),
            bits(want.data()),
            "{label}: dx, pass {pass}"
        );
    }
    let params = layer.params();
    assert_eq!(
        bits(params[0].grad.data()),
        bits(&reference.gamma_grad),
        "{label}: dγ"
    );
    assert_eq!(
        bits(params[1].grad.data()),
        bits(&reference.beta_grad),
        "{label}: dβ"
    );
    let x = batch(n, c, s, &mut rng);
    let (y, want) = (layer.forward(&x, false), reference.forward(&x, false));
    assert_eq!(bits(y.data()), bits(want.data()), "{label}: eval y");
}

/// Every generated shape at every thread budget; `case(c, s, n, seed,
/// label)` runs one.
fn sweep(kind: &str, case: impl Fn(usize, usize, usize, u64, &str)) {
    let mut seed = 0;
    for c in [1usize, 3, 7, 8, 9, 16, 17, 32] {
        for s in [1usize, 4, 16, 64] {
            for n in [1usize, 2, 5, 32] {
                for threads in [1usize, 2, 4, 8] {
                    seed += 1;
                    let label = format!("{kind} C{c} S{s} n{n} t{threads}");
                    par::with_thread_budget(threads, || case(c, s, n, seed, &label));
                }
            }
        }
    }
}

#[test]
fn bn2d_matches_channel_major_reference_bit_for_bit() {
    sweep("bn2d", |c, s, n, seed, label| {
        check(&mut BatchNorm2d::new(c, s), n, c, s, seed, label)
    });
}

#[test]
fn bn1d_matches_channel_major_reference_bit_for_bit() {
    // C·S features of one position each: the reference sees S = 1.
    sweep("bn1d", |c, s, n, seed, label| {
        check(&mut BatchNorm1d::new(c * s), n, c * s, 1, seed, label)
    });
}
