//! Batch normalisation (1-D and 2-D).
//!
//! The paper's generalization-gap measure explicitly assumes batch-normed,
//! ReLU-activated extraction layers (Section III-B), so these layers are
//! load-bearing for the reproduction: they bound and standardise the
//! feature embeddings whose ranges Algorithm 1 compares.
//!
//! Both layers work straight on the row-major `(n, C·S)` batch (`S = H·W`
//! positions per channel for `BatchNorm2d`, `S = 1` for `BatchNorm1d`), in
//! two passes per direction:
//!
//! 1. **Statistics**, parallel over groups of [`LANES`] channels. Each
//!    channel sums into its own accumulator lane, so a group keeps that
//!    many independent add chains in flight, and every lane visits its
//!    channel's values in ascending (image, position) order.
//! 2. **Elementwise**, parallel over image rows: `y` and the cached `x̂`
//!    in the forward, `dx` in the backward.
//!
//! Batches under [`PAR_MIN_ELEMS`] elements run each pass as one inline
//! chunk. Each channel's sums run in one fixed order whatever the
//! thread count or lane grouping, and the running-statistics and
//! parameter-gradient updates are applied serially in channel order, so
//! results are bit-identical at any thread count. The statistics and the
//! `x̂` cache live in buffers the layer keeps, so the steady-state step
//! allocates nothing.

use crate::layer::{Layer, Param};
use eos_tensor::{par, scratch, Tensor};

const EPS: f32 = 1e-5;

/// Weight of the current batch in the running statistics.
const MOMENTUM: f32 = 0.1;

/// Channels per statistics group: the number of independent accumulator
/// lanes a group keeps live, and one parallel chunk of the statistics
/// pass when the batch fans out.
const LANES: usize = 8;

/// Elements per elementwise-pass chunk (whole rows, at least one).
const ROW_CHUNK_ELEMS: usize = 1 << 12;

/// Batch elements below which both passes run as one inline chunk: on
/// smaller batches a pool dispatch costs about as much as it saves
/// (`size_gate` in `results/BENCH_batchnorm.json`).
const PAR_MIN_ELEMS: usize = 1 << 15;

/// Shared normalisation core over `channels` channels of `spatial`
/// positions per image.
struct BnCore {
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    spatial: usize,
    /// Per-channel triples from the statistics pass: `[mean, var,
    /// inv_std]` in the forward; the backward writes `[dγ, dβ, _]` and
    /// reads the training forward's `inv_std` from the third slot, which
    /// nothing else writes (an eval forward leaves `stats` alone).
    stats: Vec<f32>,
    /// The elementwise pass's per-channel parameters, three planes of
    /// `channels` values: `[mean | inv_std | _]` in the forward, `[dγ | dβ
    /// | scale]` in the backward.
    planes: Vec<f32>,
    /// Row-major `x̂` of the last training forward.
    x_hat: Vec<f32>,
    /// Batch rows of the last training forward; `None` before the first.
    cached_rows: Option<usize>,
}

/// Shape of a row-major batch: `n` rows of `width = C·s` values.
#[derive(Clone, Copy)]
struct Geom {
    n: usize,
    width: usize,
    s: usize,
}

impl Geom {
    /// Values per channel in the batch.
    fn m(self) -> f32 {
        (self.n * self.s) as f32
    }

    /// Whether the batch is large enough to fan a pass out to the pool.
    fn fans_out(self) -> bool {
        self.n * self.width >= PAR_MIN_ELEMS
    }

    /// Elements per elementwise-pass chunk: whole rows, about
    /// [`ROW_CHUNK_ELEMS`] values, or the whole batch when it does not
    /// fan out. A function of the shape only.
    fn chunk(self) -> usize {
        let rows = if self.fans_out() {
            ROW_CHUNK_ELEMS / self.width.max(1)
        } else {
            self.n
        };
        rows.max(1) * self.width
    }

    /// Values per statistics-pass chunk: [`LANES`] channel triples, or
    /// all `channels` when the batch does not fan out.
    fn stats_chunk(self, channels: usize) -> usize {
        3 * if self.fans_out() { LANES } else { channels }
    }
}

impl BnCore {
    fn new(channels: usize, spatial: usize) -> Self {
        assert!(channels > 0 && spatial > 0);
        BnCore {
            gamma: Param::new_no_decay(Tensor::ones(&[channels])),
            beta: Param::new_no_decay(Tensor::zeros(&[channels])),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            spatial,
            stats: vec![0.0; 3 * channels],
            planes: vec![0.0; 3 * channels],
            x_hat: Vec::new(),
            cached_rows: None,
        }
    }

    fn channels(&self) -> usize {
        self.gamma.value.len()
    }

    fn width(&self) -> usize {
        self.channels() * self.spatial
    }

    fn extra_state(&self) -> Vec<f32> {
        let mut v = self.running_mean.clone();
        v.extend_from_slice(&self.running_var);
        v
    }

    fn load_extra_state(&mut self, state: &[f32]) {
        let c = self.channels();
        assert_eq!(state.len(), 2 * c, "batch-norm state length mismatch");
        self.running_mean.copy_from_slice(&state[..c]);
        self.running_var.copy_from_slice(&state[c..]);
    }

    /// Normalises the row-major batch `x`: batch statistics (and a
    /// running-statistics update plus the `x̂` cache) in training, the
    /// running statistics in inference.
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let c = self.channels();
        let geo = Geom {
            n: x.dim(0),
            width: self.width(),
            s: self.spatial,
        };
        let planes = &mut self.planes;
        if train {
            assert!(geo.n > 0, "batch norm over zero positions");
            let chunk = geo.stats_chunk(c);
            par::par_chunks_mut(&mut self.stats, chunk, |k, st| {
                lane_group(Pass::Moments, x.data(), &[], geo, k * chunk / 3, st);
            });
            for (ch, st) in self.stats.chunks_exact(3).enumerate() {
                let (mean, var, inv_std) = (st[0], st[1], st[2]);
                self.running_mean[ch] = (1.0 - MOMENTUM) * self.running_mean[ch] + MOMENTUM * mean;
                self.running_var[ch] = (1.0 - MOMENTUM) * self.running_var[ch] + MOMENTUM * var;
                (planes[ch], planes[c + ch]) = (mean, inv_std);
            }
            self.x_hat.resize(geo.n * geo.width, 0.0);
            self.cached_rows = Some(geo.n);
        } else {
            for (ch, (&rm, &rv)) in self.running_mean.iter().zip(&self.running_var).enumerate() {
                (planes[ch], planes[c + ch]) = (rm, 1.0 / (rv + EPS).sqrt());
            }
        }
        let p = [
            &planes[..c],
            &planes[c..2 * c],
            self.gamma.value.data(),
            self.beta.value.data(),
        ];
        let mut out = Tensor::from_vec(scratch::take_stale(geo.n * geo.width), &[geo.n, geo.width]);
        let (width, chunk) = (geo.width, geo.chunk());
        // A literal arm for the 2×2 planes, whose runs are shorter than a
        // vector, lets the per-channel loop vectorise across channels.
        let row = |r: usize, y: &mut [f32], xh: Option<&mut [f32]>| match geo.s {
            4 => normalize_row(x.row_slice(r), y, xh, p, 4),
            s => normalize_row(x.row_slice(r), y, xh, p, s),
        };
        if train {
            par::par_chunks_mut2(
                out.data_mut(),
                chunk,
                &mut self.x_hat,
                chunk,
                |k, ys, xhs| {
                    let rows = ys.chunks_exact_mut(width).zip(xhs.chunks_exact_mut(width));
                    for (r, (y, xh)) in rows.enumerate() {
                        row(k * chunk / width + r, y, Some(xh));
                    }
                },
            );
        } else {
            par::par_chunks_mut(out.data_mut(), chunk, |k, ys| {
                for (r, y) in ys.chunks_exact_mut(width).enumerate() {
                    row(k * chunk / width + r, y, None);
                }
            });
        }
        out
    }

    /// Backward of the last training forward: `grad` is ∂loss/∂y; returns
    /// ∂loss/∂x and accumulates dγ/dβ serially in channel order.
    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let n = self
            .cached_rows
            .expect("BatchNorm::backward without a training forward");
        let c = self.channels();
        let geo = Geom {
            n,
            width: self.width(),
            s: self.spatial,
        };
        assert_eq!(grad.dims(), &[n, geo.width], "batch-norm gradient shape");
        let (x_hat, gamma) = (&self.x_hat, self.gamma.value.data());
        let chunk = geo.stats_chunk(c);
        par::par_chunks_mut(&mut self.stats, chunk, |k, st| {
            lane_group(Pass::Grads, grad.data(), x_hat, geo, k * chunk / 3, st);
        });
        let planes = &mut self.planes;
        let (dg, db) = (self.gamma.grad.data_mut(), self.beta.grad.data_mut());
        for (ch, st) in self.stats.chunks_exact(3).enumerate() {
            let (dgamma, dbeta, inv_std) = (st[0], st[1], st[2]);
            let scale = gamma[ch] * inv_std / geo.m();
            (planes[ch], planes[c + ch], planes[2 * c + ch]) = (dgamma, dbeta, scale);
            dg[ch] += dgamma;
            db[ch] += dbeta;
        }
        let p = [&planes[..c], &planes[c..2 * c], &planes[2 * c..]];
        let mut dx = Tensor::from_vec(scratch::take_stale(n * geo.width), &[n, geo.width]);
        let (width, chunk) = (geo.width, geo.chunk());
        par::par_chunks_mut(dx.data_mut(), chunk, |k, dxs| {
            for (r, dx) in dxs.chunks_exact_mut(width).enumerate() {
                let r = k * chunk / width + r;
                let (g, xh) = (grad.row_slice(r), &x_hat[r * width..(r + 1) * width]);
                match geo.s {
                    4 => input_grad_row(g, xh, dx, p, geo.m(), 4),
                    s => input_grad_row(g, xh, dx, p, geo.m(), s),
                }
            }
        });
        dx
    }
}

/// One row of the forward: `x̂ = (x − mean)·inv_std`, stored when `xh` is
/// given, and `y = γ·x̂ + β`. `p` is `[mean, inv_std, γ, β]`, one value
/// per channel, shared by the channel's run of `s` positions.
#[inline(always)]
fn normalize_row(x: &[f32], y: &mut [f32], xh: Option<&mut [f32]>, p: [&[f32]; 4], s: usize) {
    let [mean, inv_std, gamma, beta] = p;
    let params = mean.iter().zip(inv_std).zip(gamma.iter().zip(beta));
    let runs = x.chunks_exact(s).zip(y.chunks_exact_mut(s)).zip(params);
    match xh {
        Some(xh) => {
            for (((xs, ys), ((&mu, &is), (&ga, &be))), hs) in runs.zip(xh.chunks_exact_mut(s)) {
                for ((y, &xv), h) in ys.iter_mut().zip(xs).zip(hs) {
                    let v = (xv - mu) * is;
                    *h = v;
                    *y = ga * v + be;
                }
            }
        }
        None => {
            for ((xs, ys), ((&mu, &is), (&ga, &be))) in runs {
                for (y, &xv) in ys.iter_mut().zip(xs) {
                    *y = ga * ((xv - mu) * is) + be;
                }
            }
        }
    }
}

/// One row of the backward: `dx = scale·(m·g − dβ − x̂·dγ)`. `p` is
/// `[dγ, dβ, scale]`, one value per channel, shared by the channel's run
/// of `s` positions.
#[inline(always)]
fn input_grad_row(g: &[f32], xh: &[f32], dx: &mut [f32], p: [&[f32]; 3], m: f32, s: usize) {
    let [dgamma, dbeta, scale] = p;
    let params = dgamma.iter().zip(dbeta).zip(scale);
    let runs = g
        .chunks_exact(s)
        .zip(xh.chunks_exact(s))
        .zip(dx.chunks_exact_mut(s));
    for (((gs, hs), ds), ((&dga, &dbe), &sc)) in runs.zip(params) {
        for ((d, &gv), &h) in ds.iter_mut().zip(gs).zip(hs) {
            *d = sc * (m * gv - dbe - h * dga);
        }
    }
}

/// What a statistics group computes into its `[_, _, _]` triples.
#[derive(Clone, Copy)]
enum Pass {
    /// Forward: `[mean, var, inv_std]` of `a` (the input batch).
    Moments,
    /// Backward: `[dγ, dβ, _]` of `a` (∂loss/∂y) against `b` (`x̂`).
    Grads,
}

/// One statistics group: channels `c0..`, one triple each in `out`.
fn lane_group(pass: Pass, a: &[f32], b: &[f32], geo: Geom, c0: usize, out: &mut [f32]) {
    // A literal arm for the 2×2 planes lets the lane loops work on fixed
    // offsets.
    match geo.s {
        4 => lane_blocks(pass, a, b, Geom { s: 4, ..geo }, c0, out),
        _ => lane_blocks(pass, a, b, geo, c0, out),
    }
}

/// [`lane_group`] split into fixed-width lane blocks (8, 4, 2, 1
/// channels), so a group whose channel count is not a multiple of
/// [`LANES`] still runs constant-size bodies. Lane grouping never changes
/// a channel's own summation order.
#[inline(always)]
fn lane_blocks(pass: Pass, a: &[f32], b: &[f32], geo: Geom, c0: usize, out: &mut [f32]) {
    let lanes = out.len() / 3;
    let mut done = 0;
    while done < lanes {
        let (c, t) = (c0 + done, &mut out[3 * done..]);
        done += match lanes - done {
            8.. => lane_block::<8>(pass, a, b, geo, c, t),
            4..=7 => lane_block::<4>(pass, a, b, geo, c, t),
            2..=3 => lane_block::<2>(pass, a, b, geo, c, t),
            _ => lane_block::<1>(pass, a, b, geo, c, t),
        };
    }
}

/// `G` channels from `c0`, one accumulator lane each. Every lane sums its
/// channel over (image, position) in ascending order — the order of the
/// channel's values laid end to end — so its chain is the serial one:
/// the mean and variance sums start at `-0.0` like `Iterator::sum`, and
/// dγ/dβ at `+0.0`. Returns `G`.
#[inline(always)]
fn lane_block<const G: usize>(
    pass: Pass,
    a: &[f32],
    b: &[f32],
    geo: Geom,
    c0: usize,
    out: &mut [f32],
) -> usize {
    let (s, m) = (geo.s, geo.m());
    // Image `i`'s values of the block's channels, channel after channel.
    let block = |i: usize| {
        let start = i * geo.width + c0 * s;
        start..start + G * s
    };
    match pass {
        Pass::Moments => {
            let mut sum = [-0.0f32; G];
            for i in 0..geo.n {
                let xs = &a[block(i)];
                for p in 0..s {
                    for g in 0..G {
                        sum[g] += xs[g * s + p];
                    }
                }
            }
            let mean = sum.map(|v| v / m);
            let mut sq = [-0.0f32; G];
            for i in 0..geo.n {
                let xs = &a[block(i)];
                for p in 0..s {
                    for g in 0..G {
                        let d = xs[g * s + p] - mean[g];
                        sq[g] += d * d;
                    }
                }
            }
            for g in 0..G {
                let var = sq[g] / m;
                out[3 * g..3 * g + 3].copy_from_slice(&[mean[g], var, 1.0 / (var + EPS).sqrt()]);
            }
        }
        Pass::Grads => {
            let mut dgamma = [0.0f32; G];
            let mut dbeta = [0.0f32; G];
            for i in 0..geo.n {
                let (gs, xh) = (&a[block(i)], &b[block(i)]);
                for p in 0..s {
                    for g in 0..G {
                        let (gv, xv) = (gs[g * s + p], xh[g * s + p]);
                        dgamma[g] += gv * xv;
                        dbeta[g] += gv;
                    }
                }
            }
            for g in 0..G {
                (out[3 * g], out[3 * g + 1]) = (dgamma[g], dbeta[g]);
            }
        }
    }
    G
}

/// Implements [`Layer`] for a batch-norm layer by delegating to its core.
macro_rules! bn_layer {
    ($layer:ident, $name:literal) => {
        impl Layer for $layer {
            fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
                assert_eq!(x.dim(1), self.core.width(), concat!($name, " width"));
                self.core.forward(x, train)
            }

            fn backward(&mut self, grad: &Tensor) -> Tensor {
                self.core.backward(grad)
            }

            fn params(&mut self) -> Vec<&mut Param> {
                vec![&mut self.core.gamma, &mut self.core.beta]
            }

            fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
                f(&mut self.core.gamma);
                f(&mut self.core.beta);
            }

            fn out_features(&self, in_features: usize) -> usize {
                assert_eq!(in_features, self.core.width());
                in_features
            }

            fn extra_state(&self) -> Vec<f32> {
                self.core.extra_state()
            }

            fn load_extra_state(&mut self, state: &[f32]) {
                self.core.load_extra_state(state);
            }
        }
    };
}

/// Batch norm over channels of `C×H×W` volumes flattened into rows.
pub struct BatchNorm2d {
    core: BnCore,
}

impl BatchNorm2d {
    /// Normalises `channels` planes of `spatial = H·W` positions each.
    pub fn new(channels: usize, spatial: usize) -> Self {
        BatchNorm2d {
            core: BnCore::new(channels, spatial),
        }
    }
}

bn_layer!(BatchNorm2d, "BatchNorm2d");

/// Batch norm over plain feature columns: the `S = 1` case of the same
/// core.
pub struct BatchNorm1d {
    core: BnCore,
}

impl BatchNorm1d {
    /// Normalises each of `features` columns across the batch.
    pub fn new(features: usize) -> Self {
        BatchNorm1d {
            core: BnCore::new(features, 1),
        }
    }
}

bn_layer!(BatchNorm1d, "BatchNorm1d");

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batchnorm_bits::ChannelMajorBn;
    use eos_tensor::{central_difference, normal, rel_error, Rng64};

    #[test]
    fn bn2d_eval_fast_path_matches_channel_major_reference() {
        // The row-major eval pass must reproduce the channel-major eval
        // computation bit for bit (same per-element expression).
        let mut rng = Rng64::new(33);
        let (c, s, n) = (5, 12, 4);
        let mut bn = BatchNorm2d::new(c, s);
        for _ in 0..3 {
            let x = normal(&[n, c * s], 0.0, 1.5, &mut rng);
            let _ = bn.forward(&x, true);
        }
        let x = normal(&[n, c * s], 0.3, 2.0, &mut rng);
        let fast = bn.forward(&x, false);
        let mut reference = ChannelMajorBn::new(c, s);
        let state = bn.extra_state();
        reference.running_mean.copy_from_slice(&state[..c]);
        reference.running_var.copy_from_slice(&state[c..]);
        assert_eq!(fast.data(), reference.forward(&x, false).data());
    }

    #[test]
    fn harness_gradcheck_bn1d_and_bn2d_train_mode() {
        use crate::gradcheck::gradcheck_layer;
        let x1 = normal(&[6, 3], 0.5, 1.2, &mut Rng64::new(70));
        let c1 = normal(&[6, 3], 0.0, 1.0, &mut Rng64::new(71));
        let check = gradcheck_layer(
            "bn1d",
            &mut || Box::new(BatchNorm1d::new(3)),
            &x1,
            &c1,
            1e-2,
        );
        assert_eq!(check.checks.len(), 3, "input + gamma + beta");
        check.assert_below(1e-2);

        let x2 = normal(&[4, 2 * 4], 0.0, 1.0, &mut Rng64::new(72));
        let c2 = normal(&[4, 2 * 4], 0.0, 1.0, &mut Rng64::new(73));
        gradcheck_layer(
            "bn2d",
            &mut || Box::new(BatchNorm2d::new(2, 4)),
            &x2,
            &c2,
            1e-2,
        )
        .assert_below(1e-2);
    }

    #[test]
    fn normalises_training_batch() {
        let mut bn = BatchNorm1d::new(2);
        let x = Tensor::from_vec(vec![1.0, 10.0, 3.0, 30.0, 5.0, 50.0], &[3, 2]);
        let y = bn.forward(&x, true);
        // Each column should have ~zero mean and ~unit variance.
        let mean = y.mean_rows();
        let var = y.var_rows();
        assert!(mean.data().iter().all(|m| m.abs() < 1e-5));
        assert!(var.data().iter().all(|v| (v - 1.0).abs() < 1e-3));
    }

    #[test]
    fn eval_uses_running_statistics() {
        let mut bn = BatchNorm1d::new(1);
        let x = Tensor::from_vec(vec![4.0, 6.0], &[2, 1]);
        for _ in 0..200 {
            let _ = bn.forward(&x, true);
        }
        // Running mean converges to 5, var to 1 (biased).
        let y = bn.forward(&Tensor::from_vec(vec![5.0], &[1, 1]), false);
        assert!(y.data()[0].abs() < 0.05, "running-mean eval: {:?}", y);
    }

    #[test]
    fn bn2d_normalises_per_channel_not_per_pixel() {
        let mut bn = BatchNorm2d::new(2, 4);
        // Channel 0 values around 100, channel 1 around -7.
        let x = Tensor::from_vec(
            vec![
                99.0, 100.0, 101.0, 102.0, -8.0, -7.0, -6.0, -5.0, //
                98.0, 100.5, 100.0, 103.0, -9.0, -7.0, -7.0, -4.0,
            ],
            &[2, 8],
        );
        let y = bn.forward(&x, true);
        // Per-channel mean over batch+space ~ 0 for both channels.
        let ch0: f32 = (0..2)
            .map(|i| y.row_slice(i)[..4].iter().sum::<f32>())
            .sum();
        let ch1: f32 = (0..2)
            .map(|i| y.row_slice(i)[4..].iter().sum::<f32>())
            .sum();
        assert!(ch0.abs() < 1e-4);
        assert!(ch1.abs() < 1e-4);
    }

    #[test]
    fn repeated_batches_reuse_buffers_without_stale_values() {
        // Two different batches through the same layer: the second result
        // must not be contaminated by buffers left over from the first.
        let mut bn = BatchNorm2d::new(2, 4);
        let mut rng = Rng64::new(12);
        let a = normal(&[3, 8], 5.0, 2.0, &mut rng);
        let b = normal(&[3, 8], -1.0, 0.5, &mut rng);
        let _ = bn.forward(&a, true);
        let mut fresh = BatchNorm2d::new(2, 4);
        let y_fresh = fresh.forward(&b, true);
        let mut again = BatchNorm2d::new(2, 4);
        let _ = again.forward(&a, true);
        let y_reused = again.forward(&b, true);
        // Normalised output depends only on the batch (gamma/beta still at
        // identity), so warm and cold runs must agree exactly.
        assert_eq!(y_fresh.data(), y_reused.data());
    }

    #[test]
    fn gradcheck_bn1d() {
        let mut rng = Rng64::new(5);
        let x = normal(&[5, 3], 1.0, 2.0, &mut rng);
        let c = normal(&[5, 3], 0.0, 1.0, &mut rng);
        let mut bn = BatchNorm1d::new(3);
        // Non-trivial gamma/beta so the check exercises them.
        bn.params()[0].value = Tensor::from_vec(vec![1.5, 0.5, 2.0], &[3]);
        bn.params()[1].value = Tensor::from_vec(vec![0.1, -0.2, 0.3], &[3]);
        let g0 = bn.params()[0].value.clone();
        let b0 = bn.params()[1].value.clone();

        let _ = bn.forward(&x, true);
        let dx = bn.backward(&c);

        let run = |g: &Tensor, b: &Tensor, xin: &Tensor| -> f32 {
            let mut bn2 = BatchNorm1d::new(3);
            bn2.params()[0].value = g.clone();
            bn2.params()[1].value = b.clone();
            bn2.forward(xin, true).dot(&c)
        };
        let ndx = central_difference(&x, 1e-2, |p| run(&g0, &b0, p));
        assert!(rel_error(&dx, &ndx) < 2e-2, "bn input grad");
        let ndg = central_difference(&g0, 1e-2, |p| run(p, &b0, &x));
        assert!(
            rel_error(&bn.params()[0].grad, &ndg) < 2e-2,
            "bn gamma grad"
        );
        let ndb = central_difference(&b0, 1e-2, |p| run(&g0, p, &x));
        assert!(rel_error(&bn.params()[1].grad, &ndb) < 2e-2, "bn beta grad");
    }

    #[test]
    fn gradcheck_bn2d() {
        let mut rng = Rng64::new(6);
        let x = normal(&[3, 2 * 4], 0.5, 1.5, &mut rng);
        let c = normal(&[3, 2 * 4], 0.0, 1.0, &mut rng);
        let mut bn = BatchNorm2d::new(2, 4);
        let _ = bn.forward(&x, true);
        let dx = bn.backward(&c);
        let ndx = central_difference(&x, 1e-2, |p| {
            BatchNorm2d::new(2, 4).forward(p, true).dot(&c)
        });
        assert!(rel_error(&dx, &ndx) < 2e-2, "bn2d input grad");
    }

    #[test]
    fn bn_params_are_decay_exempt() {
        let mut bn = BatchNorm1d::new(4);
        assert!(bn.params().iter().all(|p| !p.decay));
    }
}
