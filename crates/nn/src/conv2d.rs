//! 2-D convolution: one batch-wide implicit-GEMM lowering (patch tiles
//! packed straight from the images), plus a direct kernel for batched
//! inference on wide unit-stride planes.

use crate::layer::{Layer, Param};
use eos_tensor::{
    conv2d_direct_fits, conv2d_direct_into, conv_input_grad_into, gemm_patches_nt_into,
    gemm_patches_segmented_acc_into, kaiming_uniform, pad_images_into, par, scratch,
    Conv2dGeometry, Rng64, Tensor,
};

/// Convolution over `(batch, C·H·W)` rows, each interpreted as a `C×H×W`
/// volume; outputs `(batch, O·H'·W')` rows.
pub struct Conv2d {
    weight: Param,
    bias: Option<Param>,
    geom: Conv2dGeometry,
    out_channels: usize,
    cache: Option<ConvCache>,
}

/// Per-batch cache: the batch's `n` input images as zero-padded planes
/// (laid out by `pad_images_into`), which the weight gradient re-packs
/// its patch tiles from. The buffer is refilled batch to batch within its
/// capacity, so the steady state allocates nothing.
struct ConvCache {
    padded: Vec<f32>,
    n: usize,
}

impl Conv2d {
    /// Creates a convolution with square kernels and Kaiming-uniform
    /// initialised weights. `geom` fixes the expected input volume.
    pub fn new(geom: Conv2dGeometry, out_channels: usize, bias: bool, rng: &mut Rng64) -> Self {
        assert!(out_channels > 0);
        let fan_in = geom.patch_len();
        let weight = Param::new(kaiming_uniform(&[out_channels, fan_in], fan_in, rng));
        let bias = bias.then(|| Param::new_no_decay(Tensor::zeros(&[out_channels])));
        Conv2d {
            weight,
            bias,
            geom,
            out_channels,
            cache: None,
        }
    }

    /// The convolution geometry.
    pub fn geometry(&self) -> Conv2dGeometry {
        self.geom
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Flat width of the expected input rows (`C·H·W`).
    pub fn in_len(&self) -> usize {
        self.geom.in_channels * self.geom.height * self.geom.width
    }

    /// Flat width of the produced output rows (`O·H'·W'`).
    pub fn out_len(&self) -> usize {
        self.out_channels * self.geom.patch_count()
    }

    /// Direct access to the `(out_channels, C·K·K)` weight matrix.
    pub fn weight(&self) -> &Tensor {
        &self.weight.value
    }
}

/// Adds `bias[ch]` to every value of channel `ch` of one channel-major
/// `(O, H'·W')` output row; a no-op without a bias.
fn add_bias(y: &mut [f32], bias: Option<&[f32]>, out_spatial: usize) {
    if let Some(bv) = bias {
        for (ch, row) in y.chunks_exact_mut(out_spatial).enumerate() {
            for v in row {
                *v += bv[ch];
            }
        }
    }
}

/// Batch-wide lowering: **one** GEMM `cols · Wᵀ` over all `n·H'W'` output
/// positions, where `cols` is the image-major `n·H'W' × C·K·K` patch matrix
/// of the batch — never built: its tiles are packed straight from the
/// batch's zero-padded planes `padded` (`gemm_patches_nt_into`), which
/// also transposes each image's `H'W' × O` block of the product into its
/// channel-major output row. The bias is added last.
///
/// Bit-identical to one `W · colsᵀ` GEMM per image: every output element
/// is still a single accumulator over the patch index ascending from zero,
/// with separate multiply and add, and the products commute. Putting the
/// output positions on the rows makes the GEMM's width `O` — whole
/// register panels at every width this repository trains — where a
/// per-image GEMM's width `H'W'` is 4 at a 2×2 output, short of one panel,
/// leaving every element to the masked scalar tail. The weights are packed
/// once per pass instead of once per image.
fn forward_batched(
    padded: &[f32],
    w: &[f32],
    bias: Option<&[f32]>,
    geom: &Conv2dGeometry,
    out: &mut [f32],
) {
    eos_trace::count!("nn.conv.lowering.batched_gemm", 1);
    gemm_patches_nt_into(padded, geom, w, out);
    if bias.is_some() {
        let out_spatial = geom.patch_count();
        for orow in out.chunks_exact_mut(w.len() / geom.patch_len() * out_spatial) {
            add_bias(orow, bias, out_spatial);
        }
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        assert_eq!(x.rank(), 2, "Conv2d expects (batch, C*H*W)");
        assert_eq!(
            x.dim(1),
            self.in_len(),
            "Conv2d fed rows of {} values, expected {}",
            x.dim(1),
            self.in_len()
        );
        let n = x.dim(0);
        let out_spatial = self.geom.patch_count();
        let out_len = self.out_len();
        let geom = self.geom;
        let w = &self.weight.value;
        let bias = self.bias.as_ref().map(|b| b.value.data());
        // Every lowering below writes every output element.
        let mut out = Tensor::from_vec(scratch::take_stale(n * out_len), &[n, out_len]);
        if train {
            // Keep the padded batch for the backward pass; the cached
            // buffer is refilled within its capacity batch to batch, so
            // the steady state allocates nothing.
            let mut padded = self.cache.take().map_or_else(Vec::new, |c| c.padded);
            pad_images_into(x.data(), &geom, &mut padded);
            forward_batched(&padded, w.data(), bias, &geom, out.data_mut());
            self.cache = Some(ConvCache { padded, n });
        } else if n > 1 && conv2d_direct_fits(&geom) {
            // Batched inference on wide spatial planes: direct
            // register-blocked convolution — no patch matrix at all.
            // Bit-identical to the batch-wide lowering (see
            // `conv2d_direct_into`).
            eos_trace::count!("nn.conv.lowering.direct", 1);
            par::par_chunks_mut(out.data_mut(), out_len, |i, orow| {
                conv2d_direct_into(x.row_slice(i), w.data(), orow, &geom);
                add_bias(orow, bias, out_spatial);
            });
        } else {
            // Every other inference call, single images included: the
            // training lowering, with the padded batch in pooled scratch.
            let mut padded = scratch::take_cleared(n * geom.padded_len());
            pad_images_into(x.data(), &geom, &mut padded);
            forward_batched(&padded, w.data(), bias, &geom, out.data_mut());
            scratch::give(padded);
        }
        out
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        self.backward_params(grad);
        // dx_i = col2im(g_iᵀ (H'W'×O) · W (O×CKK)) for every image, in one
        // output-stationary pass that never builds the patch gradient; the
        // kernel writes every element of `dx`.
        let n = grad.dim(0);
        let mut dx = Tensor::from_vec(scratch::take_stale(n * self.in_len()), &[n, self.in_len()]);
        conv_input_grad_into(
            grad.data(),
            self.weight.value.data(),
            &self.geom,
            dx.data_mut(),
        );
        dx
    }

    /// The weight and bias gradients only: no input gradient `dx`. A
    /// network's first convolution (the stem) takes this path, since
    /// nothing reads the gradient with respect to the images.
    fn backward_params(&mut self, grad: &Tensor) {
        let cache = self
            .cache
            .as_ref()
            .expect("Conv2d::backward without a training forward");
        let n = cache.n;
        assert_eq!(grad.dims(), &[n, self.out_len()]);
        let geom = self.geom;
        let out_spatial = geom.patch_count();
        let oc = self.out_channels;
        // `grad` stacks one (O × H'W') block per image.
        let g = grad.data();
        // dW += Σ_i g_i (O×H'W') · cols_i (H'W'×CKK) as one segmented-K
        // GEMM: each image's H'W' positions are one segment, summed from
        // zero and then added to dW in image order — the sequence of
        // forming every image's dW_i and accumulating `dW += dW_i` one
        // image after another, without the per-image partials. The
        // patch tiles are re-packed from the cached padded input.
        gemm_patches_segmented_acc_into(g, &cache.padded, &geom, self.weight.grad.data_mut());
        if let Some(b) = &mut self.bias {
            for gi in g.chunks_exact(oc * out_spatial) {
                for (bv, grow) in b
                    .grad
                    .data_mut()
                    .iter_mut()
                    .zip(gi.chunks_exact(out_spatial))
                {
                    *bv += grow.iter().sum::<f32>();
                }
            }
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
        assert_eq!(in_features, self.in_len());
        self.out_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eos_tensor::{central_difference, normal, rel_error};

    fn geom(c: usize, h: usize, w: usize, k: usize, s: usize, p: usize) -> Conv2dGeometry {
        Conv2dGeometry {
            in_channels: c,
            height: h,
            width: w,
            kernel: k,
            stride: s,
            pad: p,
        }
    }

    #[test]
    fn one_by_one_kernel_is_channel_mix() {
        // A 1x1 conv with weight [[2.0]] doubles the single channel.
        let mut rng = Rng64::new(0);
        let mut conv = Conv2d::new(geom(1, 2, 2, 1, 1, 0), 1, false, &mut rng);
        conv.params()[0].value = Tensor::from_vec(vec![2.0], &[1, 1]);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 4]);
        let y = conv.forward(&x, false);
        assert_eq!(y.data(), &[2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn averaging_kernel_smooths() {
        // 3x3 kernel of 1/9 on constant input reproduces the constant in
        // the interior (padding shrinks border sums).
        let mut rng = Rng64::new(0);
        let mut conv = Conv2d::new(geom(1, 3, 3, 3, 1, 1), 1, false, &mut rng);
        conv.params()[0].value = Tensor::full(&[1, 9], 1.0 / 9.0);
        let x = Tensor::full(&[1, 9], 9.0);
        let y = conv.forward(&x, false);
        assert_eq!(y.dims(), &[1, 9]);
        assert!((y.at(&[0, 4]) - 9.0).abs() < 1e-5, "interior pixel");
        assert!((y.at(&[0, 0]) - 4.0).abs() < 1e-5, "corner sees 4 pixels");
    }

    #[test]
    fn stride_two_downsamples() {
        let mut rng = Rng64::new(0);
        let mut conv = Conv2d::new(geom(2, 4, 4, 3, 2, 1), 5, true, &mut rng);
        let x = normal(&[3, 32], 0.0, 1.0, &mut rng);
        let y = conv.forward(&x, false);
        assert_eq!(y.dims(), &[3, 5 * 2 * 2]);
    }

    #[test]
    fn train_and_inference_forward_agree() {
        // Training caches its padded input, inference does not; both
        // run the same batch-wide GEMM, so their outputs must match bit
        // for bit.
        let mut rng = Rng64::new(11);
        let g = geom(2, 4, 4, 3, 1, 1);
        let mut conv = Conv2d::new(g, 4, true, &mut rng);
        let x = normal(&[3, 32], 0.0, 1.0, &mut rng);
        let y_train = conv.forward(&x, true);
        let y_eval = conv.forward(&x, false);
        assert_eq!(y_train.data(), y_eval.data());
    }

    #[test]
    fn harness_gradcheck_stride_and_padding_variants() {
        use crate::gradcheck::gradcheck_layer;
        // Unit stride + pad, stride 2, and no padding, on a non-square
        // volume; every variant must pass on input, weight and bias.
        for (g, name) in [
            (geom(2, 5, 4, 3, 1, 1), "s1 p1"),
            (geom(2, 5, 4, 3, 2, 1), "s2 p1"),
            (geom(1, 4, 4, 2, 2, 0), "s2 p0"),
        ] {
            let x = normal(
                &[2, g.in_channels * g.height * g.width],
                0.0,
                1.0,
                &mut Rng64::new(60),
            );
            let probe = Conv2d::new(g, 3, true, &mut Rng64::new(61));
            let c = normal(&[2, probe.out_len()], 0.0, 1.0, &mut Rng64::new(62));
            let check = gradcheck_layer(
                name,
                &mut || Box::new(Conv2d::new(g, 3, true, &mut Rng64::new(61))),
                &x,
                &c,
                1e-2,
            );
            assert_eq!(check.checks.len(), 3, "{name}: input + weight + bias");
            check.assert_below(1e-2);
        }
    }

    #[test]
    fn gradcheck_input_weight_bias() {
        let mut rng = Rng64::new(7);
        let g = geom(2, 4, 3, 3, 2, 1);
        let mut conv = Conv2d::new(g, 3, true, &mut rng);
        let x = normal(&[2, g.in_channels * g.height * g.width], 0.0, 1.0, &mut rng);
        let c = normal(&[2, conv.out_len()], 0.0, 1.0, &mut rng);

        conv.zero_grad();
        let _ = conv.forward(&x, true);
        let dx = conv.backward(&c);

        let w0 = conv.weight().clone();
        let b0 = conv.bias.as_ref().unwrap().value.clone();
        let run = |w: &Tensor, b: &Tensor, xin: &Tensor| -> f32 {
            let mut c2 = Conv2d::new(g, 3, true, &mut Rng64::new(0));
            c2.params()[0].value = w.clone();
            c2.params()[1].value = b.clone();
            c2.forward(xin, false).dot(&c)
        };

        let ndx = central_difference(&x, 1e-2, |p| run(&w0, &b0, p));
        assert!(rel_error(&dx, &ndx) < 2e-2, "conv input grad");

        let ndw = central_difference(&w0, 1e-2, |p| run(p, &b0, &x));
        assert!(
            rel_error(&conv.params()[0].grad, &ndw) < 2e-2,
            "conv weight grad"
        );

        let ndb = central_difference(&b0, 1e-2, |p| run(&w0, p, &x));
        assert!(
            rel_error(&conv.params()[1].grad, &ndb) < 2e-2,
            "conv bias grad"
        );
    }

    #[test]
    fn batch_independence() {
        // Each sample's output depends only on its own row.
        let mut rng = Rng64::new(3);
        let g = geom(1, 3, 3, 3, 1, 1);
        let mut conv = Conv2d::new(g, 2, false, &mut rng);
        let a = normal(&[1, 9], 0.0, 1.0, &mut rng);
        let b = normal(&[1, 9], 0.0, 1.0, &mut rng);
        let both = Tensor::concat_rows(&[&a, &b]);
        let y_both = conv.forward(&both, false);
        let y_a = conv.forward(&a, false);
        assert_eq!(y_both.row_slice(0), y_a.row_slice(0));
    }

    #[test]
    fn batched_eval_matches_single_image_bits() {
        // 4×4 input with pad 1 keeps a 4×4 = 16-patch output, too narrow
        // for the direct kernel, so every eval forward takes the
        // batch-wide GEMM. Each row of a 6-image batch must be
        // bit-identical to forwarding that image alone.
        let mut rng = Rng64::new(21);
        let g = geom(3, 4, 4, 3, 1, 1);
        let mut conv = Conv2d::new(g, 5, true, &mut rng);
        let x = normal(&[6, 48], 0.0, 1.0, &mut rng);
        let y = conv.forward(&x, false);
        for i in 0..6 {
            let xi = Tensor::from_vec(x.row_slice(i).to_vec(), &[1, 48]);
            let yi = conv.forward(&xi, false);
            assert_eq!(y.row_slice(i), yi.row_slice(0), "image {i}");
        }
        // And the batch-wide train-mode forward agrees too.
        let y_train = conv.forward(&x, true);
        assert_eq!(y.data(), y_train.data());
    }

    #[test]
    fn partial_panel_shapes_take_the_batch_wide_path_and_stay_batch_invariant() {
        // A 3×3 output is 9 patches — not a whole GEMM panel — and eval
        // takes the batch-wide GEMM at every batch size; each row of a
        // batch must still be bit-identical to forwarding that image
        // alone.
        let mut rng = Rng64::new(22);
        let g = geom(2, 3, 3, 3, 1, 1);
        let mut conv = Conv2d::new(g, 4, true, &mut rng);
        let x = normal(&[5, 18], 0.0, 1.0, &mut rng);
        let y = conv.forward(&x, false);
        for i in 0..5 {
            let xi = Tensor::from_vec(x.row_slice(i).to_vec(), &[1, 18]);
            let yi = conv.forward(&xi, false);
            assert_eq!(y.row_slice(i), yi.row_slice(0), "image {i}");
        }
    }

    #[test]
    fn param_count_matches_formula() {
        let mut rng = Rng64::new(1);
        let mut conv = Conv2d::new(geom(3, 8, 8, 3, 1, 1), 16, true, &mut rng);
        assert_eq!(conv.param_count(), 16 * 3 * 3 * 3 + 16);
    }
}
