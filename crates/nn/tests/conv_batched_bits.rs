//! Bit-exactness of the batch-wide convolution lowering.
//!
//! `Conv2d` runs each training pass as one GEMM over the whole batch: the
//! forward over all `n·H'W'` output positions, the input gradient over
//! all positions again, and the weight gradient as one segmented-K GEMM
//! whose segments are the images. These tests pin every output bit of
//! those passes — forward output, input gradient, weight and bias
//! gradients — against a reference written here with the per-image loops
//! and accumulation order of the original lowering (one GEMM per image,
//! per-image dW/db partials reduced serially in image order). They sweep
//! the geometries the ResNets use (2×2 stage-3 outputs, 1×1 stride-2
//! shortcuts, the 3-channel stem, an 8×8 → 4×4 stage entry, a 16×16
//! body that batched eval runs through the direct kernel) plus a
//! non-square input and pad 0, batch sizes 1, 3 and 32 with and without
//! bias, two accumulating passes without `zero_grad`, thread budgets
//! 1/2/4, and both the wide and the forced-scalar GEMM kernel.

use eos_nn::{Conv2d, Layer};
use eos_tensor::{
    col2im_into, im2col_into, normal, par, set_force_scalar_kernel, Conv2dGeometry, Rng64, Tensor,
};
use std::sync::Mutex;

/// The thread budget and the kernel toggle are process-global; every test
/// in this binary that touches them must hold this lock.
static LOCK: Mutex<()> = Mutex::new(());

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

/// `(name, geometry, out_channels)` for every swept layer shape.
fn shapes() -> Vec<(&'static str, Conv2dGeometry, usize)> {
    vec![
        ("stem 3x8x8", geom(3, 8, 8, 3, 1, 1), 8),
        ("stage-3 entry 4x4 s2 -> 2x2", geom(16, 4, 4, 3, 2, 1), 32),
        ("stage-3 body 2x2", geom(8, 2, 2, 3, 1, 1), 16),
        ("1x1 s2 shortcut", geom(8, 4, 4, 1, 2, 0), 16),
        ("non-square 5x7", geom(2, 5, 7, 3, 1, 1), 5),
        ("pad 0", geom(3, 6, 5, 3, 1, 0), 4),
        ("wide 16x16 body", geom(8, 16, 16, 3, 1, 1), 8),
        ("stage entry 8x8 s2 -> 4x4", geom(8, 8, 8, 3, 2, 1), 16),
    ]
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Reference convolution state: weights, optional bias and accumulated
/// gradients, updated with the original per-image lowering's sums.
struct Reference {
    geom: Conv2dGeometry,
    oc: usize,
    w: Vec<f32>,
    b: Option<Vec<f32>>,
    dw: Vec<f32>,
    db: Vec<f32>,
}

impl Reference {
    fn cols(&self, image: &[f32]) -> Vec<f32> {
        let mut cols = vec![0.0; self.geom.patch_count() * self.geom.patch_len()];
        im2col_into(image, &self.geom, &mut cols);
        cols
    }

    /// `y_i[o, s] = Σ_c w[o, c]·cols_i[s, c]` from `0.0`, ascending `c`,
    /// then `+ b[o]`.
    fn forward(&self, x: &Tensor) -> Vec<f32> {
        let (hw, plen) = (self.geom.patch_count(), self.geom.patch_len());
        let mut y = Vec::new();
        for i in 0..x.dim(0) {
            let cols = self.cols(x.row_slice(i));
            for o in 0..self.oc {
                for s in 0..hw {
                    let mut acc = 0.0f32;
                    for c in 0..plen {
                        acc += self.w[o * plen + c] * cols[s * plen + c];
                    }
                    if let Some(b) = &self.b {
                        acc += b[o];
                    }
                    y.push(acc);
                }
            }
        }
        y
    }

    /// Per image: `dW_i[o, c] = Σ_s g_i[o, s]·cols_i[s, c]` and
    /// `db_i[o] = Σ_s g_i[o, s]` from zero, added to the gradients in
    /// image order; `dcols_i[s, c] = Σ_o g_i[o, s]·w[o, c]` from zero,
    /// ascending `o`, folded back by `col2im`.
    fn backward(&mut self, x: &Tensor, g: &Tensor) -> Vec<f32> {
        let (hw, plen) = (self.geom.patch_count(), self.geom.patch_len());
        let in_len = x.dim(1);
        let mut dx = vec![0.0; x.dim(0) * in_len];
        for i in 0..x.dim(0) {
            let cols = self.cols(x.row_slice(i));
            let gi = g.row_slice(i);
            for o in 0..self.oc {
                for c in 0..plen {
                    let mut acc = 0.0f32;
                    for s in 0..hw {
                        acc += gi[o * hw + s] * cols[s * plen + c];
                    }
                    self.dw[o * plen + c] += acc;
                }
                if self.b.is_some() {
                    let sum: f32 = gi[o * hw..(o + 1) * hw].iter().sum();
                    self.db[o] += sum;
                }
            }
            let mut dcols = vec![0.0f32; hw * plen];
            for s in 0..hw {
                for c in 0..plen {
                    let mut acc = 0.0f32;
                    for o in 0..self.oc {
                        acc += gi[o * hw + s] * self.w[o * plen + c];
                    }
                    dcols[s * plen + c] = acc;
                }
            }
            col2im_into(&dcols, &self.geom, &mut dx[i * in_len..(i + 1) * in_len]);
        }
        dx
    }
}

/// A layer and a matching reference with identical, nonzero parameters.
fn pair(g: Conv2dGeometry, oc: usize, bias: bool, seed: u64) -> (Conv2d, Reference) {
    let mut rng = Rng64::new(seed);
    let mut conv = Conv2d::new(g, oc, bias, &mut rng);
    let b = bias.then(|| normal(&[oc], 0.0, 0.5, &mut rng));
    if let Some(b) = &b {
        conv.params()[1].value = b.clone();
    }
    let reference = Reference {
        geom: g,
        oc,
        w: conv.weight().data().to_vec(),
        b: b.map(|b| b.data().to_vec()),
        dw: vec![0.0; oc * g.patch_len()],
        db: vec![0.0; oc],
    };
    (conv, reference)
}

/// Two train passes (forward + backward, no `zero_grad` between them) and
/// an eval forward, checked bit for bit against the reference.
fn check(name: &str, g: Conv2dGeometry, oc: usize, n: usize, bias: bool) {
    let (mut conv, mut reference) = pair(g, oc, bias, 7 + n as u64);
    let mut rng = Rng64::new(100 + n as u64);
    let label = format!("{name}, n={n}, bias={bias}");
    for pass in 0..2 {
        let x = normal(&[n, conv.in_len()], 0.0, 1.0, &mut rng);
        let gy = normal(&[n, conv.out_len()], 0.0, 1.0, &mut rng);
        let y = conv.forward(&x, true);
        assert_eq!(
            bits(y.data()),
            bits(&reference.forward(&x)),
            "{label}: forward, pass {pass}"
        );
        let dx = conv.backward(&gy);
        assert_eq!(
            bits(dx.data()),
            bits(&reference.backward(&x, &gy)),
            "{label}: dx, pass {pass}"
        );
        let params = conv.params();
        assert_eq!(
            bits(params[0].grad.data()),
            bits(&reference.dw),
            "{label}: dW, pass {pass}"
        );
        if bias {
            assert_eq!(
                bits(params[1].grad.data()),
                bits(&reference.db),
                "{label}: db, pass {pass}"
            );
        }
    }
    let x = normal(&[n, conv.in_len()], 0.0, 1.0, &mut rng);
    assert_eq!(
        bits(conv.forward(&x, false).data()),
        bits(&reference.forward(&x)),
        "{label}: eval forward"
    );
}

fn sweep(threads: usize, force_scalar: bool) {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let restore = par::num_threads();
    par::set_num_threads(threads);
    set_force_scalar_kernel(force_scalar);
    for (name, g, oc) in shapes() {
        for n in [1usize, 3, 32] {
            for bias in [false, true] {
                check(name, g, oc, n, bias);
            }
        }
    }
    set_force_scalar_kernel(false);
    par::set_num_threads(restore);
}

#[test]
fn batched_passes_match_per_image_reference_serial() {
    sweep(1, false);
}

#[test]
fn batched_passes_match_per_image_reference_at_two_threads() {
    sweep(2, false);
}

#[test]
fn batched_passes_match_per_image_reference_at_four_threads() {
    sweep(4, false);
}

#[test]
fn batched_passes_match_per_image_reference_with_scalar_kernel() {
    sweep(1, true);
    sweep(4, true);
}
