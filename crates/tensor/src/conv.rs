//! `im2col`/`col2im` lowering used by the convolution layers.
//!
//! A convolution over an `N×C×H×W` batch with `K×K` kernels, stride `s` and
//! padding `p` is computed as a GEMM between the unfolded input patches
//! (`im2col`) and the flattened weight matrix. `col2im` is the adjoint
//! (scatter-add) used in the backward pass.

use crate::tensor::Tensor;

/// Static geometry of a 2-D convolution: input size, kernel, stride, pad.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dGeometry {
    /// Input channels.
    pub in_channels: usize,
    /// Input height.
    pub height: usize,
    /// Input width.
    pub width: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Stride in both directions.
    pub stride: usize,
    /// Zero padding on every border.
    pub pad: usize,
}

impl Conv2dGeometry {
    /// Output spatial height.
    pub fn out_height(&self) -> usize {
        (self.height + 2 * self.pad - self.kernel) / self.stride + 1
    }

    /// Output spatial width.
    pub fn out_width(&self) -> usize {
        (self.width + 2 * self.pad - self.kernel) / self.stride + 1
    }

    /// Rows of the unfolded patch matrix per image: `out_h * out_w`.
    pub fn patch_count(&self) -> usize {
        self.out_height() * self.out_width()
    }

    /// Columns of the unfolded patch matrix: `C * K * K`.
    pub fn patch_len(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    fn check(&self) {
        assert!(self.kernel > 0 && self.stride > 0, "degenerate geometry");
        assert!(
            self.height + 2 * self.pad >= self.kernel && self.width + 2 * self.pad >= self.kernel,
            "kernel larger than padded input"
        );
    }
}

/// Unfolds one image (`C×H×W`, flattened) into a `(out_h*out_w) × (C*K*K)`
/// patch matrix.
pub fn im2col(image: &[f32], geom: &Conv2dGeometry) -> Tensor {
    geom.check();
    let mut out = vec![0.0f32; geom.patch_count() * geom.patch_len()];
    im2col_into(image, geom, &mut out);
    Tensor::from_vec(out, &[geom.patch_count(), geom.patch_len()])
}

/// [`im2col`] into a caller-owned buffer of `patch_count() × patch_len()`
/// elements, so batch loops can reuse one scratch allocation per worker
/// instead of allocating per image. The buffer is fully overwritten:
/// every element is written exactly once, padding taps included, so no
/// zero pre-fill is needed.
pub fn im2col_into(image: &[f32], geom: &Conv2dGeometry, out: &mut [f32]) {
    geom.check();
    let (c, h, w) = (geom.in_channels, geom.height, geom.width);
    assert_eq!(image.len(), c * h * w, "image buffer size mismatch");
    assert_eq!(
        out.len(),
        geom.patch_count() * geom.patch_len(),
        "im2col buffer size"
    );
    // Literal arms give the kernel widths the models use constant-folded
    // copies of the row runs; the last arm serves every other width.
    match geom.kernel {
        1 => unfold_rows(image, geom, out, 1),
        3 => unfold_rows(image, geom, out, 3),
        k => unfold_rows(image, geom, out, k),
    }
}

/// The horizontal extent of output column `ox`'s window: its first input
/// column `ix0` (may be negative), and the tap range `lo..hi` of `0..k`
/// that lands inside the `w`-wide input row. `lo == 0 && hi == k` is an
/// interior window.
#[inline(always)]
fn window_span(ox: usize, geom: &Conv2dGeometry, k: usize) -> (isize, usize, usize) {
    let ix0 = (ox * geom.stride) as isize - geom.pad as isize;
    let lo = (-ix0).clamp(0, k as isize);
    let hi = (geom.width as isize - ix0).clamp(lo, k as isize);
    (ix0, lo as usize, hi as usize)
}

/// Body of [`im2col_into`] for kernel width `k`. Output positions are
/// walked in patch-matrix row order; each `(channel, ky)` run of `k` taps
/// is one zero fill when its input row is padding, one slice copy when
/// the window lies inside the row, and a per-tap clipped copy only at the
/// left and right borders.
#[inline(always)]
fn unfold_rows(image: &[f32], geom: &Conv2dGeometry, out: &mut [f32], k: usize) {
    let (c, h, w) = (geom.in_channels, geom.height, geom.width);
    let (oh, ow) = (geom.out_height(), geom.out_width());
    let (s, p) = (geom.stride, geom.pad);
    let mut patches = out.chunks_exact_mut(c * k * k);
    for oy in 0..oh {
        for ox in 0..ow {
            let patch = patches.next().unwrap();
            let (ix0, lo, hi) = window_span(ox, geom, k);
            let interior = lo == 0 && hi == k;
            for (ch, cpatch) in patch.chunks_exact_mut(k * k).enumerate() {
                let plane = &image[ch * h * w..][..h * w];
                for (ky, dst) in cpatch.chunks_exact_mut(k).enumerate() {
                    let iy = (oy * s + ky) as isize - p as isize;
                    if iy < 0 || iy >= h as isize {
                        dst.fill(0.0);
                        continue;
                    }
                    let src = &plane[iy as usize * w..][..w];
                    if interior {
                        dst.copy_from_slice(&src[ix0 as usize..][..k]);
                    } else {
                        for (kx, d) in dst.iter_mut().enumerate() {
                            *d = if (lo..hi).contains(&kx) {
                                src[(ix0 + kx as isize) as usize]
                            } else {
                                0.0
                            };
                        }
                    }
                }
            }
        }
    }
}

/// Direct (un-lowered) convolution of one image: `out[o] = Σ_p w[o, p] ·
/// shift_p(image)` — the inference fast path that never materialises a
/// patch matrix at all.
///
/// `weight` is the flattened `O × (C·K·K)` kernel, `out` the `O ×
/// (H'·W')` channel-major output (fully overwritten). **Bit-identical**
/// to unfolding with [`im2col`] and multiplying with
/// [`crate::gemm_nt_into`]: the input is first copied into an explicitly
/// zero-padded plane (so padding taps contribute the same `w · 0.0`
/// products the zero-filled patch matrix feeds the GEMM), and every
/// output element is one register accumulator starting from `+0.0` that
/// adds separate-`mul`-then-`add` products over ascending tap index
/// `p = (ch·K + ky)·K + kx` — exactly the GEMM's reduction order, with
/// no fused multiply-add on any path.
///
/// The register-blocked fast kernel serves unit stride with `W'` a whole
/// number of vector rows; other geometries fall through to a portable
/// interval-clipped loop with the same accumulation order.
pub fn conv2d_direct_into(image: &[f32], weight: &[f32], out: &mut [f32], geom: &Conv2dGeometry) {
    geom.check();
    let (c, h, w) = (geom.in_channels, geom.height, geom.width);
    assert_eq!(image.len(), c * h * w, "image buffer size mismatch");
    let plen = geom.patch_len();
    assert_eq!(weight.len() % plen, 0, "weight not whole O×CKK rows");
    assert_eq!(
        out.len() * plen,
        weight.len() * geom.patch_count(),
        "output buffer size mismatch"
    );
    let (ph, pw) = (h + 2 * geom.pad, w + 2 * geom.pad);
    let mut padded = crate::scratch::take_zeroed(c * ph * pw);
    for ch in 0..c {
        let plane = &image[ch * h * w..(ch + 1) * h * w];
        let dst = &mut padded[ch * ph * pw..];
        for y in 0..h {
            dst[(y + geom.pad) * pw + geom.pad..][..w].copy_from_slice(&plane[y * w..][..w]);
        }
    }
    #[cfg(target_arch = "x86_64")]
    if crate::matmul::wide_kernel_enabled() {
        // SAFETY: the avx2 requirement was just checked at runtime.
        unsafe {
            conv2d_direct_avx2(&padded, weight, out, geom);
        }
        crate::scratch::give(padded);
        return;
    }
    conv2d_direct_kernel(&padded, weight, out, geom);
    crate::scratch::give(padded);
}

/// Whether batched inference on `geom` takes [`conv2d_direct_into`]:
/// unit stride, an even number of output rows, and `W'` a whole number
/// of 16-column register blocks. Other geometries go through the im2col
/// GEMM.
pub fn conv2d_direct_fits(geom: &Conv2dGeometry) -> bool {
    geom.stride == 1
        && geom.out_width().is_multiple_of(2 * DIRECT_LANES)
        && geom.out_height().is_multiple_of(2)
}

/// Output columns one direct-conv accumulator block spans: one full
/// AVX2 `f32` vector per block keeps the whole block in registers across
/// the tap reduction.
const DIRECT_LANES: usize = 8;

/// [`conv2d_direct_kernel`] compiled with AVX2 enabled (never `fma`, for
/// the same bit-identity argument as the GEMM's wide micro-kernel): the
/// block-wide inner updates use full-width vector registers while every
/// element still performs separate `mul` then `add`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn conv2d_direct_avx2(padded: &[f32], weight: &[f32], out: &mut [f32], geom: &Conv2dGeometry) {
    conv2d_direct_kernel(padded, weight, out, geom);
}

/// One `R`-row × `OW`-column register block of the direct convolution:
/// `R·OW` accumulators start at `+0.0`, sweep the taps once in ascending
/// `p` order (each weight broadcast feeding all `R` rows), and store to
/// the output plane exactly once. Requires `OW == W'` (rows are full
/// output rows) and `oy + R <= H'`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn direct_block<const OW: usize, const R: usize>(
    padded: &[f32],
    wrow: &[f32],
    oplane: &mut [f32],
    oy: usize,
    c: usize,
    k: usize,
    ph: usize,
    pw: usize,
) {
    let mut acc = [[0.0f32; OW]; R];
    let mut pidx = 0usize;
    for ch in 0..c {
        let plane = &padded[ch * ph * pw..(ch + 1) * ph * pw];
        for ky in 0..k {
            let srows = &plane[(oy + ky) * pw..];
            for kx in 0..k {
                let wv = wrow[pidx];
                pidx += 1;
                for (r, row) in acc.iter_mut().enumerate() {
                    let sv: &[f32; OW] = srows[r * pw + kx..][..OW].try_into().unwrap();
                    for (a, &x) in row.iter_mut().zip(sv) {
                        *a += wv * x;
                    }
                }
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        oplane[(oy + r) * OW..(oy + r + 1) * OW].copy_from_slice(row);
    }
}

/// Body of [`conv2d_direct_into`] over the zero-padded input. For unit
/// stride with `W'` a whole number of [`DIRECT_LANES`] blocks, each
/// block of output columns accumulates in registers across the whole tap
/// loop (double-width blocks first, to amortise the weight broadcast
/// over two vectors) and stores once. Other geometries use an
/// interval-free scalar loop over the padded plane — identical
/// per-element operation sequence, just without the register blocking.
#[inline(always)]
fn conv2d_direct_kernel(padded: &[f32], weight: &[f32], out: &mut [f32], geom: &Conv2dGeometry) {
    let c = geom.in_channels;
    let (oh, ow) = (geom.out_height(), geom.out_width());
    let (k, s) = (geom.kernel, geom.stride);
    let (ph, pw) = (geom.height + 2 * geom.pad, geom.width + 2 * geom.pad);
    let plen = geom.patch_len();
    let osp = oh * ow;
    let fast = s == 1 && ow % DIRECT_LANES == 0;
    for (o, oplane) in out.chunks_exact_mut(osp).enumerate() {
        let wrow = &weight[o * plen..][..plen];
        // Several vector accumulators per block, so one weight broadcast
        // feeds several vectors' worth of columns and the add chains of
        // independent accumulators overlap: wide planes take four
        // 16-column rows per block (eight vectors), vector-narrow planes
        // four 8-column rows. Adjacent output rows are contiguous in the
        // output plane; their source rows are one padded row apart.
        // Planes with `H'` not a multiple of 4 take the per-row loop.
        if fast && ow == 2 * DIRECT_LANES && oh % 4 == 0 {
            for oy in (0..oh).step_by(4) {
                direct_block::<16, 4>(padded, wrow, oplane, oy, c, k, ph, pw);
            }
            continue;
        }
        if fast && ow == DIRECT_LANES && oh % 4 == 0 {
            for oy in (0..oh).step_by(4) {
                direct_block::<8, 4>(padded, wrow, oplane, oy, c, k, ph, pw);
            }
            continue;
        }
        for oy in 0..oh {
            let dst = &mut oplane[oy * ow..][..ow];
            if fast {
                let mut xb = 0;
                // Double-width blocks: one weight broadcast feeds two
                // vectors' worth of columns.
                while xb + 2 * DIRECT_LANES <= ow {
                    let mut acc = [0.0f32; 2 * DIRECT_LANES];
                    let mut pidx = 0usize;
                    for ch in 0..c {
                        let plane = &padded[ch * ph * pw..(ch + 1) * ph * pw];
                        for ky in 0..k {
                            let srow = &plane[(oy + ky) * pw..][..pw];
                            for kx in 0..k {
                                let wv = wrow[pidx];
                                pidx += 1;
                                let sv = &srow[xb + kx..][..2 * DIRECT_LANES];
                                for (a, &x) in acc.iter_mut().zip(sv) {
                                    *a += wv * x;
                                }
                            }
                        }
                    }
                    dst[xb..xb + 2 * DIRECT_LANES].copy_from_slice(&acc);
                    xb += 2 * DIRECT_LANES;
                }
                while xb < ow {
                    let mut acc = [0.0f32; DIRECT_LANES];
                    let mut pidx = 0usize;
                    for ch in 0..c {
                        let plane = &padded[ch * ph * pw..(ch + 1) * ph * pw];
                        for ky in 0..k {
                            let srow = &plane[(oy + ky) * pw..][..pw];
                            for kx in 0..k {
                                let wv = wrow[pidx];
                                pidx += 1;
                                let sv = &srow[xb + kx..][..DIRECT_LANES];
                                for (a, &x) in acc.iter_mut().zip(sv) {
                                    *a += wv * x;
                                }
                            }
                        }
                    }
                    dst[xb..xb + DIRECT_LANES].copy_from_slice(&acc);
                    xb += DIRECT_LANES;
                }
            } else {
                for (ox, d) in dst.iter_mut().enumerate() {
                    let mut acc = 0.0f32;
                    let mut pidx = 0usize;
                    for ch in 0..c {
                        let plane = &padded[ch * ph * pw..(ch + 1) * ph * pw];
                        for ky in 0..k {
                            let srow = &plane[(oy * s + ky) * pw..][..pw];
                            for kx in 0..k {
                                acc += wrow[pidx] * srow[ox * s + kx];
                                pidx += 1;
                            }
                        }
                    }
                    *d = acc;
                }
            }
        }
    }
}

/// Adjoint of [`im2col`]: scatter-adds a `(out_h*out_w) × (C*K*K)` patch
/// gradient back into a `C×H×W` image gradient buffer.
pub fn col2im(cols: &Tensor, geom: &Conv2dGeometry) -> Vec<f32> {
    let mut image = vec![0.0f32; geom.in_channels * geom.height * geom.width];
    col2im_into(cols.data(), geom, &mut image);
    image
}

/// [`col2im`] into a caller-owned `C×H×W` buffer (fully overwritten), so
/// batch-parallel backward passes can scatter straight into their slice of
/// the input-gradient matrix.
pub fn col2im_into(cols: &[f32], geom: &Conv2dGeometry, image: &mut [f32]) {
    geom.check();
    let (c, h, w) = (geom.in_channels, geom.height, geom.width);
    assert_eq!(
        cols.len(),
        geom.patch_count() * geom.patch_len(),
        "cols size mismatch"
    );
    assert_eq!(image.len(), c * h * w, "image buffer size mismatch");
    match geom.kernel {
        1 => fold_rows(cols, geom, image, 1),
        3 => fold_rows(cols, geom, image, 3),
        k => fold_rows(cols, geom, image, k),
    }
}

/// Body of [`col2im_into`] for kernel width `k`: the traversal of
/// [`unfold_rows`] with each in-row run scatter-added instead of copied.
///
/// Bit-identical to the per-tap loop it replaces. Within one output
/// position the taps hit distinct pixels, so a pixel's sum is fixed by
/// the order of the positions that reach it — ascending here, exactly as
/// before, from the same `+0.0`. A tap-outer traversal would visit those
/// positions in descending order and change the rounding.
#[inline(always)]
fn fold_rows(cols: &[f32], geom: &Conv2dGeometry, image: &mut [f32], k: usize) {
    let (h, w) = (geom.height, geom.width);
    let (oh, ow) = (geom.out_height(), geom.out_width());
    let (s, p) = (geom.stride, geom.pad);
    image.fill(0.0);
    let mut patches = cols.chunks_exact(geom.in_channels * k * k);
    for oy in 0..oh {
        for ox in 0..ow {
            let patch = patches.next().unwrap();
            let (ix0, lo, hi) = window_span(ox, geom, k);
            let interior = lo == 0 && hi == k;
            for (plane, cpatch) in image.chunks_exact_mut(h * w).zip(patch.chunks_exact(k * k)) {
                for (ky, src) in cpatch.chunks_exact(k).enumerate() {
                    let iy = (oy * s + ky) as isize - p as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let dst = &mut plane[iy as usize * w..][..w];
                    if interior {
                        for (d, &v) in dst[ix0 as usize..][..k].iter_mut().zip(src) {
                            *d += v;
                        }
                    } else {
                        for kx in lo..hi {
                            dst[(ix0 + kx as isize) as usize] += src[kx];
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn output_sizes() {
        let g = geom(3, 8, 8, 3, 1, 1);
        assert_eq!((g.out_height(), g.out_width()), (8, 8));
        let g = geom(3, 8, 8, 3, 2, 1);
        assert_eq!((g.out_height(), g.out_width()), (4, 4));
        let g = geom(1, 5, 5, 5, 1, 0);
        assert_eq!((g.out_height(), g.out_width()), (1, 1));
    }

    #[test]
    fn identity_kernel_extracts_pixels() {
        // 1x1 kernel, stride 1, no pad: patch matrix is the image itself.
        let img: Vec<f32> = (0..9).map(|x| x as f32).collect();
        let g = geom(1, 3, 3, 1, 1, 0);
        let cols = im2col(&img, &g);
        assert_eq!(cols.dims(), &[9, 1]);
        assert_eq!(cols.data(), img.as_slice());
    }

    #[test]
    fn patches_are_correct_with_padding() {
        // 2x2 image, 3x3 kernel, pad 1 -> 4 patches centred on each pixel.
        let img = vec![1.0, 2.0, 3.0, 4.0];
        let g = geom(1, 2, 2, 3, 1, 1);
        let cols = im2col(&img, &g);
        assert_eq!(cols.dims(), &[4, 9]);
        // Patch at output (0,0): padded neighbourhood of pixel (0,0).
        assert_eq!(
            cols.row_slice(0),
            &[0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 0.0, 3.0, 4.0]
        );
        // Patch at output (1,1): neighbourhood of pixel (1,1).
        assert_eq!(
            cols.row_slice(3),
            &[1.0, 2.0, 0.0, 3.0, 4.0, 0.0, 0.0, 0.0, 0.0]
        );
    }

    #[test]
    fn multi_channel_layout() {
        // Two channels: patch columns are channel-major then ky, kx.
        let img = vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0];
        let g = geom(2, 2, 2, 2, 1, 0);
        let cols = im2col(&img, &g);
        assert_eq!(cols.dims(), &[1, 8]);
        assert_eq!(
            cols.row_slice(0),
            &[1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0]
        );
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random-ish x, y.
        let g = geom(2, 5, 4, 3, 2, 1);
        let n = g.in_channels * g.height * g.width;
        let x: Vec<f32> = (0..n).map(|i| ((i * 7 + 3) % 11) as f32 - 5.0).collect();
        let cols = im2col(&x, &g);
        let ylen = cols.len();
        let y = Tensor::from_vec(
            (0..ylen).map(|i| ((i * 5 + 1) % 13) as f32 - 6.0).collect(),
            cols.dims(),
        );
        let lhs: f32 = cols.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let back = col2im(&y, &g);
        let rhs: f32 = x.iter().zip(&back).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn im2col_into_overwrites_stale_scratch() {
        let img = vec![1.0, 2.0, 3.0, 4.0];
        let g = geom(1, 2, 2, 3, 1, 1);
        let fresh = im2col(&img, &g);
        let mut scratch = vec![9.9f32; fresh.len()];
        im2col_into(&img, &g, &mut scratch);
        assert_eq!(scratch.as_slice(), fresh.data());
    }

    #[test]
    #[should_panic(expected = "kernel larger")]
    fn rejects_kernel_larger_than_input() {
        im2col(&[0.0; 4], &geom(1, 2, 2, 5, 1, 0));
    }

    #[test]
    fn direct_conv_is_bit_identical_to_lowered_gemm() {
        // The direct path claims exact equality with im2col + GEMM on
        // every geometry class it serves: unit and non-unit stride,
        // padded and unpadded, 1×1 through 5×5 kernels, outputs that are
        // and are not whole GEMM panels — and with both the wide and the
        // portable micro-kernel on each side of the comparison.
        for g in [
            geom(3, 16, 16, 3, 1, 1), // the ResNet stem shape
            geom(8, 16, 16, 3, 1, 1), // in-stage 3×3
            geom(8, 16, 16, 3, 2, 1), // downsampling 3×3
            geom(8, 16, 16, 1, 2, 0), // 1×1 stride-2 projection
            geom(2, 8, 8, 3, 1, 1),   // W' = 8: four-row register blocks
            geom(2, 6, 16, 3, 1, 1),  // W' = 16, H' = 6: per-row fallback
            geom(1, 24, 24, 3, 1, 1), // W' = 24: mixed double/single blocks
            geom(2, 9, 9, 5, 1, 2),   // big kernel, heavy clipping
            geom(1, 5, 7, 3, 1, 0),   // no pad, non-square, odd width
            geom(2, 4, 4, 3, 3, 1),   // stride > kernel reach
        ] {
            let ilen = g.in_channels * g.height * g.width;
            let img: Vec<f32> = (0..ilen)
                .map(|i| {
                    if i % 7 == 0 {
                        0.0
                    } else {
                        (i as f32 * 0.37).sin()
                    }
                })
                .collect();
            let out_ch = 4;
            let plen = g.patch_len();
            let wts: Vec<f32> = (0..out_ch * plen)
                .map(|i| (i as f32 * 0.53).cos())
                .collect();
            let osp = g.patch_count();
            let cols = im2col(&img, &g);
            let mut want = vec![0.0f32; out_ch * osp];
            crate::matmul::gemm_nt_into(&wts, cols.data(), &mut want, plen, osp);
            for force_scalar in [false, true] {
                crate::matmul::set_force_scalar_kernel(force_scalar);
                let mut got = vec![7.7f32; out_ch * osp];
                conv2d_direct_into(&img, &wts, &mut got, &g);
                crate::matmul::set_force_scalar_kernel(false);
                for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{g:?} force_scalar={force_scalar}: element {i}: {a} vs {b}"
                    );
                }
            }
        }
    }
}
