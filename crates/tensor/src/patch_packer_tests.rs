//! Bit-level equivalence of the convolution patch packers with the GEMM
//! core's matrix packers over an unfolded patch matrix.
//!
//! `pack_patch_rows` and `pack_patch_cols` pack A tiles of a batch's patch
//! matrix straight from its zero-padded images. The oracle is the matrix
//! they replace: every image unfolded by `im2col_into`, stacked image-major,
//! then tiled by `pack_rows` (forward) or `pack_cols` (weight gradient).
//! Both sides pack into NaN-filled tiles, and the padded batch is built
//! in a buffer that held NaN, so an element that is never written, or a
//! padding tap that reads anything but the written zeros, shows up as a
//! NaN.
//!
//! Geometries are generated as in `unfold_bits.rs` (kernel 1/2/3/5,
//! stride 1–3, pad 0–2, h, w ∈ 1..=9, windows wider than the row), each
//! at batch sizes 1, 2 and 3: with `H'W'` not a multiple of `MR`, tiles
//! straddle output rows and images, and a batch of `n·H'W'` positions or
//! `C·K·K` patch indices that is not a multiple of `MR` ends in an edge
//! tile with `h < MR`.
//!
//! The fused input gradient is checked over the same geometries against
//! the unfused pair it replaces: `matmul_tn` per image, then `col2im_into`.

use crate::conv::{pack_patch_cols, pack_patch_rows, transpose_into};
use crate::matmul::{conv_input_grad_tiled, pack_cols, pack_rows, MR};
use crate::{
    col2im_into, conv_input_grad_into, gemm_nt_into, gemm_patches_nt_into,
    gemm_patches_segmented_acc_into, im2col_into, pad_images_into, par, set_force_scalar_kernel,
    Conv2dGeometry, Rng64, Tensor,
};

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

/// Every geometry with `h, w ∈ 1..=9`, `k ∈ {1, 2, 3, 5}`, stride `1..=3`
/// and pad `0..=2` that the kernel fits, each with a seeded channel count
/// in `1..=4`.
fn geometries() -> Vec<Conv2dGeometry> {
    let mut rng = Rng64::new(0x9a7c);
    let mut out = Vec::new();
    for k in [1, 2, 3, 5] {
        for s in 1..=3 {
            for p in 0..=2 {
                for h in 1..=9 {
                    for w in 1..=9 {
                        if h + 2 * p < k || w + 2 * p < k {
                            continue;
                        }
                        out.push(geom(1 + rng.below(4), h, w, k, s, p));
                    }
                }
            }
        }
    }
    out
}

/// A batch of `n` images as its image-major patch matrix (the oracle's
/// input) and its padded batch, built in a buffer that held NaN.
struct Batch {
    cols: Vec<f32>,
    padded: Vec<f32>,
}

fn batch(g: &Conv2dGeometry, n: usize, rng: &mut Rng64) -> Batch {
    let images: Vec<f32> = (0..n * g.image_len())
        .map(|_| rng.range_f32(-3.0, 3.0))
        .collect();
    let per_image = g.patch_count() * g.patch_len();
    let mut cols = vec![0.0f32; n * per_image];
    for (image, c) in images
        .chunks_exact(g.image_len())
        .zip(cols.chunks_exact_mut(per_image))
    {
        im2col_into(image, g, c);
    }
    let mut padded = vec![f32::NAN; 7];
    pad_images_into(&images, g, &mut padded);
    assert_eq!(padded.len(), n * g.padded_len());
    Batch { cols, padded }
}

/// Tile starts to pack: every multiple of `MR` (the GEMM's own tiles),
/// plus two seeded unaligned starts.
fn tile_starts(rows: usize, rng: &mut Rng64) -> Vec<usize> {
    let mut starts: Vec<usize> = (0..rows).step_by(MR).collect();
    starts.extend((0..2).map(|_| rng.below(rows)));
    starts
}

fn assert_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: element {i}: {a} vs {b}");
    }
}

#[test]
fn generated_batches_cover_straddling_and_edge_tiles() {
    let gs = geometries();
    assert!(gs.len() > 2000, "{} geometries", gs.len());
    // Output rows shorter than a tile, so tiles straddle rows and images.
    assert!(gs
        .iter()
        .any(|g| g.out_width() < MR && g.patch_count() % MR != 0));
    // Windows wider than the input row.
    assert!(gs.iter().any(|g| g.kernel > g.width && g.pad > 0));
    // Patch lengths that end in an edge tile of the weight-gradient side.
    assert!(gs.iter().any(|g| g.patch_len() % MR != 0));
}

#[test]
fn patch_rows_tiles_match_the_unfolded_matrix() {
    let mut rng = Rng64::new(3);
    for g in geometries() {
        for n in 1..=3 {
            let b = batch(&g, n, &mut rng);
            let (plen, rows) = (g.patch_len(), n * g.patch_count());
            let oracle = pack_rows(&b.cols, plen);
            let packer = pack_patch_rows(&b.padded, &g);
            for i0 in tile_starts(rows, &mut rng) {
                let h = MR.min(rows - i0);
                let mut want = vec![f32::NAN; plen * MR];
                let mut got = vec![f32::NAN; plen * MR];
                oracle(i0, h, &mut want);
                packer(i0, h, &mut got);
                assert_bits(&got, &want, &format!("rows {g:?} n={n} i0={i0} h={h}"));
            }
        }
    }
}

#[test]
fn patch_cols_tiles_match_the_unfolded_matrix() {
    let mut rng = Rng64::new(4);
    for g in geometries() {
        for n in 1..=3 {
            let b = batch(&g, n, &mut rng);
            let (plen, positions) = (g.patch_len(), n * g.patch_count());
            let oracle = pack_cols(&b.cols, plen);
            let packer = pack_patch_cols(&b.padded, &g);
            for i0 in tile_starts(plen, &mut rng) {
                let h = MR.min(plen - i0);
                let mut want = vec![f32::NAN; positions * MR];
                let mut got = vec![f32::NAN; positions * MR];
                oracle(i0, h, &mut want);
                packer(i0, h, &mut got);
                assert_bits(&got, &want, &format!("cols {g:?} n={n} i0={i0} h={h}"));
            }
        }
    }
}

/// `dw += Σ_i g_i · cols_i`, each image's product summed from zero over
/// ascending positions and added in image order: the weight gradient's
/// accumulation order.
fn reference_dw(g: &[f32], cols: &[f32], dw: &mut [f32], osp: usize, plen: usize) {
    let oc = dw.len() / plen;
    for (gi, ci) in g.chunks_exact(oc * osp).zip(cols.chunks_exact(osp * plen)) {
        for o in 0..oc {
            for c in 0..plen {
                let mut acc = 0.0f32;
                for q in 0..osp {
                    acc += gi[o * osp + q] * ci[q * plen + c];
                }
                dw[o * plen + c] += acc;
            }
        }
    }
}

#[test]
fn patch_gemms_match_the_gemms_over_the_unfolded_matrix() {
    // Every fifth geometry at batch 3 and two thread budgets: the forward
    // GEMM against `gemm_nt_into` over the patch matrix, and the weight
    // gradient (accumulated onto a nonzero start) against the per-image
    // reference sums.
    let restore = par::num_threads();
    let mut rng = Rng64::new(5);
    for (gi, g) in geometries().into_iter().enumerate().step_by(5) {
        let n = 3;
        let b = batch(&g, n, &mut rng);
        let (plen, osp, oc) = (g.patch_len(), g.patch_count(), 1 + gi % 9);
        let w: Vec<f32> = (0..oc * plen).map(|_| rng.range_f32(-1.0, 1.0)).collect();
        let grad: Vec<f32> = (0..n * oc * osp)
            .map(|_| rng.range_f32(-1.0, 1.0))
            .collect();
        let start: Vec<f32> = (0..oc * plen).map(|_| rng.range_f32(-1.0, 1.0)).collect();
        let mut pos = vec![0.0f32; n * osp * oc];
        gemm_nt_into(&b.cols, &w, &mut pos, plen, oc);
        // Each image's `H'W' × O` block, channel-major.
        let mut want = vec![0.0f32; n * osp * oc];
        for (block, orow) in pos
            .chunks_exact(osp * oc)
            .zip(want.chunks_exact_mut(osp * oc))
        {
            for (q, prow) in block.chunks_exact(oc).enumerate() {
                for (o, &v) in prow.iter().enumerate() {
                    orow[o * osp + q] = v;
                }
            }
        }
        let mut want_dw = start.clone();
        reference_dw(&grad, &b.cols, &mut want_dw, osp, plen);
        for threads in [1, 3] {
            par::set_num_threads(threads);
            let mut got = vec![f32::NAN; n * osp * oc];
            gemm_patches_nt_into(&b.padded, &g, &w, &mut got);
            assert_bits(&got, &want, &format!("forward {g:?} t={threads}"));
            let mut got_dw = start.clone();
            gemm_patches_segmented_acc_into(&grad, &b.padded, &g, &mut got_dw);
            assert_bits(&got_dw, &want_dw, &format!("dW {g:?} t={threads}"));
        }
    }
    par::set_num_threads(restore);
}

/// Weights whose patch gradients fold to order-sensitive sums: ±1e8
/// swamps 1.0 in `f32`, so a pixel that received its contributions in
/// another position order would round differently.
fn order_sensitive(len: usize, rng: &mut Rng64) -> Vec<f32> {
    (0..len)
        .map(|_| match rng.below(4) {
            0 => 1e8,
            1 => -1e8,
            2 => 1.0,
            _ => rng.range_f32(-2.0, 2.0),
        })
        .collect()
}

#[test]
fn fused_input_grad_matches_gemm_tn_then_col2im() {
    // Every geometry at batch 1, 2 and 3, against each image's patch
    // gradient `g_iᵀ · w` from `matmul_tn` folded by `col2im_into`. The
    // kernel runs at its own tile length and at tiles of 1, 3, MR and
    // 2·MR + 1 positions, so images straddle tiles at every offset; the
    // wide and the portable GEMM kernels both run.
    let mut rng = Rng64::new(8);
    let mut straddled = 0;
    for (gi, g) in geometries().into_iter().enumerate() {
        let (plen, osp, ilen, oc) = (g.patch_len(), g.patch_count(), g.image_len(), 1 + gi % 5);
        let w = order_sensitive(oc * plen, &mut rng);
        let wt = Tensor::from_vec(w.clone(), &[oc, plen]);
        for n in 1..=3 {
            let grad: Vec<f32> = (0..n * oc * osp)
                .map(|_| rng.range_f32(-1.0, 1.0))
                .collect();
            let mut want = vec![0.0f32; n * ilen];
            for (gi, dxi) in grad.chunks_exact(oc * osp).zip(want.chunks_exact_mut(ilen)) {
                let dcols = Tensor::from_vec(gi.to_vec(), &[oc, osp]).matmul_tn(&wt);
                col2im_into(dcols.data(), &g, dxi);
            }
            let force_scalar = (gi + n) % 2 == 1;
            set_force_scalar_kernel(force_scalar);
            let mut got = vec![f32::NAN; n * ilen];
            conv_input_grad_into(&grad, &w, &g, &mut got);
            let label = format!("dx {g:?} n={n} scalar={force_scalar}");
            assert_bits(&got, &want, &label);
            for tile in [1, 3, MR, 2 * MR + 1] {
                straddled += usize::from(tile < osp);
                let mut got = vec![f32::NAN; n * ilen];
                conv_input_grad_tiled(&grad, &w, &g, &mut got, tile);
                assert_bits(&got, &want, &format!("dx {g:?} n={n} tile={tile}"));
            }
            set_force_scalar_kernel(false);
        }
    }
    assert!(straddled > 10_000, "only {straddled} straddling runs");
}

#[test]
fn transpose_matches_elementwise_on_ragged_shapes() {
    // Whole 8×8 blocks (the vector path), ragged row and column edges,
    // and shapes with no whole block at all, into NaN-filled outputs.
    let mut rng = Rng64::new(6);
    for rows in [1, 3, 8, 9, 16, 23, 64] {
        for cols in [1, 2, 7, 8, 16, 17, 32] {
            let src: Vec<f32> = (0..rows * cols).map(|_| rng.range_f32(-1.0, 1.0)).collect();
            let mut got = vec![f32::NAN; rows * cols];
            transpose_into(&src, &mut got, cols);
            let mut want = vec![0.0f32; rows * cols];
            for r in 0..rows {
                for c in 0..cols {
                    want[c * rows + r] = src[r * cols + c];
                }
            }
            assert_bits(&got, &want, &format!("transpose {rows}x{cols}"));
        }
    }
}

#[test]
fn padded_batch_reuses_its_buffer() {
    // A refill at the same batch size rewrites every value in place: a
    // buffer left holding another batch reads back exactly a fresh pad.
    let g = geom(2, 5, 7, 3, 1, 2);
    let mut rng = Rng64::new(7);
    let a: Vec<f32> = (0..3 * g.image_len())
        .map(|_| rng.range_f32(-1.0, 1.0))
        .collect();
    let b: Vec<f32> = (0..3 * g.image_len())
        .map(|_| rng.range_f32(-1.0, 1.0))
        .collect();
    let mut fresh = Vec::new();
    pad_images_into(&b, &g, &mut fresh);
    let mut reused = Vec::new();
    pad_images_into(&a, &g, &mut reused);
    let cap = reused.capacity();
    pad_images_into(&b, &g, &mut reused);
    assert_eq!(reused.capacity(), cap);
    assert_bits(&reused, &fresh, "refilled padded batch");
}
