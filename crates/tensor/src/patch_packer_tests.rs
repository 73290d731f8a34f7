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
//! Geometries are generated over kernel 1/2/3/5, stride 1–3, pad 0–2
//! and h, w ∈ 1..=9, windows wider than the row among them, each at
//! batch sizes 1, 2 and 3: with `H'W'` not a multiple of `MR`, tiles
//! straddle output rows and images, and a batch of `n·H'W'` positions or
//! `C·K·K` patch indices that is not a multiple of `MR` ends in an edge
//! tile with `h < MR`.
//!
//! The input gradient is checked against the pair it replaced, per image
//! `gemm_tn_into` then `col2im_into`, over its own generated geometries:
//! channel counts that fill one or two lane blocks, with NaN, ±∞ and
//! `-0.0` among the values.

use crate::conv::{pack_patch_cols, pack_patch_rows, transpose_into};
use crate::matmul::{gemm_nt_into, gemm_tn_into, pack_cols, pack_rows, MR};
use crate::{
    col2im_into, conv_input_grad_into, gemm_patches_nt_into, gemm_patches_segmented_acc_into,
    im2col_into, pad_images_into, par, set_force_scalar_kernel, Conv2dGeometry, Rng64,
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

/// Values whose sums are order-sensitive — ±1e8 swamps 1.0 in `f32`, so a
/// pixel that received its contributions in another order would round
/// differently — with `-0.0` among them, and, when `specials` is set,
/// NaNs of two payloads and ±∞ as well (one value in twenty).
fn grad_values(len: usize, specials: bool, rng: &mut Rng64) -> Vec<f32> {
    (0..len)
        .map(|_| match rng.below(if specials { 20 } else { 16 }) {
            0..=3 => 1e8,
            4..=7 => -1e8,
            8..=10 => 1.0,
            11 => -0.0,
            16 => f32::NAN,
            17 => f32::from_bits(0xffc0_1234),
            18 => f32::INFINITY,
            19 => f32::NEG_INFINITY,
            _ => rng.range_f32(-2.0, 2.0),
        })
        .collect()
}

/// Input-gradient geometries: every channel count in {1, 3, 4, 5, 8, 12,
/// 16, 32, 40} (one block of 4, 8, 16 or 32 lanes, and at 40 a full block
/// of 32 and a part-filled one) with every kernel in {1, 3, 5}, stride
/// 1–3 and pad 0–2, each on two seeded non-square planes the kernel fits.
fn input_grad_geometries(rng: &mut Rng64) -> Vec<Conv2dGeometry> {
    let mut out = Vec::new();
    for c in [1, 3, 4, 5, 8, 12, 16, 32, 40] {
        for k in [1, 3, 5] {
            for s in 1..=3 {
                for p in 0..=2 {
                    let mut planes = 0;
                    while planes < 2 {
                        let (h, w) = (1 + rng.below(9), 1 + rng.below(9));
                        if h != w && h + 2 * p >= k && w + 2 * p >= k {
                            out.push(geom(c, h, w, k, s, p));
                            planes += 1;
                        }
                    }
                }
            }
        }
    }
    out
}

/// [`assert_bits`], except that a NaN matches any NaN. When NaNs of two
/// payloads meet in one sum, which payload the result carries depends on
/// the operand order the compiler emits for the add, and Rust leaves it
/// unspecified; every other value, `-0.0` and ±∞ included, must match bit
/// for bit.
fn assert_bits_or_nan(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        let same = a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        assert!(
            same,
            "{what}: element {i}: {a} ({:#x}) vs {b} ({:#x})",
            a.to_bits(),
            b.to_bits()
        );
    }
}

#[test]
fn input_grad_matches_gemm_tn_then_col2im() {
    // Every generated geometry at a seeded batch of 1–5 images and a
    // seeded output-channel count, with finite order-sensitive values and
    // again with NaN/±∞ among them, against each image's patch gradient
    // `g_iᵀ · w` from `gemm_tn_into` folded by `col2im_into`: at thread
    // budgets 1 and 2, with the wide tiers and with the portable one.
    let restore = par::num_threads();
    let mut rng = Rng64::new(8);
    let gs = input_grad_geometries(&mut rng);
    assert_eq!(gs.len(), 9 * 3 * 3 * 3 * 2);
    // Pixels that no window reaches, and windows wider than the plane.
    assert!(gs.iter().any(|g| g.stride > g.kernel));
    assert!(gs.iter().any(|g| g.kernel > g.width.min(g.height)));
    // Finite, NaN and infinite results of the runs with specials.
    let mut kinds = [0usize; 3];
    for g in gs {
        let (plen, osp, ilen) = (g.patch_len(), g.patch_count(), g.image_len());
        let oc = [1, 2, 3, 8, 16, 32][rng.below(6)];
        let n = 1 + rng.below(5);
        for specials in [false, true] {
            let w = grad_values(oc * plen, specials, &mut rng);
            let grad = grad_values(n * oc * osp, specials, &mut rng);
            let mut want = vec![0.0f32; n * ilen];
            let mut dcols = vec![0.0f32; osp * plen];
            for (gi, dxi) in grad.chunks_exact(oc * osp).zip(want.chunks_exact_mut(ilen)) {
                gemm_tn_into(gi, &w, &mut dcols, oc, osp, plen);
                col2im_into(&dcols, &g, dxi);
            }
            if specials {
                for v in &want {
                    kinds[usize::from(v.is_nan()) + 2 * usize::from(v.is_infinite())] += 1;
                }
            }
            for (threads, force_scalar) in [(1, false), (2, false), (1, true), (2, true)] {
                par::set_num_threads(threads);
                set_force_scalar_kernel(force_scalar);
                let mut got = vec![f32::NAN; n * ilen];
                conv_input_grad_into(&grad, &w, &g, &mut got);
                set_force_scalar_kernel(false);
                let label = format!(
                    "dx {g:?} o={oc} n={n} specials={specials} t={threads} scalar={force_scalar}"
                );
                assert_bits_or_nan(&got, &want, &label);
            }
        }
    }
    let total: usize = kinds.iter().sum();
    assert!(kinds.iter().all(|&k| 20 * k > total), "{kinds:?}");
    par::set_num_threads(restore);
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
