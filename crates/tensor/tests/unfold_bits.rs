//! Bit-level properties of the convolution unfold (`im2col_into`) and fold
//! (`col2im_into`) over generated geometries: both must reproduce the
//! per-element reference loops below bit for bit, including borders,
//! strides that skip input columns, and windows wider than the input row.
//!
//! The references are the original per-tap loops — two bounds tests per
//! tap into a zero-filled buffer — kept here as the oracle.

use eos_tensor::{col2im_into, im2col_into, Conv2dGeometry, Rng64};

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

/// Every geometry with `h, w ∈ 1..=9`, `k ∈ {1, 2, 3, 5}`, stride
/// `1..=3` and pad `0..=2` that the kernel fits (the padded input must be
/// at least `k` wide and tall), each with a seeded channel count in
/// `1..=4`.
fn geometries() -> Vec<Conv2dGeometry> {
    let mut rng = Rng64::new(0x0f01d);
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

fn reference_im2col(image: &[f32], g: &Conv2dGeometry) -> Vec<f32> {
    let (c, h, w) = (g.in_channels, g.height, g.width);
    let (oh, ow) = (g.out_height(), g.out_width());
    let (k, s, p) = (g.kernel, g.stride, g.pad);
    let mut out = vec![0.0f32; g.patch_count() * g.patch_len()];
    let mut row = 0usize;
    for oy in 0..oh {
        for ox in 0..ow {
            let base = row * g.patch_len();
            let iy0 = (oy * s) as isize - p as isize;
            let ix0 = (ox * s) as isize - p as isize;
            let mut col = 0usize;
            for ch in 0..c {
                let plane = &image[ch * h * w..(ch + 1) * h * w];
                for ky in 0..k {
                    let iy = iy0 + ky as isize;
                    if iy < 0 || iy >= h as isize {
                        col += k;
                        continue;
                    }
                    let rowbase = iy as usize * w;
                    for kx in 0..k {
                        let ix = ix0 + kx as isize;
                        if ix >= 0 && ix < w as isize {
                            out[base + col] = plane[rowbase + ix as usize];
                        }
                        col += 1;
                    }
                }
            }
            row += 1;
        }
    }
    out
}

fn reference_col2im(cols: &[f32], g: &Conv2dGeometry) -> Vec<f32> {
    let (c, h, w) = (g.in_channels, g.height, g.width);
    let (oh, ow) = (g.out_height(), g.out_width());
    let (k, s, p) = (g.kernel, g.stride, g.pad);
    let mut image = vec![0.0f32; c * h * w];
    let mut row = 0usize;
    for oy in 0..oh {
        for ox in 0..ow {
            let base = row * g.patch_len();
            let iy0 = (oy * s) as isize - p as isize;
            let ix0 = (ox * s) as isize - p as isize;
            let mut col = 0usize;
            for ch in 0..c {
                for ky in 0..k {
                    let iy = iy0 + ky as isize;
                    if iy < 0 || iy >= h as isize {
                        col += k;
                        continue;
                    }
                    let rowbase = ch * h * w + iy as usize * w;
                    for kx in 0..k {
                        let ix = ix0 + kx as isize;
                        if ix >= 0 && ix < w as isize {
                            image[rowbase + ix as usize] += cols[base + col];
                        }
                        col += 1;
                    }
                }
            }
            row += 1;
        }
    }
    image
}

/// The fold visited tap-outer: for each `(ch, ky, kx)`, every output
/// position. Same set of additions, but a pixel now receives its
/// contributions from the last reaching position first.
fn tap_outer_col2im(cols: &[f32], g: &Conv2dGeometry) -> Vec<f32> {
    let (c, h, w) = (g.in_channels, g.height, g.width);
    let (oh, ow) = (g.out_height(), g.out_width());
    let (k, s, p) = (g.kernel, g.stride, g.pad);
    let mut image = vec![0.0f32; c * h * w];
    for ch in 0..c {
        for ky in 0..k {
            for kx in 0..k {
                let col = (ch * k + ky) * k + kx;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let iy = (oy * s + ky) as isize - p as isize;
                        let ix = (ox * s + kx) as isize - p as isize;
                        if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                            image[ch * h * w + iy as usize * w + ix as usize] +=
                                cols[(oy * ow + ox) * g.patch_len() + col];
                        }
                    }
                }
            }
        }
    }
    image
}

/// Patch gradients whose sums depend on the order they are added in:
/// ±1e8 swamps 1.0 in `f32`, so `1e8 + 1 - 1e8` and `1e8 - 1e8 + 1`
/// round differently.
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

fn assert_bits(got: &[f32], want: &[f32], what: &str, g: &Conv2dGeometry) {
    assert_eq!(got.len(), want.len(), "{what} {g:?}: length");
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{what} {g:?}: element {i}: {a} vs {b}"
        );
    }
}

#[test]
fn generated_geometries_cover_the_clipping_cases() {
    let gs = geometries();
    // Windows wider than the input row, every output column clipped.
    assert!(gs.iter().any(|g| g.kernel > g.width && g.pad > 0));
    // Output columns whose window misses the row entirely.
    assert!(gs.iter().any(|g| g.pad >= g.kernel && g.kernel == 1));
    // Strides that skip input columns, on non-square inputs.
    assert!(gs
        .iter()
        .any(|g| g.stride > g.kernel && g.height != g.width));
    assert!(gs.len() > 2000, "{} geometries", gs.len());
}

#[test]
fn unfold_matches_reference_and_overwrites_every_element() {
    let mut rng = Rng64::new(1);
    for g in geometries() {
        let image: Vec<f32> = (0..g.in_channels * g.height * g.width)
            .map(|_| rng.range_f32(-3.0, 3.0))
            .collect();
        let mut out = vec![f32::NAN; g.patch_count() * g.patch_len()];
        im2col_into(&image, &g, &mut out);
        assert_bits(&out, &reference_im2col(&image, &g), "im2col_into", &g);
    }
}

#[test]
fn fold_matches_reference_in_summation_order() {
    let mut rng = Rng64::new(2);
    for g in geometries() {
        let cols = order_sensitive(g.patch_count() * g.patch_len(), &mut rng);
        let mut image = vec![f32::NAN; g.in_channels * g.height * g.width];
        col2im_into(&cols, &g, &mut image);
        assert_bits(&image, &reference_col2im(&cols, &g), "col2im_into", &g);
    }
}

#[test]
fn order_sensitive_inputs_detect_a_reordered_fold() {
    // The fold test above only proves order preservation if its inputs
    // can tell orders apart: a tap-outer fold must fail it somewhere.
    let mut rng = Rng64::new(2);
    let differing = geometries()
        .into_iter()
        .filter(|g| {
            let cols = order_sensitive(g.patch_count() * g.patch_len(), &mut rng);
            let want = reference_col2im(&cols, g);
            let got = tap_outer_col2im(&cols, g);
            got.iter()
                .zip(&want)
                .any(|(a, b)| a.to_bits() != b.to_bits())
        })
        .count();
    assert!(differing > 100, "only {differing} geometries differ");
}
