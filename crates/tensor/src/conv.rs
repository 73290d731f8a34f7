//! Convolution lowering: patch packers, the input gradient, the direct
//! kernel, and the plain unfold/fold oracles.
//!
//! A convolution over an `N×C×H×W` batch with `K×K` kernels, stride `s` and
//! padding `p` is a GEMM between the batch's patch matrix (`im2col`) and the
//! flattened weight matrix. The patch matrix is never built: the batch is
//! zero-padded once ([`pad_images_into`]) and the GEMM core packs its A
//! tiles straight from the padded planes ([`pack_patch_rows`] for the
//! forward, [`pack_patch_cols`] for the weight gradient). The input
//! gradient is no GEMM at all: [`conv_input_grad_into`] is one
//! output-stationary pass in which every input pixel sums, in registers,
//! the products of the (position, tap) pairs that reach it, channels in
//! the vector lanes. [`im2col_into`] and its adjoint [`col2im_into`]
//! (scatter-add) are plain per-tap loops, kept as the oracles the packers
//! and the input gradient are tested against.

use crate::matmul::MR;
use std::cell::RefCell;

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

    /// Values per input image: `C * H * W`.
    pub fn image_len(&self) -> usize {
        self.in_channels * self.height * self.width
    }

    /// Values per zero-padded input image: `C * (H + 2p) * (W + 2p)` (see
    /// [`pad_images_into`]).
    pub fn padded_len(&self) -> usize {
        self.in_channels * (self.height + 2 * self.pad) * (self.width + 2 * self.pad)
    }

    fn check(&self) {
        assert!(self.kernel > 0 && self.stride > 0, "degenerate geometry");
        assert!(
            self.height + 2 * self.pad >= self.kernel && self.width + 2 * self.pad >= self.kernel,
            "kernel larger than padded input"
        );
    }
}

/// Unfolds one image (`C×H×W`, flattened) into its `(out_h*out_w) ×
/// (C*K*K)` patch matrix, in a caller-owned buffer of `patch_count() ×
/// patch_len()` elements that is fully overwritten (padding taps are
/// `0.0`).
///
/// No convolution pass calls it — the GEMMs pack their tiles straight
/// from the padded images — but it is the plain per-tap oracle the patch
/// packers are checked against (the crate's `patch_packer_tests` and
/// `crates/nn/tests/conv_batched_bits.rs`).
pub fn im2col_into(image: &[f32], geom: &Conv2dGeometry, out: &mut [f32]) {
    geom.check();
    assert_eq!(image.len(), geom.image_len(), "image buffer size mismatch");
    assert_eq!(
        out.len(),
        geom.patch_count() * geom.patch_len(),
        "im2col buffer size"
    );
    out.fill(0.0);
    for_each_tap(geom, |col, pixel| out[col] = image[pixel]);
}

/// Visits every tap of every output position that lands inside the
/// image, as `(patch-matrix index, image index)`: positions ascending,
/// then channel, `ky` and `kx`, with two bounds tests per tap.
fn for_each_tap(geom: &Conv2dGeometry, mut f: impl FnMut(usize, usize)) {
    let (c, h, w) = (geom.in_channels, geom.height, geom.width);
    let (k, s, p) = (geom.kernel, geom.stride, geom.pad);
    let ow = geom.out_width();
    for q in 0..geom.patch_count() {
        let iy0 = ((q / ow) * s) as isize - p as isize;
        let ix0 = ((q % ow) * s) as isize - p as isize;
        for ch in 0..c {
            for ky in 0..k {
                let iy = iy0 + ky as isize;
                for kx in 0..k {
                    let ix = ix0 + kx as isize;
                    if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                        f(
                            q * c * k * k + (ch * k + ky) * k + kx,
                            (ch * h + iy as usize) * w + ix as usize,
                        );
                    }
                }
            }
        }
    }
}

/// Replaces the contents of `out` with `n` stacked `C×H×W` images as
/// zero-padded `(H+2p)×(W+2p)` planes, channel-major across the batch:
/// plane `(ch, img)` starts at `(ch·n + img)·(H+2p)·(W+2p)`, so one channel
/// of every image is one contiguous stretch (`n ·`
/// [`Conv2dGeometry::padded_len`] values in all). The planes are appended
/// in order — padding rows and border columns as `0.0`, image rows by
/// copy — so every value is written exactly once and no zero pre-fill is
/// needed; a recycled `out` keeps its capacity and allocates nothing.
///
/// This is the layout the patch packers ([`pack_patch_rows`],
/// [`pack_patch_cols`]) and [`conv2d_direct_into`] read: every window of
/// every output position lies inside a padded plane, so the packers move
/// whole runs without any clipping, and a padding tap reads the same
/// `0.0` the unfolded patch matrix holds. A weight-gradient tile reads
/// one or two channels of every image, which this layout keeps together.
pub fn pad_images_into(images: &[f32], geom: &Conv2dGeometry, out: &mut Vec<f32>) {
    let (h, w, p) = (geom.height, geom.width, geom.pad);
    let n = images.len() / geom.image_len().max(1);
    assert_eq!(
        images.len(),
        n * geom.image_len(),
        "images not whole C×H×W volumes"
    );
    out.clear();
    out.reserve(n * geom.padded_len());
    for ch in 0..geom.in_channels {
        for img in 0..n {
            let src = &images[img * geom.image_len() + ch * h * w..][..h * w];
            // Literal arms give the row widths and pads the models use
            // fixed-size copies and fills instead of a `memcpy`/`memset`
            // call per row.
            match (w, p) {
                (_, 0) => out.extend_from_slice(src),
                (2, 1) => pad_plane(src, out, 2, 1),
                (4, 1) => pad_plane(src, out, 4, 1),
                (8, 1) => pad_plane(src, out, 8, 1),
                (16, 1) => pad_plane(src, out, 16, 1),
                (w, p) => pad_plane(src, out, w, p),
            }
        }
    }
}

/// Appends one `w`-wide image plane to `out` with `p` zero rows above and
/// below and `p` zero columns either side of every row.
#[inline(always)]
fn pad_plane(src: &[f32], out: &mut Vec<f32>, w: usize, p: usize) {
    let pw = w + 2 * p;
    out.extend(std::iter::repeat_n(0.0, p * pw));
    for row in src.chunks_exact(w) {
        out.extend(std::iter::repeat_n(0.0, p));
        out.extend_from_slice(row);
        out.extend(std::iter::repeat_n(0.0, p));
    }
    out.extend(std::iter::repeat_n(0.0, p * pw));
}

/// Packs `MR`-row tiles of a batch's *virtual* patch matrix from the
/// batch's zero-padded images (`padded`, as written by
/// [`pad_images_into`]). The virtual matrix is the image-major
/// `n·H'W' × C·K·K` matrix that [`im2col_into`] would build image by
/// image; it is never built. The returned closure has the contract of the
/// GEMM core's row-major packer ([`pack_rows`](crate::matmul::pack_rows)):
/// it writes output positions `i0 .. i0 + h`, over the patch indices
/// `0 .. dst.len()/MR`, into `dst[p·MR + ir]`, and leaves lanes `ir ≥ h`
/// untouched.
///
/// A full tile whose `MR` positions lie in one output row reads one
/// padded-row run per `(channel, ky)`, and each of its `K` taps is one
/// `MR`-wide copy from that run (a strided gather at stride > 1). A tile
/// that straddles output rows or images reads one `K`-tap run per lane
/// and `(channel, ky)`, and an edge tile with `h < MR` is packed position
/// by position. Every path writes the exact `f32` the patch matrix would
/// hold, padding taps included, so a GEMM fed by this packer is bit for
/// bit the GEMM over the unfolded matrix.
pub(crate) fn pack_patch_rows<'a>(
    padded: &'a [f32],
    geom: &Conv2dGeometry,
) -> impl Fn(usize, usize, &mut [f32]) + 'a {
    geom.check();
    let g = *geom;
    assert_eq!(
        padded.len() % g.padded_len(),
        0,
        "not a whole number of padded images"
    );
    // Literal arms constant-fold the kernel/stride pairs the models use.
    move |i0, h, dst| match (g.kernel, g.stride) {
        (3, 1) => patch_rows_tile(padded, &g, 3, 1, i0, h, dst),
        (3, 2) => patch_rows_tile(padded, &g, 3, 2, i0, h, dst),
        (1, 2) => patch_rows_tile(padded, &g, 1, 2, i0, h, dst),
        (k, s) => patch_rows_tile(padded, &g, k, s, i0, h, dst),
    }
}

/// Body of [`pack_patch_rows`] for kernel width `k` and stride `s`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn patch_rows_tile(
    padded: &[f32],
    g: &Conv2dGeometry,
    k: usize,
    s: usize,
    i0: usize,
    h: usize,
    dst: &mut [f32],
) {
    let (ph, pw) = (g.height + 2 * g.pad, g.width + 2 * g.pad);
    let (oh, ow) = (g.out_height(), g.out_width());
    // Offset between one channel's planes and the next's.
    let cstride = padded.len() / g.in_channels;
    // Position i0's image, output row and column; later lanes step along
    // from there without dividing.
    let (mut img, mut oy, mut ox) = (i0 / (oh * ow), i0 % (oh * ow) / ow, i0 % ow);
    if h == MR && ox + MR <= ow {
        // One output row: the lanes' windows are one padded-row run.
        let corner = img * ph * pw + oy * s * pw + ox * s;
        let span = (MR - 1) * s + k;
        for (ch, cdst) in dst.chunks_exact_mut(k * k * MR).enumerate() {
            for (ky, rdst) in cdst.chunks_exact_mut(k * MR).enumerate() {
                let run = &padded[corner + ch * cstride + ky * pw..][..span];
                for (kx, d) in rdst.chunks_exact_mut(MR).enumerate() {
                    for (ir, v) in d.iter_mut().enumerate() {
                        *v = run[kx + ir * s];
                    }
                }
            }
        }
        return;
    }
    // Lane ir's window corner.
    let mut corners = [0; MR];
    for (ir, c) in corners.iter_mut().enumerate().take(h) {
        if ir > 0 {
            ox += 1;
            if ox == ow {
                (oy, ox) = (oy + 1, 0);
                if oy == oh {
                    (img, oy) = (img + 1, 0);
                }
            }
        }
        *c = img * ph * pw + oy * s * pw + ox * s;
    }
    if h < MR {
        // Edge tile: position by position.
        for (ir, &c) in corners.iter().enumerate().take(h) {
            let mut lanes = dst[ir..].iter_mut().step_by(MR);
            for ch in 0..g.in_channels {
                for ky in 0..k {
                    let run = &padded[c + ch * cstride + ky * pw..][..k];
                    for (&v, d) in run.iter().zip(lanes.by_ref()) {
                        *d = v;
                    }
                }
            }
        }
        return;
    }
    // A tile across output rows (or images): one `k`-tap run per lane
    // and `(channel, ky)`.
    for (ch, cdst) in dst.chunks_exact_mut(k * k * MR).enumerate() {
        for (ky, rdst) in cdst.chunks_exact_mut(k * MR).enumerate() {
            let off = ch * cstride + ky * pw;
            let runs = corners.map(|c| &padded[c + off..][..k]);
            for (kx, d) in rdst.chunks_exact_mut(MR).enumerate() {
                d.copy_from_slice(&runs.map(|r| r[kx]));
            }
        }
    }
}

/// Packs `MR`-row tiles of the *transposed* virtual patch matrix — the
/// row side of the convolution's weight-gradient GEMM — from the batch's
/// zero-padded images (`padded`, as written by [`pad_images_into`]). The
/// closure has the contract of the GEMM core's transposed packer
/// ([`pack_cols`](crate::matmul::pack_cols) over the `n·H'W' × C·K·K`
/// matrix [`im2col_into`] would build): it writes patch indices
/// `i0 .. i0 + h`, over the output positions `0 .. dst.len()/MR`, into
/// `dst[q·MR + ir]`, and leaves lanes `ir ≥ h` untouched.
///
/// One patch index `(channel, ky, kx)` over one output row is one shifted
/// (at stride > 1, strided) padded-row run. A full tile zips its `MR`
/// runs into the lanes, one output row at a time, as
/// [`pack_rows`](crate::matmul::pack_rows) zips its four rows; rows shorter
/// than a tile are gathered window by window, and an edge tile with
/// `h < MR` fills its lanes one at a time.
pub(crate) fn pack_patch_cols<'a>(
    padded: &'a [f32],
    geom: &Conv2dGeometry,
) -> impl Fn(usize, usize, &mut [f32]) + 'a {
    geom.check();
    let g = *geom;
    assert_eq!(
        padded.len() % g.padded_len(),
        0,
        "not a whole number of padded images"
    );
    move |i0, h, dst| match (g.kernel, g.stride) {
        (3, 1) => patch_cols_tile(padded, &g, 3, 1, i0, h, dst),
        (3, 2) => patch_cols_tile(padded, &g, 3, 2, i0, h, dst),
        (1, 2) => patch_cols_tile(padded, &g, 1, 2, i0, h, dst),
        (k, s) => patch_cols_tile(padded, &g, k, s, i0, h, dst),
    }
}

/// Body of [`pack_patch_cols`] for kernel width `k` and stride `s`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn patch_cols_tile(
    padded: &[f32],
    g: &Conv2dGeometry,
    k: usize,
    s: usize,
    i0: usize,
    h: usize,
    dst: &mut [f32],
) {
    let (ph, pw) = (g.height + 2 * g.pad, g.width + 2 * g.pad);
    let (oh, ow) = (g.out_height(), g.out_width());
    assert!(i0 + h <= g.patch_len(), "patch index tile out of range");
    // Lane ir's tap, as an offset from a window's corner in the first
    // channel's plane of the window's image. Lanes past `h` repeat the
    // last tap; they are never written.
    let cstride = padded.len() / g.in_channels;
    let taps: [usize; MR] = std::array::from_fn(|ir| {
        let pi = i0 + ir.min(h - 1);
        pi / (k * k) * cstride + pi / k % k * pw + pi % k
    });
    let run_len = (ow - 1) * s + 1;
    let span = (oh - 1) * s * pw + run_len;
    for (img, idst) in dst.chunks_exact_mut(oh * ow * MR).enumerate() {
        // Lane ir's tap in every window of this image.
        let spans = taps.map(|t| &padded[img * ph * pw + t..][..span]);
        if h < MR {
            // Edge tile: lane by lane.
            for (oy, rdst) in idst.chunks_exact_mut(ow * MR).enumerate() {
                for (ir, lane) in spans.iter().enumerate().take(h) {
                    let run = lane[oy * s * pw..].iter().step_by(s);
                    for (d, &v) in rdst[ir..].iter_mut().step_by(MR).zip(run) {
                        *d = v;
                    }
                }
            }
        } else if ow < MR {
            // Rows shorter than a tile: window by window.
            for (oy, rdst) in idst.chunks_exact_mut(ow * MR).enumerate() {
                for (ox, d) in rdst.chunks_exact_mut(MR).enumerate() {
                    let corner = oy * s * pw + ox * s;
                    d.copy_from_slice(&spans.map(|r| r[corner]));
                }
            }
        } else {
            // One padded-row run per lane, zipped into the lanes: plain
            // slices at stride 1 (faster there than `step_by`), `step_by`
            // runs otherwise.
            for (oy, rdst) in idst.chunks_exact_mut(ow * MR).enumerate() {
                let runs = spans.map(|r| &r[oy * s * pw..][..run_len]);
                if s == 1 {
                    zip4_runs(runs, rdst);
                } else {
                    for (q, d) in rdst.chunks_exact_mut(MR).enumerate() {
                        d.copy_from_slice(&runs.map(|r| r[q * s]));
                    }
                }
            }
        }
    }
}

/// Interleaves four equal-length runs into `dst` lane by lane:
/// `dst[q·4 + ir] = runs[ir][q]`. Groups of four positions move as one
/// `4×4` SSE transpose (SSE is part of the x86-64 baseline); the tail,
/// and other targets, go element by element. A pure copy.
#[inline(always)]
fn zip4_runs(runs: [&[f32]; MR], dst: &mut [f32]) {
    const { assert!(MR == 4, "four runs fill the four lanes") };
    let len = runs[0].len();
    assert!(runs.iter().all(|r| r.len() == len) && dst.len() == len * MR);
    let mut q = 0;
    #[cfg(target_arch = "x86_64")]
    while q + 4 <= len {
        use std::arch::x86_64::*;
        // SAFETY: SSE is always present on x86-64; every run has `len ≥
        // q + 4` values and `dst` has `4·len ≥ 4·q + 16`.
        unsafe {
            let [a, b, c, d] = runs.map(|r| _mm_loadu_ps(r.as_ptr().add(q)));
            let ab_lo = _mm_unpacklo_ps(a, b);
            let ab_hi = _mm_unpackhi_ps(a, b);
            let cd_lo = _mm_unpacklo_ps(c, d);
            let cd_hi = _mm_unpackhi_ps(c, d);
            let out = dst.as_mut_ptr().add(q * MR);
            _mm_storeu_ps(out, _mm_movelh_ps(ab_lo, cd_lo));
            _mm_storeu_ps(out.add(4), _mm_movehl_ps(cd_lo, ab_lo));
            _mm_storeu_ps(out.add(8), _mm_movelh_ps(ab_hi, cd_hi));
            _mm_storeu_ps(out.add(12), _mm_movehl_ps(cd_hi, ab_hi));
        }
        q += 4;
    }
    for (qq, d) in dst.chunks_exact_mut(MR).enumerate().skip(q) {
        d.copy_from_slice(&runs.map(|r| r[qq]));
    }
}

/// Writes the row-major `rows × cols` matrix `src` into `dst` as its
/// `cols × rows` transpose: the forward GEMM's `H'W' × O` block of one
/// image into that image's channel-major output. Whole `8×8` blocks move
/// as vectors on AVX2 hosts, everything else element by element; a pure
/// copy, so every path writes the same bits.
pub(crate) fn transpose_into(src: &[f32], dst: &mut [f32], cols: usize) {
    assert_eq!(src.len(), dst.len(), "transpose size mismatch");
    let rows = src.len() / cols.max(1);
    // Rows and columns covered by whole vector blocks (none without AVX2).
    let (rb, cb) = if crate::matmul::wide_kernel_enabled() {
        (rows - rows % 8, cols - cols % 8)
    } else {
        (0, 0)
    };
    #[cfg(target_arch = "x86_64")]
    for r0 in (0..rb).step_by(8) {
        for c0 in (0..cb).step_by(8) {
            // SAFETY: `rb > 0` only when avx2 was detected; the block's
            // eight source rows `r0..r0+8` (columns `c0..c0+8`) and eight
            // destination rows `c0..c0+8` (columns `r0..r0+8`) lie inside
            // `src` and `dst`.
            unsafe {
                transpose8x8_avx2(
                    src.as_ptr().add(r0 * cols + c0),
                    cols,
                    dst.as_mut_ptr().add(c0 * rows + r0),
                    rows,
                );
            }
        }
    }
    for r in 0..rows {
        for c in if r < rb { cb } else { 0 }..cols {
            dst[c * rows + r] = src[r * cols + c];
        }
    }
}

/// One `8×8` block of [`transpose_into`]: eight row loads, the standard
/// unpack/shuffle/lane-permute network, eight row stores.
///
/// # Safety
/// AVX2 must be available, `src + r·lds` and `dst + c·ldd` must be valid
/// for eight `f32` reads (writes) for every `r, c < 8`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn transpose8x8_avx2(src: *const f32, lds: usize, dst: *mut f32, ldd: usize) {
    use std::arch::x86_64::*;
    let r: [__m256; 8] = std::array::from_fn(|i| _mm256_loadu_ps(src.add(i * lds)));
    let t0 = _mm256_unpacklo_ps(r[0], r[1]);
    let t1 = _mm256_unpackhi_ps(r[0], r[1]);
    let t2 = _mm256_unpacklo_ps(r[2], r[3]);
    let t3 = _mm256_unpackhi_ps(r[2], r[3]);
    let t4 = _mm256_unpacklo_ps(r[4], r[5]);
    let t5 = _mm256_unpackhi_ps(r[4], r[5]);
    let t6 = _mm256_unpacklo_ps(r[6], r[7]);
    let t7 = _mm256_unpackhi_ps(r[6], r[7]);
    let s0 = _mm256_shuffle_ps::<0x44>(t0, t2);
    let s1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
    let s2 = _mm256_shuffle_ps::<0x44>(t1, t3);
    let s3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
    let s4 = _mm256_shuffle_ps::<0x44>(t4, t6);
    let s5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
    let s6 = _mm256_shuffle_ps::<0x44>(t5, t7);
    let s7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
    let out = [
        _mm256_permute2f128_ps::<0x20>(s0, s4),
        _mm256_permute2f128_ps::<0x20>(s1, s5),
        _mm256_permute2f128_ps::<0x20>(s2, s6),
        _mm256_permute2f128_ps::<0x20>(s3, s7),
        _mm256_permute2f128_ps::<0x31>(s0, s4),
        _mm256_permute2f128_ps::<0x31>(s1, s5),
        _mm256_permute2f128_ps::<0x31>(s2, s6),
        _mm256_permute2f128_ps::<0x31>(s3, s7),
    ];
    for (i, v) in out.into_iter().enumerate() {
        _mm256_storeu_ps(dst.add(i * ldd), v);
    }
}

/// Direct (un-lowered) convolution of one image: `out[o] = Σ_p w[o, p] ·
/// shift_p(image)` — the inference fast path that never materialises a
/// patch matrix at all.
///
/// `weight` is the flattened `O × (C·K·K)` kernel, `out` the `O ×
/// (H'·W')` channel-major output (fully overwritten). **Bit-identical**
/// to unfolding with [`im2col_into`] and multiplying with
/// `gemm_nt_into`: the input is first copied into an explicitly
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
    let mut padded = crate::scratch::take_cleared(geom.padded_len());
    pad_images_into(image, geom, &mut padded);
    #[cfg(target_arch = "x86_64")]
    if crate::matmul::avx512_kernel_enabled() {
        // SAFETY: the avx512f requirement was just checked at runtime.
        unsafe {
            conv2d_direct_avx512(&padded, weight, out, geom);
        }
        crate::scratch::give(padded);
        return;
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
    conv2d_direct_kernel::<4>(&padded, weight, out, geom);
    crate::scratch::give(padded);
}

/// Whether batched inference on `geom` takes [`conv2d_direct_into`]:
/// unit stride, an even number of output rows, and `W'` a whole number
/// of 16-column register blocks. Other geometries go through the
/// batch-wide patch GEMM ([`crate::gemm_patches_nt_into`]).
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
    conv2d_direct_kernel::<4>(padded, weight, out, geom);
}

/// [`conv2d_direct_kernel`] compiled with AVX-512F enabled. One 16-column
/// output row is one 512-bit register, so a block of eight rows keeps
/// eight independent accumulators live where the AVX2 tier's four rows
/// fill eight 256-bit ones. Every element still performs separate `mul`
/// then `add` over ascending taps: bit-identical to the other tiers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn conv2d_direct_avx512(padded: &[f32], weight: &[f32], out: &mut [f32], geom: &Conv2dGeometry) {
    conv2d_direct_kernel::<8>(padded, weight, out, geom);
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
/// `WIDE_ROWS` is the height of the 16-column blocks the tier prefers
/// (four-row blocks where it does not divide `H'`).
#[inline(always)]
fn conv2d_direct_kernel<const WIDE_ROWS: usize>(
    padded: &[f32],
    weight: &[f32],
    out: &mut [f32],
    geom: &Conv2dGeometry,
) {
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
        if fast && ow == 2 * DIRECT_LANES && oh % WIDE_ROWS == 0 {
            for oy in (0..oh).step_by(WIDE_ROWS) {
                direct_block::<16, WIDE_ROWS>(padded, wrow, oplane, oy, c, k, ph, pw);
            }
            continue;
        }
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

thread_local! {
    /// Per-thread scratch of [`conv_input_grad_into`]: one channel block
    /// of one image's input gradient, pixel-major. Grows once per thread
    /// and is then reused, keeping the steady state allocation-free.
    static INPUT_GRAD_PIXELS: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// The convolution's input gradient over a whole batch:
/// `dx_i = col2im(g_iᵀ · w)` for every image `i`. `g` stacks the images'
/// `O × H'W'` output gradients, `w` is the flattened `O × C·K·K` kernel,
/// and `dx` (fully overwritten) holds one `C·H·W` row per image.
///
/// Neither the patch gradient `g_iᵀ · w` nor a fold of it is built. The
/// pass is output-stationary: every input pixel walks the (output position
/// `q`, tap) pairs that reach it, `q` ascending, and for each forms
/// `s = Σ_o g[o, q] · w[o, c, tap]` from `+0.0` over ascending `o`, then
/// adds `s` to a register accumulator that started at `+0.0` and is
/// stored once. The channels `c` sit in the vector lanes, reading `w`
/// repacked once per call as `[channel block][tap][o][lane]`; each image's
/// pixel-major result is then transposed into its `C×H×W` row (kernel
/// width 1 writes the rows directly).
///
/// Bit-identical to `gemm_tn_into` per image followed by
/// [`col2im_into`], for every input: `s` is exactly one element of
/// `g_iᵀ · w` (one ascending accumulator from `+0.0`, separate multiply
/// and add), and the accumulator repeats the fold's sum for the pixel —
/// the same valid taps, in the same ascending position order, from the
/// same `+0.0`. Only the payload of a NaN may differ, where NaNs of two
/// payloads meet in one add: which one survives depends on the operand
/// order the compiler emits. Images run in parallel, each written by one
/// chunk, so the result does not depend on the thread count; the wide
/// tiers only widen the lanes.
pub fn conv_input_grad_into(g: &[f32], w: &[f32], geom: &Conv2dGeometry, dx: &mut [f32]) {
    geom.check();
    let (c, kk) = (geom.in_channels, geom.kernel * geom.kernel);
    let (plen, osp, ilen) = (geom.patch_len(), geom.patch_count(), geom.image_len());
    assert_eq!(w.len() % plen, 0, "weight not whole O×CKK rows");
    assert_eq!(dx.len() % ilen, 0, "input gradient not whole images");
    let (oc, n) = (w.len() / plen, dx.len() / ilen);
    assert_eq!(g.len(), n * oc * osp, "output gradient size mismatch");
    let tier = InputGradTier::detect();
    match tier {
        InputGradTier::Avx512 => eos_trace::count!("nn.conv.input_grad.avx512", 1),
        InputGradTier::Avx2 => eos_trace::count!("nn.conv.input_grad.avx2", 1),
        InputGradTier::Scalar => eos_trace::count!("nn.conv.input_grad.scalar", 1),
    }
    // Lanes per channel block: the channel count rounded up to a power of
    // two in 4..=32; wider layers take several blocks. Padding lanes read
    // zero weights and are never stored.
    let lanes = c.next_power_of_two().clamp(4, 32);
    let blocks = c.div_ceil(lanes);
    // Written in its own order: a scatter from `w`'s order would store
    // at a stride of `O·lanes` floats, 4 KiB at O = lanes = 32.
    let mut wr = crate::scratch::take_stale(blocks * kk * oc * lanes);
    for (bt, dst) in wr.chunks_exact_mut(oc * lanes).enumerate() {
        let (b, tap) = (bt / kk, bt % kk);
        let live = (c - b * lanes).min(lanes);
        for (wo, d) in w.chunks_exact(plen).zip(dst.chunks_exact_mut(lanes)) {
            let taps = wo[(b * lanes * kk + tap)..].iter().step_by(kk);
            for (v, &x) in d[..live].iter_mut().zip(taps) {
                *v = x;
            }
            d[live..].fill(0.0);
        }
    }
    let wr_ref = &wr;
    crate::par::par_chunks_mut(dx, ilen, |i, dxi| {
        INPUT_GRAD_PIXELS.with(|cell| {
            let mut pm = cell.borrow_mut();
            let hwl = geom.height * geom.width * lanes;
            if pm.len() < hwl {
                pm.resize(hwl, 0.0);
            }
            let gi = &g[i * oc * osp..][..oc * osp];
            tier.run(lanes, gi, wr_ref, geom, &mut pm[..hwl], dxi);
        });
    });
    crate::scratch::give(wr);
}

/// The instruction tier [`conv_input_grad_into`] runs: the widest the CPU
/// supports, or the portable one when
/// [`set_force_scalar_kernel`](crate::set_force_scalar_kernel) forces it.
#[derive(Clone, Copy)]
enum InputGradTier {
    Avx512,
    Avx2,
    Scalar,
}

impl InputGradTier {
    fn detect() -> Self {
        if crate::matmul::avx512_kernel_enabled() {
            Self::Avx512
        } else if crate::matmul::wide_kernel_enabled() {
            Self::Avx2
        } else {
            Self::Scalar
        }
    }

    /// One image's input gradient `dxi`, in channel blocks of `lanes` (4,
    /// 8, 16 or 32), each computed pixel-major into `pm` (`H·W·lanes`
    /// values) and then transposed into place.
    fn run(
        self,
        lanes: usize,
        gi: &[f32],
        wr: &[f32],
        geom: &Conv2dGeometry,
        pm: &mut [f32],
        dxi: &mut [f32],
    ) {
        match self {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the avx512f requirement was checked by `detect`.
            Self::Avx512 => unsafe { input_grad_avx512(lanes, gi, wr, geom, pm, dxi) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the avx2 requirement was checked by `detect`.
            Self::Avx2 => unsafe { input_grad_avx2(lanes, gi, wr, geom, pm, dxi) },
            _ => input_grad_lanes(lanes, gi, wr, geom, pm, dxi),
        }
    }
}

/// [`input_grad_lanes`] compiled with AVX2 enabled — never `fma`, so every
/// lane keeps its separate `mul` then `add`, as in the GEMM's wide kernel.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn input_grad_avx2(
    lanes: usize,
    gi: &[f32],
    wr: &[f32],
    geom: &Conv2dGeometry,
    pm: &mut [f32],
    dxi: &mut [f32],
) {
    input_grad_lanes(lanes, gi, wr, geom, pm, dxi);
}

/// [`input_grad_lanes`] compiled with AVX-512F enabled (again without
/// `fma`): a 16-channel block is one register.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn input_grad_avx512(
    lanes: usize,
    gi: &[f32],
    wr: &[f32],
    geom: &Conv2dGeometry,
    pm: &mut [f32],
    dxi: &mut [f32],
) {
    input_grad_lanes(lanes, gi, wr, geom, pm, dxi);
}

/// Dispatches on the lane count, block by block.
#[inline(always)]
fn input_grad_lanes(
    lanes: usize,
    gi: &[f32],
    wr: &[f32],
    geom: &Conv2dGeometry,
    pm: &mut [f32],
    dxi: &mut [f32],
) {
    let (c, hw) = (geom.in_channels, geom.height * geom.width);
    let blocks = c.div_ceil(lanes);
    let block = wr.len() / blocks;
    for b in 0..blocks {
        let wb = &wr[b * block..][..block];
        // Lanes past the last channel are dropped.
        let live = (c - b * lanes).min(lanes);
        let rows = &mut dxi[b * lanes * hw..][..live * hw];
        match lanes {
            4 => input_grad_arms::<4, 2>(gi, wb, geom, pm, rows),
            8 => input_grad_arms::<8, 2>(gi, wb, geom, pm, rows),
            16 => input_grad_arms::<16, 2>(gi, wb, geom, pm, rows),
            _ => input_grad_arms::<32, 1>(gi, wb, geom, pm, rows),
        }
    }
}

/// One channel block into `rows` (its live channels' `H·W` planes):
/// straight from the positions for kernel width 1, through the
/// pixel-major `pm` otherwise. Literal arms constant-fold the
/// kernel/stride pairs the models use.
#[inline(always)]
fn input_grad_arms<const L: usize, const P: usize>(
    gi: &[f32],
    wb: &[f32],
    geom: &Conv2dGeometry,
    pm: &mut [f32],
    rows: &mut [f32],
) {
    match (geom.kernel, geom.stride) {
        (1, s) => return input_grad_pointwise::<L, P>(gi, wb, geom, s, rows),
        (3, 1) => input_grad_block::<L, P>(gi, wb, geom, 3, 1, pm),
        (3, 2) => input_grad_block::<L, P>(gi, wb, geom, 3, 2, pm),
        (k, s) => input_grad_block::<L, P>(gi, wb, geom, k, s, pm),
    }
    let hw = geom.height * geom.width;
    if rows.len() == L * hw {
        transpose_into(pm, rows, L);
    } else {
        for (l, row) in rows.chunks_exact_mut(hw).enumerate() {
            for (d, px) in row.iter_mut().zip(pm.chunks_exact(L)) {
                *d = px[l];
            }
        }
    }
}

/// [`input_grad_block`] for kernel width 1, stride `s`, written straight
/// into the block's channel planes `rows`. A pixel is reached by at most
/// one (position, tap) pair, so each position's sum, added to `+0.0`, is
/// its pixel's value, and every other pixel is `+0.0`: the position's
/// pixel is found from the position instead of the other way round.
/// Consecutive positions are summed `P` at a time.
#[inline(always)]
fn input_grad_pointwise<const L: usize, const P: usize>(
    gi: &[f32],
    wb: &[f32],
    geom: &Conv2dGeometry,
    s: usize,
    rows: &mut [f32],
) {
    let (h, w, p) = (geom.height, geom.width, geom.pad);
    let hw = h * w;
    let pass = BlockPass::<L>::new(gi, wb, geom, 1, s);
    // Positions `o` whose pixel `o·s − p` lies inside `0..n`.
    let inside = |n: usize, outs: usize| p.div_ceil(s)..((n + p - 1) / s + 1).min(outs);
    let xs = inside(w, pass.ow);
    rows.fill(0.0);
    for oy in inside(h, geom.out_height()) {
        let plane_row = (oy * s - p) * w;
        // Position `ox`'s sums, `acc[j]` for `ox + j`, into their pixels.
        let mut put = |ox: usize, acc: &[[f32; L]]| {
            for (j, a) in acc.iter().enumerate() {
                let px = plane_row + (ox + j) * s - p;
                for (row, &v) in rows.chunks_exact_mut(hw).zip(a) {
                    row[px] = v;
                }
            }
        };
        let mut ox = xs.start;
        while ox < xs.end {
            let q = oy * pass.ow + ox;
            if ox + P <= xs.end {
                let mut acc = [[0.0f32; L]; P];
                pass.run::<1, P>(q, 0, &mut acc);
                put(ox, &acc);
                ox += P;
            } else {
                let mut acc = [[0.0f32; L]; 1];
                pass.run::<1, 1>(q, 0, &mut acc);
                put(ox, &acc);
                ox += 1;
            }
        }
    }
}

/// The output positions along one axis whose window covers input index
/// `i`: `o` with `0 ≤ i + pad − o·stride < kernel`, clipped to the `n`
/// output positions (empty when no window reaches `i`).
#[inline(always)]
fn reach(i: usize, k: usize, s: usize, p: usize, n: usize) -> std::ops::Range<usize> {
    (i + p + 1).saturating_sub(k).div_ceil(s)..((i + p) / s + 1).min(n)
}

/// One channel block of one image's input gradient, into the pixel-major
/// `pm` (`L` lanes per pixel), for kernel width `k` and stride `s`. `gi`
/// is the image's `O × H'W'` output gradient and `wb` the block's weights
/// as `[tap][o][lane]`.
///
/// A pixel's (position, tap) pairs in ascending position order are one run
/// per output row that reaches it: the next pair of a run is the next
/// position and the tap `s` to the left. Pixel `ix + s` has the same taps
/// one position further on, so where their runs line up, `P` such pixels
/// are summed together and share every weight load.
#[inline(always)]
fn input_grad_block<const L: usize, const P: usize>(
    gi: &[f32],
    wb: &[f32],
    geom: &Conv2dGeometry,
    k: usize,
    s: usize,
    pm: &mut [f32],
) {
    let (h, w, p) = (geom.height, geom.width, geom.pad);
    let (oh, ow) = (geom.out_height(), geom.out_width());
    let pass = BlockPass::<L>::new(gi, wb, geom, k, s);
    for iy in 0..h {
        let rows = reach(iy, k, s, p, oh);
        let row_pm = &mut pm[iy * w * L..][..w * L];
        // Pixels `ix, ix + s, …` in turn, one residue of `ix` mod `s` at
        // a time.
        for r in 0..s.min(w) {
            let mut ix = r;
            while ix < w {
                let cols = reach(ix, k, s, p, ow);
                let lined_up = P > 1
                    && ix + (P - 1) * s < w
                    && (1..P).all(|j| {
                        let next = reach(ix + j * s, k, s, p, ow);
                        next.start == cols.start + j && next.len() == cols.len()
                    });
                if lined_up {
                    let mut acc = [[0.0f32; L]; P];
                    pass.pixels(iy, ix, rows.clone(), cols, &mut acc);
                    for (j, a) in acc.iter().enumerate() {
                        row_pm[(ix + j * s) * L..][..L].copy_from_slice(a);
                    }
                    ix += P * s;
                } else {
                    let mut acc = [[0.0f32; L]; 1];
                    pass.pixels(iy, ix, rows.clone(), cols, &mut acc);
                    row_pm[ix * L..][..L].copy_from_slice(&acc[0]);
                    ix += s;
                }
            }
        }
    }
}

/// What [`input_grad_block`]'s pixels read: `gi` and `wb` as there, `oc`
/// output channels, `osp` output positions in `ow` columns, kernel width
/// `k`, stride `s` and pad `p`.
#[derive(Clone, Copy)]
struct BlockPass<'a, const L: usize> {
    gi: &'a [f32],
    wb: &'a [f32],
    oc: usize,
    osp: usize,
    ow: usize,
    k: usize,
    s: usize,
    p: usize,
}

impl<'a, const L: usize> BlockPass<'a, L> {
    #[inline(always)]
    fn new(gi: &'a [f32], wb: &'a [f32], geom: &Conv2dGeometry, k: usize, s: usize) -> Self {
        let (ow, osp) = (geom.out_width(), geom.patch_count());
        BlockPass {
            gi,
            wb,
            oc: gi.len() / osp,
            osp,
            ow,
            k,
            s,
            p: geom.pad,
        }
    }

    /// Every run of pixel `(iy, ix)` into `acc[0]`, output row by output
    /// row, and for `P > 1` the same for pixels `ix + j·s`, whose runs are
    /// pixel `ix`'s `j` positions on, into `acc[j]`. `rows` and `cols` are
    /// the output rows and columns that reach pixel `(iy, ix)`.
    #[inline(always)]
    fn pixels<const P: usize>(
        &self,
        iy: usize,
        ix: usize,
        rows: std::ops::Range<usize>,
        cols: std::ops::Range<usize>,
        acc: &mut [[f32; L]; P],
    ) {
        let (k, s, p) = (self.k, self.s, self.p);
        if cols.is_empty() {
            return;
        }
        for oy in rows {
            // The run's first position and its tap.
            let q = oy * self.ow + cols.start;
            let tap = (iy + p - oy * s) * k + ix + p - cols.start * s;
            match cols.len() {
                1 => self.run::<1, P>(q, tap, acc),
                2 => self.run::<2, P>(q, tap, acc),
                3 => self.run::<3, P>(q, tap, acc),
                n => {
                    for j in 0..n {
                        self.run::<1, P>(q + j, tap - j * s, acc);
                    }
                }
            }
        }
    }

    /// A run of `N` pairs starting at position `q` and tap `tap`, for each
    /// of `P` pixels (pixel `j` starting at position `q + j`): every pair
    /// forms `Σ_o g[o, q] · w[o, ·, tap]` from `+0.0` over ascending `o`,
    /// separate multiply and add, all `N·P` sums side by side; then each
    /// pixel's sums are added to its accumulator in pair order.
    #[inline(always)]
    fn run<const N: usize, const P: usize>(&self, q: usize, tap: usize, acc: &mut [[f32; L]; P]) {
        let (gi, wb, oc, osp) = (self.gi, self.wb, self.oc, self.osp);
        let (w0, wstep) = (tap * oc * L, self.s * oc * L);
        assert!(
            q + N + P - 1 <= osp
                && oc * osp <= gi.len()
                && w0 + oc * L <= wb.len()
                && (N - 1) * wstep <= w0,
            "run out of range"
        );
        let mut sums = [[[0.0f32; L]; N]; P];
        for o in 0..oc {
            for j in 0..N {
                // SAFETY: `o < oc` and `j < N`: inside the range checked
                // above.
                let wrow = unsafe { &*wb.as_ptr().add(w0 - j * wstep + o * L).cast::<[f32; L]>() };
                for (pi, psums) in sums.iter_mut().enumerate() {
                    // SAFETY: `q + pi + j < q + N + P − 1 ≤ osp` and
                    // `o < oc`: inside the range checked above.
                    let gv = unsafe { *gi.get_unchecked(o * osp + q + pi + j) };
                    for (sv, &wv) in psums[j].iter_mut().zip(wrow) {
                        *sv += gv * wv;
                    }
                }
            }
        }
        for (a, psums) in acc.iter_mut().zip(&sums) {
            for sum in psums {
                for (av, &sv) in a.iter_mut().zip(sum) {
                    *av += sv;
                }
            }
        }
    }
}

/// Adjoint of [`im2col_into`]: scatter-adds a `(out_h*out_w) × (C*K*K)`
/// patch gradient back into a caller-owned `C×H×W` image gradient buffer
/// (fully overwritten). Each pixel sums the taps that reach it from
/// `+0.0`, in ascending output position.
///
/// No training pass calls it — [`conv_input_grad_into`] never builds the
/// patch gradient — but it is the oracle the input gradient is checked
/// against.
pub fn col2im_into(cols: &[f32], geom: &Conv2dGeometry, image: &mut [f32]) {
    geom.check();
    assert_eq!(
        cols.len(),
        geom.patch_count() * geom.patch_len(),
        "cols size mismatch"
    );
    assert_eq!(image.len(), geom.image_len(), "image buffer size mismatch");
    image.fill(0.0);
    for_each_tap(geom, |col, pixel| image[pixel] += cols[col]);
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

    fn unfold(img: &[f32], g: &Conv2dGeometry) -> Vec<f32> {
        let mut cols = vec![0.0f32; g.patch_count() * g.patch_len()];
        im2col_into(img, g, &mut cols);
        cols
    }

    #[test]
    fn identity_kernel_extracts_pixels() {
        // 1x1 kernel, stride 1, no pad: patch matrix is the image itself.
        let img: Vec<f32> = (0..9).map(|x| x as f32).collect();
        assert_eq!(unfold(&img, &geom(1, 3, 3, 1, 1, 0)), img);
    }

    #[test]
    fn patches_are_correct_with_padding() {
        // 2x2 image, 3x3 kernel, pad 1 -> 4 patches centred on each pixel.
        let img = vec![1.0, 2.0, 3.0, 4.0];
        let cols = unfold(&img, &geom(1, 2, 2, 3, 1, 1));
        assert_eq!(cols.len(), 4 * 9);
        // Patch at output (0,0): padded neighbourhood of pixel (0,0).
        assert_eq!(cols[..9], [0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 0.0, 3.0, 4.0]);
        // Patch at output (1,1): neighbourhood of pixel (1,1).
        assert_eq!(cols[27..], [1.0, 2.0, 0.0, 3.0, 4.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn multi_channel_layout() {
        // Two channels: patch columns are channel-major then ky, kx.
        let img = vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0];
        assert_eq!(unfold(&img, &geom(2, 2, 2, 2, 1, 0)), img);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random-ish x, y.
        let g = geom(2, 5, 4, 3, 2, 1);
        let x: Vec<f32> = (0..g.image_len())
            .map(|i| ((i * 7 + 3) % 11) as f32 - 5.0)
            .collect();
        let cols = unfold(&x, &g);
        let y: Vec<f32> = (0..cols.len())
            .map(|i| ((i * 5 + 1) % 13) as f32 - 6.0)
            .collect();
        let lhs: f32 = cols.iter().zip(&y).map(|(a, b)| a * b).sum();
        let mut back = vec![f32::NAN; g.image_len()];
        col2im_into(&y, &g, &mut back);
        let rhs: f32 = x.iter().zip(&back).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn im2col_into_overwrites_stale_scratch() {
        let img = vec![1.0, 2.0, 3.0, 4.0];
        let g = geom(1, 2, 2, 3, 1, 1);
        let mut scratch = vec![9.9f32; g.patch_count() * g.patch_len()];
        im2col_into(&img, &g, &mut scratch);
        assert_eq!(scratch, unfold(&img, &g));
    }

    #[test]
    #[should_panic(expected = "kernel larger")]
    fn rejects_kernel_larger_than_input() {
        im2col_into(&[0.0; 4], &geom(1, 2, 2, 5, 1, 0), &mut []);
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
            let cols = unfold(&img, &g);
            let mut want = vec![0.0f32; out_ch * osp];
            crate::matmul::gemm_nt_into(&wts, &cols, &mut want, plen, osp);
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
