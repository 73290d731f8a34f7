//! Packed, register-blocked, row-parallel matrix multiplication kernels.
//!
//! The training stack spends almost all of its time here (convolutions are
//! GEMMs over their patch matrices), so the inner loop is a register-blocked
//! micro-kernel: an `MR`×`NR` tile of the output is held in one local
//! accumulator per element while the reduction dimension is streamed from
//! **packed panels**. The right-hand side is packed once per call into
//! `NR`-wide column panels (contiguous in the reduction index, shared
//! read-only across all row chunks and parallel workers); the left-hand
//! side is packed per `MR`-row tile into per-thread scratch by a packer for
//! its layout: [`pack_rows`] (row-major), [`pack_cols`] (transposed), or,
//! for convolutions, [`pack_patch_rows`]/[`pack_patch_cols`], which read
//! the tiles of a patch matrix straight from the images. Edge tiles
//! (m or n not multiples of `MR`/`NR`) fall back to masked scalar tails.
//! The convolution's input gradient is not a GEMM: its reduction over the
//! output channels is too short to fill a tile, so it runs as one
//! output-stationary pass of its own
//! ([`conv_input_grad_into`](crate::conv_input_grad_into)).
//!
//! Every output element is still accumulated over the reduction index in
//! ascending order with a single carried accumulator — the same sequence
//! of multiplies and adds as the seed scalar kernels — so results are
//! bit-for-bit identical to both the seed implementation and PR 1's
//! serial/parallel determinism guarantee. The segmented core
//! ([`gemm_segmented_acc_with`]) sums each reduction segment from zero and
//! adds the segment sums in order. See DESIGN.md for the layout and the
//! determinism argument.

use crate::conv::{pack_patch_cols, pack_patch_rows, transpose_into, Conv2dGeometry};
use crate::par;
use crate::scratch;
use crate::tensor::Tensor;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};

/// Rows of the output tile held in registers by the micro-kernel, and so
/// the rows of every packed A tile.
pub(crate) const MR: usize = 4;
/// Columns of the output tile held in registers by the micro-kernel.
const NR: usize = 8;

/// Multiply-add count below which a GEMM is not worth dispatching to the
/// pool; such calls run as a single inline chunk.
const PAR_MIN_WORK: usize = 1 << 17;

/// Rows per parallel chunk. Depends only on the problem shape (never on
/// the thread count) so chunk boundaries — and therefore results — are
/// reproducible across machines and budgets.
fn rows_per_chunk(rows: usize, row_work: usize) -> usize {
    if rows * row_work < PAR_MIN_WORK {
        return rows.max(1);
    }
    ((1usize << 14).div_ceil(row_work.max(1))).clamp(1, rows.max(1))
}

/// [`rows_per_chunk`] rounded up to whole `MR`-row tiles so parallel
/// chunks do not strand partial tiles at every chunk boundary.
fn tile_rows_per_chunk(rows: usize, row_work: usize) -> usize {
    rows_per_chunk(rows, row_work)
        .next_multiple_of(MR)
        .min(rows.max(1))
}

thread_local! {
    /// Per-thread scratch for the packed `MR`-row tile of the left-hand
    /// side. Grows to `k * MR` once per thread and is then reused by every
    /// subsequent GEMM, keeping the hot path allocation-free.
    static A_PACK: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Packs the logical right-hand side `B̂ (k×n)` into `NR`-wide column
/// panels: element `(p, jp*NR + jr)` lands at `jp*k*NR + p*NR + jr`.
/// Columns past `n` in the last panel are zero-padded, so the micro-kernel
/// never reads out of bounds. `get(p, j)` supplies the element, which lets
/// the same packer serve the NN / NT / TN variants without materialising a
/// transpose. The returned buffer comes from (and should be returned to)
/// the [`scratch`] pool.
fn pack_b<F: Fn(usize, usize) -> f32>(get: F, k: usize, n: usize) -> Vec<f32> {
    let np = n.div_ceil(NR);
    let mut packed = scratch::take_zeroed(np * k * NR);
    for (jp, panel) in packed.chunks_exact_mut(k * NR).enumerate() {
        let w = (n - jp * NR).min(NR);
        for (p, row) in panel.chunks_exact_mut(NR).enumerate() {
            for (jr, d) in row[..w].iter_mut().enumerate() {
                *d = get(p, jp * NR + jr);
            }
        }
    }
    packed
}

/// Packs `MR`-row tiles of a row-major left-hand side (`a[i·lda + p]`):
/// the returned closure writes rows `i0 .. i0 + h`, over the reduction
/// indices `0 .. dst.len()/MR`, into `dst[p·MR + ir]`, and leaves lanes
/// `ir ≥ h` untouched.
pub(crate) fn pack_rows(a: &[f32], lda: usize) -> impl Fn(usize, usize, &mut [f32]) + '_ {
    const { assert!(MR == 4, "the full-tile path below zips four rows") };
    move |i0, h, dst| {
        let k = dst.len() / MR;
        let row = |ir: usize| &a[(i0 + ir) * lda..][..k];
        if h == MR {
            let rows = row(0).iter().zip(row(1)).zip(row(2)).zip(row(3));
            for (d, (((&v0, &v1), &v2), &v3)) in dst.chunks_exact_mut(MR).zip(rows) {
                d.copy_from_slice(&[v0, v1, v2, v3]);
            }
        } else {
            for ir in 0..h {
                for (d, &v) in dst[ir..].iter_mut().step_by(MR).zip(row(ir)) {
                    *d = v;
                }
            }
        }
    }
}

/// Like [`pack_rows`] for a left-hand side stored transposed
/// (`a[p·lda + i]`): each reduction index is one contiguous copy.
pub(crate) fn pack_cols(a: &[f32], lda: usize) -> impl Fn(usize, usize, &mut [f32]) + '_ {
    move |i0, h, dst| {
        for (p, d) in dst.chunks_exact_mut(MR).enumerate() {
            let src = &a[p * lda + i0..];
            if h == MR {
                d.copy_from_slice(&src[..MR]);
            } else {
                d[..h].copy_from_slice(&src[..h]);
            }
        }
    }
}

/// Computes a chunk of output rows of `C = Â (m̂×k̂) · B̂ (k̂×n̂)` from
/// packed panels — or, with `accumulate`, of `C += Σ_s Â_s · B̂_s`, where
/// the reduction `p = 0..k` is cut into `k / seg` segments of `seg`
/// consecutive indices. `rows` is the chunk
/// `C[row0 .. row0 + rows.len()/n, :]`; `pack_a(i0, h, dst)` packs rows
/// `i0 .. i0 + h` of Â into `dst` (see [`pack_rows`]).
///
/// For every output element each segment is summed by one accumulator
/// that starts from `0.0` and runs over its `p` in ascending order, and
/// the segment sums are then added to `C` in segment order — full tiles in
/// the register kernel and edge tiles in the masked scalar tails follow
/// the exact same sequence. Without `accumulate` (one segment, `seg ==
/// k`) the old contents of `rows` are ignored and each element is that
/// single ascending accumulator — the seed scalar kernels' sum: the
/// kernel adds it to `+0.0`, and a sum started at `+0.0` can never be
/// `-0.0`, so `0.0 + acc` is exactly `acc`.
#[allow(clippy::too_many_arguments)]
fn packed_gemm_rows<P: Fn(usize, usize, &mut [f32])>(
    pack_a: &P,
    packed_b: &[f32],
    rows: &mut [f32],
    row0: usize,
    k: usize,
    seg: usize,
    n: usize,
    accumulate: bool,
) {
    if k == 0 {
        if !accumulate {
            rows.fill(0.0);
        }
        return;
    }
    if n == 0 {
        return;
    }
    debug_assert!(seg > 0 && k.is_multiple_of(seg), "segments must tile k");
    debug_assert!(accumulate || seg == k, "overwrite mode is one segment");
    let nrows = rows.len() / n;
    let panel_len = k * NR;
    let full_np = n / NR;
    let ntiles = nrows.div_ceil(MR);
    A_PACK.with(|cell| {
        let mut apack = cell.borrow_mut();
        if apack.len() < k * MR * ntiles {
            apack.resize(k * MR * ntiles, 0.0);
        }
        let apack = &mut apack[..k * MR * ntiles];
        // Pack every MR-row tile of Â up front: element (it + ir, p) at
        // tile offset + p*MR + ir. Rows past the m-edge are zero so the
        // kernel reads are in bounds; their lanes are never written back.
        for t in 0..ntiles {
            let it = t * MR;
            let h = (nrows - it).min(MR);
            let tp = &mut apack[t * k * MR..(t + 1) * k * MR];
            if h < MR {
                tp.fill(0.0);
            }
            pack_a(row0 + it, h, tp);
        }
        // Sweep the B̂ panels in cache-sized blocks with every row tile
        // visiting a block before the sweep moves on, so each panel is
        // pulled from memory once (not once per row tile) and reused
        // while hot. Iteration order only: every output element's
        // segments are still summed by one kernel call over ascending
        // `p`, so the result is bit-identical to the unblocked sweep.
        let nb = (PANEL_BLOCK_BYTES / (panel_len * std::mem::size_of::<f32>())).max(1);
        let mut jp0 = 0;
        while jp0 < full_np {
            let jp1 = (jp0 + nb).min(full_np);
            for t in 0..ntiles {
                let it = t * MR;
                let h = (nrows - it).min(MR);
                tile_kernel_dispatch(
                    &apack[t * k * MR..(t + 1) * k * MR],
                    packed_b,
                    rows,
                    it,
                    h,
                    seg,
                    n,
                    accumulate,
                    jp0,
                    jp1,
                );
            }
            jp0 = jp1;
        }
        // Masked scalar n-tail: same per-segment accumulators, same
        // ascending-p order, reading the zero-padded last panel.
        if full_np * NR < n {
            let bpanel = &packed_b[full_np * panel_len..];
            for t in 0..ntiles {
                let it = t * MR;
                let h = (nrows - it).min(MR);
                let tp = &apack[t * k * MR..(t + 1) * k * MR];
                for ir in 0..h {
                    for j in full_np * NR..n {
                        let jr = j - full_np * NR;
                        let mut c = if accumulate {
                            rows[(it + ir) * n + j]
                        } else {
                            0.0
                        };
                        for s0 in (0..k).step_by(seg) {
                            let mut acc = 0.0f32;
                            for p in s0..s0 + seg {
                                acc += tp[p * MR + ir] * bpanel[p * NR + jr];
                            }
                            c += acc;
                        }
                        rows[(it + ir) * n + j] = c;
                    }
                }
            }
        }
    });
}

/// Target footprint of one B̂ panel block in [`packed_gemm_rows`]'s sweep:
/// small enough to sit in L1 alongside the packed Â tile and the touched
/// C lines, large enough to amortise the per-block tile loop.
const PANEL_BLOCK_BYTES: usize = 16 * 1024;

/// Register micro-kernel over the full `NR`-wide panels `jp0..jp1` for one
/// packed `MR`-row tile of Â. One register row per output row: the inner
/// update is a broadcast of â(ir, p) against the contiguous `NR`-wide b
/// panel row, the same shape the vectoriser handles in the seed kernel —
/// each element keeps its own accumulator over one `seg`-long segment of
/// `p` ascending, so no reassociation is needed (or performed), with any
/// instruction width. Segment sums are added to the C tile in order.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tile_kernel(
    apack: &[f32],
    packed_b: &[f32],
    rows: &mut [f32],
    it: usize,
    h: usize,
    seg: usize,
    n: usize,
    accumulate: bool,
    jp0: usize,
    jp1: usize,
) {
    let panel_len = apack.len() / MR * NR;
    for jp in jp0..jp1 {
        let bpanel = &packed_b[jp * panel_len..(jp + 1) * panel_len];
        let mut c = [[0.0f32; NR]; MR];
        if accumulate {
            for (ir, row) in c.iter_mut().enumerate().take(h) {
                let o = (it + ir) * n + jp * NR;
                row.copy_from_slice(&rows[o..o + NR]);
            }
        }
        for (aseg, bseg) in apack
            .chunks_exact(seg * MR)
            .zip(bpanel.chunks_exact(seg * NR))
        {
            let mut acc = [[0.0f32; NR]; MR];
            for (ap, bp) in aseg.chunks_exact(MR).zip(bseg.chunks_exact(NR)) {
                let ap: &[f32; MR] = ap.try_into().unwrap();
                let bp: &[f32; NR] = bp.try_into().unwrap();
                for (ir, row) in acc.iter_mut().enumerate() {
                    let av = ap[ir];
                    for (r, &bv) in row.iter_mut().zip(bp) {
                        *r += av * bv;
                    }
                }
            }
            for (crow, arow) in c.iter_mut().zip(&acc) {
                for (cv, &av) in crow.iter_mut().zip(arow) {
                    *cv += av;
                }
            }
        }
        for (ir, row) in c.iter().enumerate().take(h) {
            let o = (it + ir) * n + jp * NR;
            rows[o..o + NR].copy_from_slice(row);
        }
    }
}

/// [`tile_kernel`] compiled with AVX2 enabled, so the `NR`-wide rows use
/// full-width vector registers. Only `avx2` is enabled — never `fma` — so
/// the compiler cannot contract the multiply and add into a fused op:
/// lanes are independent output elements and every element still performs
/// the exact seed sequence of separate `mul` then `add`, making the wide
/// path bit-identical to the portable one.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
fn tile_kernel_avx2(
    apack: &[f32],
    packed_b: &[f32],
    rows: &mut [f32],
    it: usize,
    h: usize,
    seg: usize,
    n: usize,
    accumulate: bool,
    jp0: usize,
    jp1: usize,
) {
    tile_kernel(apack, packed_b, rows, it, h, seg, n, accumulate, jp0, jp1);
}

/// When set, [`tile_kernel_dispatch`] ignores CPU feature detection and
/// runs the portable scalar micro-kernel. The wide and portable paths are
/// designed to be bit-identical; this switch lets the `check_numerics`
/// gate *prove* it on the host CPU instead of trusting the argument.
static FORCE_SCALAR_KERNEL: AtomicBool = AtomicBool::new(false);

/// Forces (or stops forcing) the portable scalar micro-kernel regardless
/// of detected CPU features. Verification-harness use only: the toggle is
/// process-global, so flip it around a comparison, not concurrently with
/// unrelated GEMMs whose performance matters.
pub fn set_force_scalar_kernel(on: bool) {
    FORCE_SCALAR_KERNEL.store(on, Ordering::Relaxed);
}

/// Whether the wide kernels run: the CPU has AVX2 and
/// [`set_force_scalar_kernel`] is not forcing the portable kernels. Every
/// wide/portable kernel pair in the workspace (GEMM, direct convolution,
/// brute-force k-NN) dispatches on this, so the verification harness
/// exercises them all with one toggle. Feature detection is cached by
/// `std`, so the check is two relaxed atomic loads.
#[inline]
pub fn wide_kernel_enabled() -> bool {
    #[cfg(target_arch = "x86_64")]
    let wide =
        !FORCE_SCALAR_KERNEL.load(Ordering::Relaxed) && std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let wide = false;
    wide
}

/// Whether the 512-bit tier runs: [`wide_kernel_enabled`] holds and the
/// CPU also has AVX-512F. The brute-force k-NN kernel and the direct
/// convolution have such a tier. Since it requires [`wide_kernel_enabled`],
/// [`set_force_scalar_kernel`] turns it off too.
#[inline]
pub fn avx512_kernel_enabled() -> bool {
    #[cfg(target_arch = "x86_64")]
    let wide = wide_kernel_enabled() && std::arch::is_x86_feature_detected!("avx512f");
    #[cfg(not(target_arch = "x86_64"))]
    let wide = false;
    wide
}

/// Records one GEMM call: total count, which micro-kernel the per-tile
/// dispatch will select (the toggle and CPU features cannot change
/// mid-call in any supported use), and the flop count distribution.
/// Counted once per entry point, not per tile — the tile loop is far too
/// hot to touch even a relaxed atomic.
#[inline]
fn trace_gemm(m: usize, k: usize, n: usize) {
    if !eos_trace::enabled() {
        return;
    }
    eos_trace::count!("gemm.calls", 1);
    if wide_kernel_enabled() {
        eos_trace::count!("gemm.dispatch.avx2", 1);
    } else {
        eos_trace::count!("gemm.dispatch.scalar", 1);
    }
    eos_trace::hist!("gemm.flops", 2 * (m as u64) * (k as u64) * (n as u64));
}

/// Runs the widest bit-identical micro-kernel the CPU supports.
#[inline]
#[allow(clippy::too_many_arguments)]
fn tile_kernel_dispatch(
    apack: &[f32],
    packed_b: &[f32],
    rows: &mut [f32],
    it: usize,
    h: usize,
    seg: usize,
    n: usize,
    accumulate: bool,
    jp0: usize,
    jp1: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if wide_kernel_enabled() {
        // SAFETY: the avx2 requirement was just checked at runtime.
        unsafe {
            return tile_kernel_avx2(apack, packed_b, rows, it, h, seg, n, accumulate, jp0, jp1);
        }
    }
    tile_kernel(apack, packed_b, rows, it, h, seg, n, accumulate, jp0, jp1);
}

impl Tensor {
    /// Matrix product `self (m×k) · other (k×n) -> (m×n)`.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matmul lhs must be rank-2");
        assert_eq!(other.rank(), 2, "matmul rhs must be rank-2");
        let (m, k) = (self.dim(0), self.dim(1));
        let (k2, n) = (other.dim(0), other.dim(1));
        assert_eq!(k, k2, "inner dimension mismatch: {k} vs {k2}");
        trace_gemm(m, k, n);
        let mut out = scratch::take_zeroed(m * n);
        if m > 0 && n > 0 {
            let (a, b) = (self.data(), other.data());
            let packed_b = pack_b(|p, j| b[p * n + j], k, n);
            let pb = &packed_b[..];
            let chunk = tile_rows_per_chunk(m, k * n);
            let pack_a = pack_rows(a, k);
            par::par_chunks_mut(&mut out, chunk * n, |ci, rows| {
                packed_gemm_rows(&pack_a, pb, rows, ci * chunk, k, k, n, false);
            });
            scratch::give(packed_b);
        }
        Tensor::from_vec(out, &[m, n])
    }

    /// `self (m×k) · otherᵀ  (n×k) -> (m×n)` without materialising the
    /// transpose. `other` is stored row-major as `n×k`.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2);
        assert_eq!(other.rank(), 2);
        let (m, k) = (self.dim(0), self.dim(1));
        let (n, k2) = (other.dim(0), other.dim(1));
        assert_eq!(k, k2, "inner dimension mismatch: {k} vs {k2}");
        let mut out = scratch::take_zeroed(m * n);
        gemm_nt_into(self.data(), other.data(), &mut out, k, n);
        Tensor::from_vec(out, &[m, n])
    }

    /// `selfᵀ (k×m stored m-major) · other (m×n) -> (k×n)` without
    /// materialising the transpose. `self` is stored row-major as `m×k`.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2);
        assert_eq!(other.rank(), 2);
        let (m, k) = (self.dim(0), self.dim(1));
        let (m2, n) = (other.dim(0), other.dim(1));
        assert_eq!(m, m2, "inner dimension mismatch: {m} vs {m2}");
        let mut out = scratch::take_zeroed(k * n);
        gemm_tn_into(self.data(), other.data(), &mut out, m, k, n);
        Tensor::from_vec(out, &[k, n])
    }
}

/// `out = a (m×k) · bᵀ (n×k)` into a caller-owned `m×n` buffer, without
/// allocating a `Tensor`. Row-parallel over shape-only chunks, so the
/// result is the same at every thread count; [`Tensor::matmul_nt`] is this
/// call into a pooled buffer.
pub(crate) fn gemm_nt_into(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
    assert_eq!(out.len() % n.max(1), 0, "output not a whole number of rows");
    let m = out.len() / n.max(1);
    assert_eq!(a.len(), m * k, "lhs size mismatch");
    gemm_nt_with(&pack_rows(a, k), b, out, k, n);
}

/// The convolution forward over a whole batch: `patches · wᵀ`, written
/// channel-major per image. `patches` is the image-major `n·H'W' × C·K·K`
/// patch matrix of the `n` images whose zero-padded planes `padded` holds
/// (as laid out by [`pad_images_into`]), and `w` is the flattened
/// `O × C·K·K` kernel; `out` holds one `O·H'W'` row per image, output
/// channel `o` of image `i` at position `q` in `out[(i·O + o)·H'W' + q]`.
///
/// The patch matrix is never built: [`pack_patch_rows`] packs each A tile
/// straight from the padded images. The tiles hold the values
/// [`im2col_into`] would have written and the GEMM is [`gemm_nt_into`]'s
/// (same panels, chunks and accumulation order), so the product is
/// bit-identical to unfolding every image and calling [`gemm_nt_into`];
/// each image's `H'W' × O` block of it is then transposed into place.
///
/// [`im2col_into`]: crate::im2col_into
/// [`pad_images_into`]: crate::pad_images_into
pub fn gemm_patches_nt_into(padded: &[f32], geom: &Conv2dGeometry, w: &[f32], out: &mut [f32]) {
    let (plen, osp) = (geom.patch_len(), geom.patch_count());
    assert_eq!(w.len() % plen, 0, "weight not whole O×CKK rows");
    let oc = w.len() / plen;
    let n = padded.len() / geom.padded_len();
    assert_eq!(out.len(), n * osp * oc, "output size mismatch");
    // Every element of the product is written by the GEMM.
    let mut pos = scratch::take_stale(out.len());
    gemm_nt_with(&pack_patch_rows(padded, geom), w, &mut pos, plen, oc);
    let pos_ref = &pos;
    par::par_chunks_mut(out, osp * oc, |i, orow| {
        transpose_into(&pos_ref[i * osp * oc..][..osp * oc], orow, oc);
    });
    scratch::give(pos);
}

/// [`gemm_nt_into`] with the left-hand side supplied by its tile packer:
/// `out (m×n) = Â (m×k) · bᵀ`, `b` stored row-major as `n×k`.
fn gemm_nt_with<P>(pack_a: &P, b: &[f32], out: &mut [f32], k: usize, n: usize)
where
    P: Fn(usize, usize, &mut [f32]) + Sync,
{
    let m = out.len() / n.max(1);
    assert_eq!(b.len(), n * k, "rhs size mismatch");
    trace_gemm(m, k, n);
    let packed_b = pack_b(|p, j| b[j * k + p], k, n);
    let pb = &packed_b[..];
    let chunk = tile_rows_per_chunk(m, k * n);
    par::par_chunks_mut(out, chunk * n, |ci, rows| {
        packed_gemm_rows(pack_a, pb, rows, ci * chunk, k, k, n, false);
    });
    scratch::give(packed_b);
}

/// `out (k×n) = aᵀ · b` into a caller-owned buffer, where `a` is row-major
/// `m×k` and `b` is `m×n`, without materialising the transpose.
/// Row-parallel over shape-only chunks, so the result is the same at every
/// thread count; [`Tensor::matmul_tn`] is this call into a pooled buffer.
pub(crate) fn gemm_tn_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "lhs size mismatch");
    assert_eq!(out.len(), k * n, "output size mismatch");
    assert_eq!(b.len(), m * n, "rhs size mismatch");
    trace_gemm(k, m, n);
    let packed_b = pack_b(|i, j| b[i * n + j], m, n);
    let pb = &packed_b[..];
    let pack_a = pack_cols(a, k);
    let chunk = tile_rows_per_chunk(k, m * n);
    par::par_chunks_mut(out, chunk * n, |ci, rows| {
        packed_gemm_rows(&pack_a, pb, rows, ci * chunk, m, m, n, false);
    });
    scratch::give(packed_b);
}

/// `dw (O × C·K·K) += Σ_i g_i · patches_i`: the convolution weight
/// gradient over a whole batch. `g` stacks the images' `O × H'W'` output
/// gradients, and `patches_i` is image `i`'s `H'W' × C·K·K` patch matrix,
/// taken from the batch's zero-padded planes `padded` (as laid out by
/// [`pad_images_into`]).
///
/// This is the segmented-K GEMM (see [`gemm_segmented_acc_with`]) with one
/// segment per image, so each image's `dW_i` is summed from zero and added
/// to `dw` in image order. Its long row side, the transposed patch matrix,
/// is packed tile by tile straight from the padded images by
/// [`pack_patch_cols`], with the values [`im2col_into`] would have
/// written: bit-identical to the same GEMM over the unfolded matrix.
///
/// [`im2col_into`]: crate::im2col_into
/// [`pad_images_into`]: crate::pad_images_into
pub fn gemm_patches_segmented_acc_into(
    g: &[f32],
    padded: &[f32],
    geom: &Conv2dGeometry,
    dw: &mut [f32],
) {
    let (plen, osp) = (geom.patch_len(), geom.patch_count());
    let n = padded.len() / geom.padded_len();
    gemm_segmented_acc_with(&pack_patch_cols(padded, geom), g, dw, osp, plen, n * osp);
}

/// `out += Σ_s a_s · b_s` into a caller-owned `m×n` buffer, with the
/// reduction `0..k` cut into segments of `seg` indices: `a` stacks the
/// row-major `m×seg` blocks `a_s` one after another, and `b` is the `k×n`
/// matrix whose rows `s·seg .. (s+1)·seg` are `b_s`. `b` is given only by
/// `pack_b`, the packer of `MR`-row tiles of `bᵀ` (with [`pack_cols`]'s
/// contract over the matrix `b`).
///
/// Each segment's product is accumulated from `0.0` in its own register
/// tile over ascending `p` and only then added to `out`, in segment order.
/// That is exactly the sequence of forming every `a_s · b_s` with a
/// separate GEMM and adding the results into `out` one after another —
/// the convolution's weight gradient summed image by image — without
/// materialising the `S` partial products. With one segment over a zeroed
/// `out` it is plain GEMM, bit for bit.
///
/// The kernel runs the transposed problem `outᵀ += Σ_s b_sᵀ · a_sᵀ` (the
/// products commute, so no bit changes): the long operand `b` becomes the
/// row side, packed tile by tile inside the parallel row chunks, and the
/// short `a` becomes the panels, packed once. Chunks are shape-only, so the
/// result is the same at every thread count.
fn gemm_segmented_acc_with<P>(
    pack_b: &P,
    a: &[f32],
    out: &mut [f32],
    seg: usize,
    n: usize,
    k: usize,
) where
    P: Fn(usize, usize, &mut [f32]) + Sync,
{
    assert!(
        seg > 0 && n > 0,
        "segment length and width must be positive"
    );
    assert_eq!(out.len() % n, 0, "output not a whole number of rows");
    assert!(k.is_multiple_of(seg), "rhs not a whole number of segments");
    let m = out.len() / n;
    assert_eq!(a.len(), m * k, "lhs size mismatch");
    trace_gemm(m, k, n);
    let mut out_t = scratch::take_cleared(m * n);
    for j in 0..n {
        out_t.extend((0..m).map(|i| out[i * n + j]));
    }
    let packed_a = pack_segments(a, seg, k, m);
    let pa = &packed_a[..];
    let chunk = tile_rows_per_chunk(n, k * m);
    par::par_chunks_mut(&mut out_t, chunk * m, |ci, rows| {
        packed_gemm_rows(pack_b, pa, rows, ci * chunk, k, seg, m, true);
    });
    for (j, column) in out_t.chunks_exact(m).enumerate() {
        for (i, &v) in column.iter().enumerate() {
            out[i * n + j] = v;
        }
    }
    scratch::give(packed_a);
    scratch::give(out_t);
}

/// [`pack_b`] for the transposed stack of `m×seg` blocks that
/// [`gemm_segmented_acc_with`] multiplies by: element `(p, i)` is
/// `a[s·m·seg + i·seg + pp]` with `p = s·seg + pp`. Walking the segments
/// and their rows in nested loops fills the same panels in the same order
/// without a division per element.
fn pack_segments(a: &[f32], seg: usize, k: usize, m: usize) -> Vec<f32> {
    let mut packed = scratch::take_zeroed(m.div_ceil(NR) * k * NR);
    for (jp, panel) in packed.chunks_exact_mut(k * NR).enumerate() {
        let w = (m - jp * NR).min(NR);
        for (block, rows) in a
            .chunks_exact(m * seg)
            .zip(panel.chunks_exact_mut(seg * NR))
        {
            for (pp, row) in rows.chunks_exact_mut(NR).enumerate() {
                for (jr, d) in row[..w].iter_mut().enumerate() {
                    *d = block[(jp * NR + jr) * seg + pp];
                }
            }
        }
    }
    packed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dim(0), a.dim(1));
        let n = b.dim(1);
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a.at(&[i, p]) * b.at(&[p, j]);
                }
                out.set(&[i, j], acc);
            }
        }
        out
    }

    fn seq(dims: &[usize]) -> Tensor {
        let n: usize = dims.iter().product();
        Tensor::from_vec((0..n).map(|i| (i as f32 * 0.37).sin()).collect(), dims)
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.dims(), b.dims());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() < tol, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_matches_naive() {
        for (m, k, n) in [(1, 1, 1), (2, 3, 4), (7, 65, 9), (16, 128, 5)] {
            let a = seq(&[m, k]);
            let b = seq(&[k, n]);
            assert_close(&a.matmul(&b), &naive(&a, &b), 1e-4);
        }
    }

    #[test]
    fn matmul_is_bit_identical_to_the_seed_accumulation_order() {
        // The packed kernel must reproduce the ascending-p single
        // accumulator sum exactly, not merely approximately.
        for (m, k, n) in [(1, 1, 1), (3, 7, 5), (7, 65, 9), (17, 33, 12)] {
            let a = seq(&[m, k]);
            let b = seq(&[k, n]);
            let got = a.matmul(&b);
            let want = naive(&a, &b);
            for (x, y) in got.data().iter().zip(want.data()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
            }
        }
    }

    #[test]
    fn matmul_identity() {
        let a = seq(&[4, 4]);
        assert_close(&a.matmul(&Tensor::eye(4)), &a, 1e-6);
        assert_close(&Tensor::eye(4).matmul(&a), &a, 1e-6);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = seq(&[5, 7]);
        let b = seq(&[6, 7]); // b^T is 7x6
        assert_close(&a.matmul_nt(&b), &a.matmul(&b.transpose()), 1e-4);
    }

    #[test]
    fn matmul_nt_blocked_k_matches_transpose() {
        // A long reduction (k = 150).
        let a = seq(&[9, 150]);
        let b = seq(&[11, 150]);
        assert_close(&a.matmul_nt(&b), &a.matmul(&b.transpose()), 1e-3);
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = seq(&[7, 5]); // a^T is 5x7
        let b = seq(&[7, 6]);
        assert_close(&a.matmul_tn(&b), &a.transpose().matmul(&b), 1e-4);
    }

    #[test]
    fn matmul_tn_blocked_reduction_matches_transpose() {
        // A long reduction over the rows: m = 170.
        let a = seq(&[170, 6]);
        let b = seq(&[170, 8]);
        assert_close(&a.matmul_tn(&b), &a.transpose().matmul(&b), 1e-3);
    }

    #[test]
    fn large_matmul_crosses_the_parallel_threshold() {
        // 96·96·96 > PAR_MIN_WORK: exercises the pool dispatch path.
        let a = seq(&[96, 96]);
        let b = seq(&[96, 96]);
        assert_close(&a.matmul(&b), &naive(&a, &b), 1e-3);
    }

    #[test]
    fn into_helpers_match_tensor_entry_points() {
        let a = seq(&[5, 7]);
        let bt = seq(&[6, 7]);
        let mut out = vec![f32::NAN; 5 * 6];
        gemm_nt_into(a.data(), bt.data(), &mut out, 7, 6);
        assert_eq!(out, a.matmul_nt(&bt).data());
        let c = seq(&[5, 4]);
        let mut out_tn = vec![f32::NAN; 7 * 4];
        gemm_tn_into(a.data(), c.data(), &mut out_tn, 5, 7, 4);
        assert_eq!(out_tn, a.matmul_tn(&c).data());
    }

    /// The segmented core over a row-major `(S·seg)×n` matrix `b`.
    fn gemm_segmented_acc_into(a: &[f32], b: &[f32], out: &mut [f32], seg: usize, n: usize) {
        assert_eq!(b.len() % (seg * n), 0, "rhs not a whole number of segments");
        gemm_segmented_acc_with(&pack_cols(b, n), a, out, seg, n, b.len() / n);
    }

    /// `out += Σ_s a_s·b_s` the slow way: every segment product summed
    /// from zero over ascending `p`, then added to `out` in segment order.
    fn segmented_reference(a: &[f32], b: &[f32], out: &mut [f32], seg: usize, n: usize) {
        let m = out.len() / n;
        let segs = b.len() / (seg * n);
        for s in 0..segs {
            let a_s = &a[s * m * seg..(s + 1) * m * seg];
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for p in 0..seg {
                        acc += a_s[i * seg + p] * b[(s * seg + p) * n + j];
                    }
                    out[i * n + j] += acc;
                }
            }
        }
    }

    #[test]
    fn segmented_with_one_segment_is_plain_gemm_bits() {
        // seg == k over a zeroed output must reproduce matmul exactly,
        // across full tiles, ragged m/n edges and the parallel path.
        for (m, k, n) in [(1, 1, 1), (3, 7, 5), (17, 33, 12), (4, 8, 8), (96, 96, 96)] {
            let a = seq(&[m, k]);
            let b = seq(&[k, n]);
            let mut out = vec![0.0f32; m * n];
            gemm_segmented_acc_into(a.data(), b.data(), &mut out, k, n);
            let want = a.matmul(&b);
            for (x, y) in out.iter().zip(want.data()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{m}x{k}x{n}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn segmented_accumulation_matches_per_segment_reference_bits() {
        // Ragged m and n (edge tiles and the masked n-tail), one to many
        // segments, and a nonzero starting output that must be added to.
        for (m, seg, segs, n) in [
            (1, 1, 1, 1),
            (3, 4, 5, 27),
            (8, 64, 32, 27),
            (5, 7, 3, 8),
            (9, 4, 32, 72),
            (32, 4, 32, 288),
        ] {
            let k = seg * segs;
            // `a` stacks the m×seg blocks: its flat data is any m·k values.
            let a: Vec<f32> = (0..m * k).map(|i| (i as f32 * 0.37).sin()).collect();
            let b: Vec<f32> = (0..k * n).map(|i| (i as f32 * 0.29).cos()).collect();
            let start: Vec<f32> = (0..m * n).map(|i| (i as f32 * 0.53).sin()).collect();
            let mut want = start.clone();
            segmented_reference(&a, &b, &mut want, seg, n);
            for force_scalar in [false, true] {
                set_force_scalar_kernel(force_scalar);
                let mut got = start.clone();
                gemm_segmented_acc_into(&a, &b, &mut got, seg, n);
                set_force_scalar_kernel(false);
                for (x, y) in got.iter().zip(&want) {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "m{m} seg{seg}x{segs} n{n} scalar={force_scalar}: {x} vs {y}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_rejects_mismatch() {
        seq(&[2, 3]).matmul(&seq(&[4, 2]));
    }

    #[test]
    fn forced_scalar_kernel_is_bit_identical_to_dispatch() {
        // Shapes chosen to exercise full tiles, edge tiles and the
        // parallel path. A concurrent test racing the global toggle can
        // only swap which (bit-identical) kernel runs, so the assertion
        // stays sound either way.
        for (m, k, n) in [(3, 7, 5), (17, 33, 12), (96, 96, 96)] {
            let a = seq(&[m, k]);
            let b = seq(&[k, n]);
            let auto = a.matmul(&b);
            set_force_scalar_kernel(true);
            let scalar = a.matmul(&b);
            set_force_scalar_kernel(false);
            for (x, y) in auto.data().iter().zip(scalar.data()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
            }
        }
    }
}
