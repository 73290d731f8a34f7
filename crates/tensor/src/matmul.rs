//! Packed, register-blocked, row-parallel matrix multiplication kernels.
//!
//! The training stack spends almost all of its time here (convolutions are
//! lowered to GEMM via `im2col`), so the inner loop is a register-blocked
//! micro-kernel: an `MR`×`NR` tile of the output is held in one local
//! accumulator per element while the reduction dimension is streamed from
//! **packed panels**. The right-hand side is packed once per call into
//! `NR`-wide column panels (contiguous in the reduction index, shared
//! read-only across all row chunks and parallel workers); the left-hand
//! side is packed per `MR`-row tile into per-thread scratch. Edge tiles
//! (m or n not multiples of `MR`/`NR`) fall back to masked scalar tails.
//!
//! Every output element is still accumulated over the reduction index in
//! ascending order with a single carried accumulator — the same sequence
//! of multiplies and adds as the seed scalar kernels — so results are
//! bit-for-bit identical to both the seed implementation and PR 1's
//! serial/parallel determinism guarantee. See DESIGN.md for the layout
//! and the determinism argument.

use crate::par;
use crate::scratch;
use crate::tensor::Tensor;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};

const BLOCK_K: usize = 64;

/// Rows of the output tile held in registers by the micro-kernel.
const MR: usize = 4;
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
    let mut packed = scratch::take_cleared(np * k * NR);
    for jp in 0..np {
        for p in 0..k {
            for jr in 0..NR {
                let j = jp * NR + jr;
                packed.push(if j < n { get(p, j) } else { 0.0 });
            }
        }
    }
    packed
}

/// Computes a chunk of output rows of `C = Â (m̂×k̂) · B̂ (k̂×n̂)` from packed
/// panels. `rows` is the chunk `C[row0 .. row0 + rows.len()/n, :]`;
/// `a_at(i, p)` supplies element `(i, p)` of the logical left-hand side.
///
/// For every output element the accumulator starts from the value already
/// in `rows` and the reduction runs over `p = 0..k` in ascending order —
/// full tiles in the register kernel and edge tiles in the masked scalar
/// tails follow the exact same sequence, which is what makes the packed
/// path bit-identical to the seed scalar kernels.
fn packed_gemm_rows<F: Fn(usize, usize) -> f32>(
    a_at: &F,
    packed_b: &[f32],
    rows: &mut [f32],
    row0: usize,
    k: usize,
    n: usize,
) {
    if n == 0 {
        return;
    }
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
            for p in 0..k {
                for ir in 0..MR {
                    tp[p * MR + ir] = if ir < h { a_at(row0 + it + ir, p) } else { 0.0 };
                }
            }
        }
        // Sweep the B̂ panels in cache-sized blocks with every row tile
        // visiting a block before the sweep moves on, so each panel is
        // pulled from memory once (not once per row tile) and reused
        // while hot. Iteration order only: every output element is still
        // produced by exactly one kernel call that carries its
        // accumulator over the full `p = 0..k` ascending reduction, so
        // the result is bit-identical to the unblocked sweep.
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
                    k,
                    n,
                    jp0,
                    jp1,
                );
            }
            jp0 = jp1;
        }
        // Masked scalar n-tail: same carried accumulator, same
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
                        let mut acc = rows[(it + ir) * n + j];
                        for p in 0..k {
                            acc += tp[p * MR + ir] * bpanel[p * NR + jr];
                        }
                        rows[(it + ir) * n + j] = acc;
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
/// each element keeps its own accumulator over `p = 0..k` ascending, so no
/// reassociation is needed (or performed), with any instruction width.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tile_kernel(
    apack: &[f32],
    packed_b: &[f32],
    rows: &mut [f32],
    it: usize,
    h: usize,
    k: usize,
    n: usize,
    jp0: usize,
    jp1: usize,
) {
    let panel_len = k * NR;
    for jp in jp0..jp1 {
        let bpanel = &packed_b[jp * panel_len..(jp + 1) * panel_len];
        let mut acc = [[0.0f32; NR]; MR];
        for (ir, row) in acc.iter_mut().enumerate().take(h) {
            let o = (it + ir) * n + jp * NR;
            row.copy_from_slice(&rows[o..o + NR]);
        }
        for (ap, bp) in apack.chunks_exact(MR).zip(bpanel.chunks_exact(NR)) {
            let ap: &[f32; MR] = ap.try_into().unwrap();
            let bp: &[f32; NR] = bp.try_into().unwrap();
            for (ir, row) in acc.iter_mut().enumerate() {
                let av = ap[ir];
                for (r, &bv) in row.iter_mut().zip(bp) {
                    *r += av * bv;
                }
            }
        }
        for (ir, row) in acc.iter().enumerate().take(h) {
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
    k: usize,
    n: usize,
    jp0: usize,
    jp1: usize,
) {
    tile_kernel(apack, packed_b, rows, it, h, k, n, jp0, jp1);
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
    k: usize,
    n: usize,
    jp0: usize,
    jp1: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if wide_kernel_enabled() {
        // SAFETY: the avx2 requirement was just checked at runtime.
        unsafe {
            return tile_kernel_avx2(apack, packed_b, rows, it, h, k, n, jp0, jp1);
        }
    }
    tile_kernel(apack, packed_b, rows, it, h, k, n, jp0, jp1);
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
            par::par_chunks_mut(&mut out, chunk * n, |ci, rows| {
                packed_gemm_rows(&|i, p| a[i * k + p], pb, rows, ci * chunk, k, n);
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
        trace_gemm(m, k, n);
        let mut out = scratch::take_zeroed(m * n);
        if m > 0 && n > 0 {
            let (a, b) = (self.data(), other.data());
            let packed_b = pack_b(|p, j| b[j * k + p], k, n);
            let pb = &packed_b[..];
            let chunk = tile_rows_per_chunk(m, k * n);
            par::par_chunks_mut(&mut out, chunk * n, |ci, rows| {
                packed_gemm_rows(&|i, p| a[i * k + p], pb, rows, ci * chunk, k, n);
            });
            scratch::give(packed_b);
        }
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
        trace_gemm(k, m, n);
        let mut out = scratch::take_zeroed(k * n);
        if k > 0 && n > 0 {
            let (a, b) = (self.data(), other.data());
            let packed_b = pack_b(|i, j| b[i * n + j], m, n);
            let pb = &packed_b[..];
            let chunk = tile_rows_per_chunk(k, m * n);
            par::par_chunks_mut(&mut out, chunk * n, |ci, rows| {
                packed_gemm_rows(&|r, i| a[i * k + r], pb, rows, ci * chunk, m, n);
            });
            scratch::give(packed_b);
        }
        Tensor::from_vec(out, &[k, n])
    }

    /// Matrix–vector product `self (m×k) · v (k) -> (m)`.
    pub fn matvec(&self, v: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2);
        let (m, k) = (self.dim(0), self.dim(1));
        assert_eq!(v.len(), k, "matvec length mismatch");
        let mut out = scratch::take_zeroed(m);
        let (a, vv) = (self.data(), v.data());
        let chunk = tile_rows_per_chunk(m, k);
        par::par_chunks_mut(&mut out, chunk, |ci, rows| {
            matvec_rows(a, vv, rows, ci * chunk, k);
        });
        Tensor::from_vec(out, &[m])
    }
}

/// `out = a (m×k) · b (k×n)`, serial, into a caller-owned `m×n` buffer.
///
/// Bit-identical to [`Tensor::matmul`]; exists so batch-parallel layers
/// (one worker per image) can run their per-image GEMMs into reusable
/// scratch without allocating a `Tensor` per call.
pub fn gemm_into(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
    assert_eq!(out.len() % n.max(1), 0, "output not a whole number of rows");
    assert_eq!(a.len(), (out.len() / n.max(1)) * k, "lhs size mismatch");
    assert_eq!(b.len(), k * n, "rhs size mismatch");
    trace_gemm(out.len() / n.max(1), k, n);
    out.fill(0.0);
    let packed_b = pack_b(|p, j| b[p * n + j], k, n);
    packed_gemm_rows(&|i, p| a[i * k + p], &packed_b, out, 0, k, n);
    scratch::give(packed_b);
}

/// `out = a (m×k) · bᵀ (n×k)`, serial, into a caller-owned `m×n` buffer.
///
/// Bit-identical to [`Tensor::matmul_nt`]; see [`gemm_into`].
pub fn gemm_nt_into(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
    assert_eq!(out.len() % n.max(1), 0, "output not a whole number of rows");
    assert_eq!(a.len(), (out.len() / n.max(1)) * k, "lhs size mismatch");
    assert_eq!(b.len(), n * k, "rhs size mismatch");
    trace_gemm(out.len() / n.max(1), k, n);
    out.fill(0.0);
    let packed_b = pack_b(|p, j| b[j * k + p], k, n);
    packed_gemm_rows(&|i, p| a[i * k + p], &packed_b, out, 0, k, n);
    scratch::give(packed_b);
}

/// Column width of the packed right-hand-side panels every GEMM in this
/// module streams from. Callers that pre-pack their own `B̂` (the batched
/// convolution lowering writes `im2col` output straight into panels)
/// must use this width and feed the result to [`gemm_prepacked_into`].
pub const PANEL_WIDTH: usize = NR;

/// `out = a (m×k) · B̂ (k×n)` where `packed_b` already holds `B̂` in
/// [`PANEL_WIDTH`]-wide column panels (element `(p, j)` at
/// `(j / NR)·k·NR + p·NR + (j % NR)`, exactly the layout the module's own
/// packer produces). `n` must be a whole number of panels — the caller
/// owns the padding decision.
///
/// Every output column is accumulated over `p = 0..k` ascending in its
/// own register lane, so a column's bits depend only on its own panel
/// lane and the left-hand side — **not** on its position in `B̂` or on
/// which other columns exist. That position independence is what lets
/// the convolution layers concatenate many images' patch matrices into
/// one wide GEMM and still return per-image results bit-identical to
/// per-image calls. Row-parallel with shape-only chunk boundaries, like
/// every other entry point here, so results are also thread-count
/// invariant.
pub fn gemm_prepacked_into(a: &[f32], packed_b: &[f32], out: &mut [f32], k: usize, n: usize) {
    assert!(
        n > 0 && n.is_multiple_of(NR),
        "n must be whole panels of {NR}"
    );
    assert_eq!(out.len() % n, 0, "output not a whole number of rows");
    let m = out.len() / n;
    assert_eq!(a.len(), m * k, "lhs size mismatch");
    assert_eq!(packed_b.len(), k * n, "packed rhs size mismatch");
    trace_gemm(m, k, n);
    out.fill(0.0);
    let chunk = tile_rows_per_chunk(m, k * n);
    par::par_chunks_mut(out, chunk * n, |ci, rows| {
        packed_gemm_rows(&|i, p| a[i * k + p], packed_b, rows, ci * chunk, k, n);
    });
}

/// `out = aᵀ (k×m stored m-major) · b (m×n)`, serial, into a caller-owned
/// `k×n` buffer. `a` is stored row-major as `m×k`.
///
/// Bit-identical to [`Tensor::matmul_tn`]; see [`gemm_into`].
pub fn gemm_tn_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(out.len(), k * n, "output size mismatch");
    assert_eq!(a.len(), m * k, "lhs size mismatch");
    assert_eq!(b.len(), m * n, "rhs size mismatch");
    trace_gemm(k, m, n);
    out.fill(0.0);
    let packed_b = pack_b(|i, j| b[i * n + j], m, n);
    packed_gemm_rows(&|r, i| a[i * k + r], &packed_b, out, 0, m, n);
    scratch::give(packed_b);
}

/// `rows = a[row0.., :] · v` for a chunk of output rows, `MR` rows register
/// blocked and the reduction `BLOCK_K`-blocked so the vector block stays
/// cache-hot across the chunk. Accumulators are carried through `rows`
/// across blocks, so each element sums over `p = 0..k` ascending with a
/// single accumulator — bit-identical to an unblocked dot product.
fn matvec_rows(a: &[f32], v: &[f32], rows: &mut [f32], row0: usize, k: usize) {
    let nrows = rows.len();
    for kb in (0..k).step_by(BLOCK_K) {
        let kend = (kb + BLOCK_K).min(k);
        let vb = &v[kb..kend];
        let mut it = 0;
        while it + MR <= nrows {
            let tile: [&[f32]; MR] = std::array::from_fn(|ir| {
                &a[(row0 + it + ir) * k + kb..(row0 + it + ir) * k + kend]
            });
            let mut acc: [f32; MR] = std::array::from_fn(|ir| rows[it + ir]);
            for (p, &vp) in vb.iter().enumerate() {
                for ir in 0..MR {
                    acc[ir] += tile[ir][p] * vp;
                }
            }
            rows[it..it + MR].copy_from_slice(&acc);
            it += MR;
        }
        for i in it..nrows {
            let arow = &a[(row0 + i) * k + kb..(row0 + i) * k + kend];
            let mut acc = rows[i];
            for (&x, &y) in arow.iter().zip(vb) {
                acc += x * y;
            }
            rows[i] = acc;
        }
    }
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
    fn prepacked_gemm_matches_matmul_bitwise() {
        let (m, k, n) = (5usize, 19usize, 4 * PANEL_WIDTH);
        let a = seq(&[m, k]);
        let b = seq(&[k, n]);
        let expected = a.matmul(&b);
        let packed = pack_b(|p, j| b.at(&[p, j]), k, n);
        let mut out = vec![0.0f32; m * n];
        gemm_prepacked_into(a.data(), &packed, &mut out, k, n);
        assert_eq!(out.as_slice(), expected.data());
        scratch::give(packed);
    }

    #[test]
    fn prepacked_gemm_columns_are_position_independent() {
        // The same logical B column must produce the same output bits no
        // matter where it sits in the panel sequence — the property the
        // batched convolution lowering rests on.
        let (m, k) = (7usize, 23usize);
        let a = seq(&[m, k]);
        let col: Vec<f32> = (0..k).map(|p| ((p * 3 + 1) as f32 * 0.21).cos()).collect();
        let narrow = PANEL_WIDTH;
        let wide = 6 * PANEL_WIDTH;
        // Narrow GEMM: the probe column alone (panel zero-padded by us).
        let packed_narrow = pack_b(|p, j| if j == 0 { col[p] } else { 0.0 }, k, narrow);
        let mut out_narrow = vec![0.0f32; m * narrow];
        gemm_prepacked_into(a.data(), &packed_narrow, &mut out_narrow, k, narrow);
        scratch::give(packed_narrow);
        // Wide GEMM: the probe column buried at an arbitrary offset among
        // noise columns.
        let at = 3 * PANEL_WIDTH + 5;
        let packed_wide = pack_b(
            |p, j| {
                if j == at {
                    col[p]
                } else {
                    ((p * 7 + j) as f32 * 0.11).sin()
                }
            },
            k,
            wide,
        );
        let mut out_wide = vec![0.0f32; m * wide];
        gemm_prepacked_into(a.data(), &packed_wide, &mut out_wide, k, wide);
        scratch::give(packed_wide);
        for i in 0..m {
            assert_eq!(
                out_narrow[i * narrow],
                out_wide[i * wide + at],
                "row {i}: column result depends on its position"
            );
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
        // k > BLOCK_K so the blocked path actually splits the reduction.
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
        // m > BLOCK_K so the blocked path splits the i reduction.
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
    fn matvec_matches_matmul() {
        let a = seq(&[4, 6]);
        let v = seq(&[6]);
        let mv = a.matvec(&v);
        let mm = a.matmul(&v.reshape(&[6, 1]));
        assert_close(&mv, &mm.reshape(&[4]), 1e-5);
    }

    #[test]
    fn matvec_blocked_k_is_bit_identical_to_plain_dots() {
        // k > BLOCK_K and m not a multiple of MR: exercises both the block
        // carry and the scalar row tail.
        let a = seq(&[7, 150]);
        let v = seq(&[150]);
        let got = a.matvec(&v);
        for i in 0..7 {
            let want: f32 = a
                .row_slice(i)
                .iter()
                .zip(v.data())
                .map(|(&x, &y)| x * y)
                .sum();
            assert_eq!(got.data()[i].to_bits(), want.to_bits());
        }
    }

    #[test]
    fn into_helpers_match_tensor_entry_points() {
        let a = seq(&[5, 7]);
        let b = seq(&[7, 6]);
        let bt = seq(&[6, 7]);
        let mut out = vec![f32::NAN; 5 * 6];
        gemm_into(a.data(), b.data(), &mut out, 7, 6);
        assert_eq!(out, a.matmul(&b).data());
        gemm_nt_into(a.data(), bt.data(), &mut out, 7, 6);
        assert_eq!(out, a.matmul_nt(&bt).data());
        let c = seq(&[5, 4]);
        let mut out_tn = vec![f32::NAN; 7 * 4];
        gemm_tn_into(a.data(), c.data(), &mut out_tn, 5, 7, 4);
        assert_eq!(out_tn, a.matmul_tn(&c).data());
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
