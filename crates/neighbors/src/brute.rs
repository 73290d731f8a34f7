//! Exact brute-force k-NN.

use crate::{Metric, Neighbor, NnIndex};
use eos_tensor::{avx512_kernel_enabled, par, wide_kernel_enabled, Tensor};

/// Queries per block: one lane of the transposed query panel each, and
/// one bit of a row's admission mask.
const LANES: usize = 16;

/// Indexed rows per exact micro-tile: each tile keeps `TILE × lanes`
/// independent accumulators in flight.
const TILE: usize = 4;

/// Indexed rows per filter micro-tile on the AVX-512 tier: eight 512-bit
/// accumulators. A dot product is one operation per coordinate where a
/// distance is three, so the filter runs twice as many rows per tile to
/// keep as many operations in flight.
const DOT_TILE_AVX512: usize = 8;

/// Indexed rows per filter micro-tile on the AVX2 and portable tiers,
/// where a sixteen-lane row takes two or four registers: eight rows would
/// hold every AVX2 register in accumulators and spill, and measured slower.
const DOT_TILE: usize = 4;

/// One query of a block: the point, and the indexed row to leave out of
/// its neighbourhood (the query row itself for [`NnIndex::query_row`]).
type Query<'a> = (&'a [f32], Option<usize>);

/// The tiers of the brute-force distance kernel, widest first. All three
/// compile the same generic scan, so they return the same bits; the tier
/// sets the register width the compiler may use and, for the filter pass
/// alone, whether its dot products fuse and how many rows a tile holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnnKernel {
    /// 512-bit registers: a 16-lane panel row is one register.
    Avx512,
    /// 256-bit registers: a 16-lane panel row is two registers.
    Avx2,
    /// The portable build, without target features.
    Scalar,
}

impl KnnKernel {
    /// The tier the scan runs on: the widest the CPU supports, unless
    /// [`eos_tensor::set_force_scalar_kernel`] forces the portable one.
    pub fn current() -> Self {
        if avx512_kernel_enabled() {
            KnnKernel::Avx512
        } else if wide_kernel_enabled() {
            KnnKernel::Avx2
        } else {
            KnnKernel::Scalar
        }
    }

    /// `"avx512"`, `"avx2"` or `"scalar"`.
    pub fn name(self) -> &'static str {
        match self {
            KnnKernel::Avx512 => "avx512",
            KnnKernel::Avx2 => "avx2",
            KnnKernel::Scalar => "scalar",
        }
    }
}

/// Exact k-NN by a query-blocked linear scan with a bounded sorted list.
///
/// Queries are processed in blocks of up to sixteen, transposed into a
/// `[d][lanes]` panel, and the indexed rows are walked in micro-tiles, so
/// every coordinate load feeds many independent accumulators instead of
/// one dependent add chain per candidate.
///
/// A Euclidean block runs in two passes. The filter computes every row's
/// approximate squared distance `‖q‖² + ‖x‖² − 2·q·x` from dot products
/// and the row norms taken once here, and keeps each query's k-th smallest
/// value. Every row within a proven rounding-error bound of it is then
/// re-scored by the exact kernel, which sums each distance's coordinate
/// terms in order from the first coordinate, with a separate multiply and
/// add, and takes the square root last: every distance is bit-identical to
/// [`Metric::distance`], and the lists are the ones a scan of every row
/// builds. Manhattan, non-finite data and lists shorter than `k` re-score
/// every row (see DESIGN.md, "Brute-force kNN kernel").
///
/// At the embedding sizes the framework works with (≤ a few thousand
/// 64-dimensional points) this scan is consistently faster than tree
/// traversal; the KD-tree exists for the low-dimensional cases (pixel
/// prototypes, t-SNE outputs).
pub struct BruteForceKnn {
    data: Tensor,
    metric: Metric,
    /// The filter's row norms; `None` for Manhattan, and for data whose
    /// norms are not all finite, where every row is re-scored.
    norms: Option<Norms>,
}

/// `‖x‖²` of every indexed row, and the largest of them.
struct Norms {
    rows: Vec<f32>,
    max: f32,
}

/// `Σ v²` in coordinate order.
fn sq_norm(v: &[f32]) -> f32 {
    v.iter().map(|&x| x * x).sum()
}

impl BruteForceKnn {
    /// Indexes the rows of `data`.
    pub fn new(data: &Tensor, metric: Metric) -> Self {
        assert_eq!(data.rank(), 2, "index expects a (n, d) matrix");
        let norms = match metric {
            Metric::Euclidean => {
                let rows: Vec<f32> = (0..data.dim(0))
                    .map(|i| sq_norm(data.row_slice(i)))
                    .collect();
                let finite = rows.iter().all(|v| v.is_finite());
                let max = rows.iter().fold(0.0f32, |m, &v| m.max(v));
                finite.then_some(Norms { rows, max })
            }
            Metric::Manhattan => None,
        };
        BruteForceKnn {
            data: data.clone(),
            metric,
            norms,
        }
    }

    /// The `k` nearest indexed rows of each query, in query order. The
    /// blocks fan out across the worker pool; every query's result depends
    /// only on that query, so the output is the same at any thread count
    /// and for any grouping of queries into blocks. Counts the rows the
    /// exact pass re-scored and the exact distances that took, once per
    /// call.
    fn scan<'q>(
        &self,
        n: usize,
        query: impl Fn(usize) -> Query<'q> + Sync,
        k: usize,
    ) -> Vec<Vec<Neighbor>> {
        let blocks = par::par_map_range(n.div_ceil(LANES), |b| {
            let block: Vec<Query<'q>> = (b * LANES..n.min(b * LANES + LANES)).map(&query).collect();
            self.scan_block(&block, k)
        });
        if eos_trace::enabled() {
            let rescored: usize = blocks.iter().map(|(_, rows)| rows).sum();
            let distances: usize = blocks.iter().map(|(lists, rows)| lists.len() * rows).sum();
            eos_trace::count!("neighbors.filter.candidates", rescored as u64);
            eos_trace::count!("neighbors.distances", distances as u64);
        }
        blocks.into_iter().flat_map(|(lists, _)| lists).collect()
    }

    /// Runs one block of at most [`LANES`] queries; a lone query gets a
    /// one-lane panel rather than fifteen lanes of padding. Returns the
    /// lists and the number of rows the exact pass re-scored.
    fn scan_block(&self, block: &[Query<'_>], k: usize) -> (Vec<Vec<Neighbor>>, usize) {
        let d = self.data.dim(1);
        for (point, _) in block {
            assert_eq!(point.len(), d, "query dimension mismatch");
        }
        if k == 0 {
            return (vec![Vec::new(); block.len()], 0);
        }
        match block.len() {
            1 => self.scan_lanes::<1>(block, k),
            _ => self.scan_lanes::<LANES>(block, k),
        }
    }

    /// Runs [`scan_rows`] over the block's `L`-lane panel on the widest
    /// tier the CPU supports.
    fn scan_lanes<const L: usize>(
        &self,
        block: &[Query<'_>],
        k: usize,
    ) -> (Vec<Vec<Neighbor>>, usize) {
        let panel = transpose::<L>(block, self.data.dim(1));
        match KnnKernel::current() {
            // SAFETY: `KnnKernel::current` just checked for avx512f at
            // runtime, and every AVX-512F CPU has FMA.
            #[cfg(target_arch = "x86_64")]
            KnnKernel::Avx512 => unsafe { scan_rows_avx512::<L>(self, &panel, block, k) },
            // SAFETY: `KnnKernel::current` just checked for avx2 at runtime.
            #[cfg(target_arch = "x86_64")]
            KnnKernel::Avx2 => unsafe { scan_rows_avx2::<L>(self, &panel, block, k) },
            _ => scan_rows::<L, false, DOT_TILE>(self, &panel, block, k),
        }
    }

    /// [`NnIndex::query`] for every row of a `(q, d)` query matrix, with
    /// the query blocks fanned out across the worker pool. The output is
    /// identical to a query-at-a-time loop at any thread count.
    pub fn query_batch(&self, queries: &Tensor, k: usize) -> Vec<Vec<Neighbor>> {
        assert_eq!(queries.rank(), 2, "batch query expects a (q, d) matrix");
        self.scan(queries.dim(0), |i| (queries.row_slice(i), None), k)
    }

    /// [`NnIndex::query_row`] for many indexed rows at once, with the
    /// query blocks fanned out across the worker pool; identical to the
    /// serial loop.
    pub fn query_rows_batch(&self, rows: &[usize], k: usize) -> Vec<Vec<Neighbor>> {
        let n = self.data.dim(0);
        assert!(rows.iter().all(|&r| r < n), "row out of range");
        self.scan(
            rows.len(),
            |i| (self.data.row_slice(rows[i]), Some(rows[i])),
            k,
        )
    }
}

/// The block's points as an `L`-lane `[d][L]` panel; unused lanes stay
/// zero and are never read back.
fn transpose<const L: usize>(block: &[Query<'_>], d: usize) -> Vec<f32> {
    let mut panel = vec![0.0f32; d * L];
    for (lane, (point, _)) in block.iter().enumerate() {
        for (j, &v) in point.iter().enumerate() {
            panel[j * L + lane] = v;
        }
    }
    panel
}

/// [`scan_rows`] compiled with AVX-512F and FMA enabled, so a sixteen-lane
/// panel row is one vector register, a row's admission test is one compare
/// into a mask register, and the filter's dot products run as fused
/// multiply-adds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
fn scan_rows_avx512<const L: usize>(
    index: &BruteForceKnn,
    panel: &[f32],
    block: &[Query<'_>],
    k: usize,
) -> (Vec<Vec<Neighbor>>, usize) {
    scan_rows::<L, true, DOT_TILE_AVX512>(index, panel, block, k)
}

/// [`scan_rows`] compiled with AVX2 enabled, so a sixteen-lane panel row
/// is two vector registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn scan_rows_avx2<const L: usize>(
    index: &BruteForceKnn,
    panel: &[f32],
    block: &[Query<'_>],
    k: usize,
) -> (Vec<Vec<Neighbor>>, usize) {
    scan_rows::<L, false, DOT_TILE>(index, panel, block, k)
}

/// A row to offer, with bit `l` set for the lanes it may enter.
type Candidate = (usize, u32);

/// The blocked kernel. Pass 1, [`filter_rows`], picks the candidate rows
/// and the lanes each may enter (every row and lane when the filter cannot
/// run); pass 2 computes the exact distances from the `L`-lane query
/// `panel` to a [`TILE`] of candidates at a time and offers them to fresh
/// lists in ascending row order. Returns the lists and the number of
/// candidates. `FMA` selects fused multiply-adds for the filter's dot
/// products only, and `R` is the filter's rows per tile.
#[inline(always)]
fn scan_rows<const L: usize, const FMA: bool, const R: usize>(
    index: &BruteForceKnn,
    panel: &[f32],
    block: &[Query<'_>],
    k: usize,
) -> (Vec<Vec<Neighbor>>, usize) {
    let (data, n) = (&index.data, index.data.dim(0));
    let candidates: Vec<Candidate> = match &index.norms {
        // With `k + 1 >= n` some list stays short or takes every row.
        Some(norms) if k + 1 < n => filter_rows::<L, FMA, R>(data, norms, panel, block, k),
        _ => (0..n).map(|row| (row, u32::MAX)).collect(),
    };
    let mut lists = Lists::<L>::new(block, k);
    let mut tiles = candidates.chunks_exact(TILE);
    for tile in &mut tiles {
        let rows: [&[f32]; TILE] = std::array::from_fn(|c| data.row_slice(tile[c].0));
        lists.offer_rows(tile, &distances(index.metric, panel, rows));
    }
    for &row in tiles.remainder() {
        let dist = distances(index.metric, panel, [data.row_slice(row.0)]);
        lists.offer_rows(&[row], &dist);
    }
    (lists.best, candidates.len())
}

/// Pass 1 of a Euclidean block: the rows, in ascending order, whose
/// approximate squared distance `a = (‖q‖² + ‖x‖²) − 2·q·x` lies within
/// some query's [`threshold`], leaving out each query's excluded row for
/// its own lane; every row when some query's [`error_bound`] cannot be
/// formed. Every row's `a` goes into an `[n][L]` buffer, the excluded rows
/// at `+∞`; each lane's k-th smallest value is picked from all of it, and
/// the rows are tested against the final thresholds in one pass. The
/// values are finite (`error_bound` has bounded the scale), so the
/// candidates depend only on them, not on the order the rows arrive in.
#[inline(always)]
fn filter_rows<const L: usize, const FMA: bool, const R: usize>(
    data: &Tensor,
    norms: &Norms,
    panel: &[f32],
    block: &[Query<'_>],
    k: usize,
) -> Vec<Candidate> {
    let (n, d) = (data.dim(0), data.dim(1));
    let qnorm: [f32; L] = std::array::from_fn(|l| block.get(l).map_or(0.0, |q| sq_norm(q.0)));
    let mut slack = [0.0f64; L];
    for (l, e) in slack.iter_mut().enumerate().take(block.len()) {
        match error_bound(d, qnorm[l], norms.max) {
            Some(bound) => *e = bound,
            None => return (0..n).map(|row| (row, u32::MAX)).collect(),
        }
    }
    let mut buffer = vec![0.0f32; n * L];
    let (a, _) = buffer.as_chunks_mut::<L>();
    let (tiles, tail) = a.as_chunks_mut::<R>();
    for (first, tile) in (0..).step_by(R).zip(tiles) {
        let rows: [&[f32]; R] = std::array::from_fn(|c| data.row_slice(first + c));
        approximate::<L, R, FMA>(panel, rows, &qnorm, &norms.rows[first..], tile);
    }
    for (row, one) in (n - tail.len()..).zip(tail.as_chunks_mut::<1>().0) {
        let xnorm = &norms.rows[row..];
        approximate::<L, 1, FMA>(panel, [data.row_slice(row)], &qnorm, xnorm, one);
    }
    for (l, &(_, own)) in block.iter().enumerate() {
        if let Some(row) = own {
            a[row][l] = f32::INFINITY;
        }
    }
    let a_k = match k {
        1..=NETWORK_MAX_K if L > 1 => kth_network(a, k),
        _ => kth_select(a, block.len(), k),
    };
    // Unused lanes admit nothing.
    let tau: [f32; L] = std::array::from_fn(|l| {
        if l < block.len() {
            threshold(a_k[l], slack[l])
        } else {
            f32::NEG_INFINITY
        }
    });
    a.iter()
        .enumerate()
        .map(|(row, a)| (row, lane_mask(a, &tau, |a, t| a <= t)))
        .filter(|&(_, lanes)| lanes != 0)
        .collect()
}

/// The largest `k` whose k-th values the filter picks with
/// [`kth_network`]. Above it, and for a lone query's single lane, where
/// the network's `k` steps per row serve one value, [`kth_select`] does.
const NETWORK_MAX_K: usize = 16;

/// The k-th smallest value of every lane of `a`, for
/// `1 ≤ k ≤ NETWORK_MAX_K`, by an insertion network over `k` lane vectors
/// `t₁ ≤ … ≤ t_k`, all `+∞` at first: each row's vector `v` passes every
/// slot as `t_i, v = min(t_i, v), max(t_i, v)`, so the slots hold the `k`
/// smallest values so far in order, with no branch and no per-lane work.
#[inline(always)]
fn kth_network<const L: usize>(a: &[[f32; L]], k: usize) -> [f32; L] {
    let mut slots = [[f32::INFINITY; L]; NETWORK_MAX_K];
    for row in a {
        let mut v = *row;
        for t in &mut slots[..k] {
            for l in 0..L {
                let lo = if t[l] < v[l] { t[l] } else { v[l] };
                v[l] = if t[l] < v[l] { v[l] } else { t[l] };
                t[l] = lo;
            }
        }
    }
    slots[k - 1]
}

/// The k-th smallest value of each of the first `lanes` lanes of `a` (NaN
/// in the rest), for `1 ≤ k ≤ a.len()`: each lane's column is copied out
/// and `select_nth_unstable_by` picks it. It is the order statistic
/// [`kth_network`] gives; which of two equal values it is cannot change a
/// threshold.
fn kth_select<const L: usize>(a: &[[f32; L]], lanes: usize, k: usize) -> [f32; L] {
    let mut column = vec![0.0f32; a.len()];
    std::array::from_fn(|l| {
        if l >= lanes {
            return f32::NAN;
        }
        for (c, row) in column.iter_mut().zip(a) {
            *c = row[l];
        }
        *column.select_nth_unstable_by(k - 1, f32::total_cmp).1
    })
}

/// Writes the approximate squared distances `(‖q‖² + ‖x‖²) − 2·q·x` from
/// each of the `L` panel lanes, with norms `qnorm`, to each of the `C`
/// rows, with norms `xnorm`, into `out[row][lane]`. The dot products `q·x`
/// run as fused multiply-adds when `FMA` is set; the rest is a separate
/// multiply and add on every tier. The filter's error bound holds for
/// either rounding. (Writing into `out` rather than returning the
/// accumulators keeps them in registers through the coordinate loop.)
#[inline(always)]
fn approximate<const L: usize, const C: usize, const FMA: bool>(
    panel: &[f32],
    rows: [&[f32]; C],
    qnorm: &[f32; L],
    xnorm: &[f32],
    out: &mut [[f32; L]; C],
) {
    let acc: [[f32; L]; C] = accumulate(panel, rows, 0.0, |s, q, x| {
        if FMA {
            q.mul_add(x, s)
        } else {
            s + q * x
        }
    });
    for ((out, dot), &x) in out.iter_mut().zip(&acc).zip(xnorm) {
        for l in 0..L {
            out[l] = (qnorm[l] + x) - 2.0 * dot[l];
        }
    }
}

/// The unit roundoff of `f32`, `2⁻²⁴`.
const U: f64 = f32::EPSILON as f64 / 2.0;

/// `γ_m = m·u / (1 − m·u)`, the standard bound on the relative error of
/// `m` successive `f32` roundings.
fn gamma(m: usize) -> f64 {
    let mu = m as f64 * U;
    mu / (1.0 - mu)
}

/// `E`, a bound on `|a − s|` for one query over every row, where `a` is
/// the filter's approximate squared distance and `s` the exact kernel's
/// sum before its square root: `2·γ_{d+3}·(‖q‖ + max‖x‖)²` plus a term
/// for products that underflow (DESIGN.md, "Brute-force kNN kernel",
/// derives it). `qnorm` is the query's `‖q‖²` and `max_norm` the largest
/// row `‖x‖²`, both as summed in `f32`. `None` when `qnorm` is not finite
/// or the scale leaves room for the filter's arithmetic to overflow.
fn error_bound(d: usize, qnorm: f32, max_norm: f32) -> Option<f64> {
    let scale = (f64::from(qnorm).sqrt() + f64::from(max_norm).sqrt()).powi(2) / (1.0 - gamma(d));
    (scale <= f64::from(f32::MAX) / 4.0)
        .then(|| 2.0 * gamma(d + 3) * scale + d as f64 * 2f64.powi(-145))
}

/// A lane's filter threshold `τ = (A_k + E)(1 + 4u) + E`, rounded up to
/// `f32`, where `A_k` is the k-th smallest approximate value of the lane
/// and `E` its [`error_bound`]: every row whose exact distance is at most
/// the lane's k-th has `a ≤ τ`. The `4u` covers a row whose rounded square
/// root ties the k-th distance.
fn threshold(a_k: f32, e: f64) -> f32 {
    let tau = (f64::from(a_k) + e) * (1.0 + 4.0 * U) + e;
    let rounded = tau as f32;
    if f64::from(rounded) < tau {
        rounded.next_up()
    } else {
        rounded
    }
}

/// The bounded lists of one block's queries, behind a per-lane admission
/// cut.
///
/// `cut[l]` is the worst distance in lane `l`'s list once the list holds
/// `k` entries, and NaN before. A row skips lane `l` when
/// `distance >= cut[l]`, which is the test [`offer`] returns early on;
/// while the list is short the test is false for every distance (no
/// comparison with NaN holds), just as `offer` then takes every candidate.
/// So the cut skips exactly the calls that would have returned without
/// touching the list, and the lists come out the same. (A +∞ cut would
/// drop an overflowed, infinite distance from a short list.) Unused lanes
/// are masked out of the lanes a row is offered to.
struct Lists<'a, const L: usize> {
    block: &'a [Query<'a>],
    k: usize,
    /// Bit `l` set for the lanes that hold a query.
    live: u32,
    cut: [f32; L],
    best: Vec<Vec<Neighbor>>,
}

impl<'a, const L: usize> Lists<'a, L> {
    fn new(block: &'a [Query<'a>], k: usize) -> Self {
        const { assert!(L <= u32::BITS as usize, "one mask bit per lane") };
        Lists {
            block,
            k,
            live: u32::MAX >> (u32::BITS as usize - block.len()),
            cut: [f32::NAN; L],
            best: block.iter().map(|_| Vec::with_capacity(k + 1)).collect(),
        }
    }

    /// Offers each of `rows`, ascending, at distances `dist[i]` to the
    /// lanes it may enter whose cut admits it, leaving out each query's
    /// excluded row.
    #[inline(always)]
    fn offer_rows(&mut self, rows: &[Candidate], dist: &[[f32; L]]) {
        for (&(row, lanes), d) in rows.iter().zip(dist) {
            // The lanes whose `offer` would return without touching the list.
            let rejected = lane_mask(d, &self.cut, |d, c| d >= c);
            let mut admit = !rejected & lanes & self.live;
            while admit != 0 {
                let l = admit.trailing_zeros() as usize;
                admit &= admit - 1;
                if self.block[l].1 != Some(row) {
                    let list = &mut self.best[l];
                    offer(list, self.k, row, d[l]);
                    if list.len() == self.k {
                        self.cut[l] = list[self.k - 1].distance;
                    }
                }
            }
        }
    }
}

/// Bit `l` set where `test(x[l], y[l])` holds; the wide tiers run it as
/// one vector compare.
#[inline(always)]
fn lane_mask<const L: usize>(x: &[f32; L], y: &[f32; L], test: impl Fn(f32, f32) -> bool) -> u32 {
    (0..L).fold(0, |mask, l| mask | u32::from(test(x[l], y[l])) << l)
}

/// Offers candidate `index` at `distance` to a bounded list sorted by
/// `(distance, index)`, with NaN after every number. Candidates must
/// arrive in ascending `index` order: a candidate tying an entry is then
/// always the later row, so it goes after the entry, and a candidate
/// tying the current worst of a full list is rejected at once.
#[inline]
fn offer(best: &mut Vec<Neighbor>, k: usize, index: usize, distance: f32) {
    let before = |d: f32, e: f32| d < e || (e.is_nan() && !d.is_nan());
    if best.len() == k {
        if !before(distance, best[k - 1].distance) {
            return;
        }
        best.pop();
    }
    let mut pos = best.len();
    best.push(Neighbor { index, distance });
    while pos > 0 && before(distance, best[pos - 1].distance) {
        best[pos] = best[pos - 1];
        pos -= 1;
    }
    best[pos] = Neighbor { index, distance };
}

/// Distances from each of the `L` panel lanes to each of the `C` rows,
/// `[row][lane]`, each bit-identical to [`Metric::distance`].
#[inline(always)]
fn distances<const L: usize, const C: usize>(
    metric: Metric,
    panel: &[f32],
    rows: [&[f32]; C],
) -> [[f32; L]; C] {
    match metric {
        Metric::Euclidean => {
            let mut acc = accumulate(panel, rows, -0.0, |s, q, x| {
                let t = q - x;
                s + t * t
            });
            for v in acc.iter_mut().flatten() {
                *v = v.sqrt();
            }
            acc
        }
        Metric::Manhattan => accumulate(panel, rows, -0.0, |s, q, x| s + (q - x).abs()),
    }
}

/// Folds `step(acc, q, x)` over the coordinates, one accumulator per
/// `(row, lane)`, each in coordinate order from `init`. The distances
/// start from `-0.0` — the start value and order of `Iterator::sum` — with
/// a separate multiply and add: Rust never contracts the two into an FMA,
/// even where the enabled target features include it.
#[inline(always)]
fn accumulate<const L: usize, const C: usize>(
    panel: &[f32],
    rows: [&[f32]; C],
    init: f32,
    step: impl Fn(f32, f32, f32) -> f32,
) -> [[f32; L]; C] {
    let mut acc = [[init; L]; C];
    let d = panel.len() / L;
    let panel = &panel[..d * L];
    let rows: [&[f32]; C] = std::array::from_fn(|c| &rows[c][..d]);
    for j in 0..d {
        let q = &panel[j * L..][..L];
        for c in 0..C {
            let x = rows[c][j];
            for l in 0..L {
                acc[c][l] = step(acc[c][l], q[l], x);
            }
        }
    }
    acc
}

impl NnIndex for BruteForceKnn {
    fn query(&self, point: &[f32], k: usize) -> Vec<Neighbor> {
        self.scan(1, |_| (point, None), k).swap_remove(0)
    }

    fn query_row(&self, row: usize, k: usize) -> Vec<Neighbor> {
        assert!(row < self.data.dim(0), "row out of range");
        self.scan(1, |_| (self.data.row_slice(row), Some(row)), k)
            .swap_remove(0)
    }

    fn len(&self) -> usize {
        self.data.dim(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eos_tensor::Rng64;

    #[test]
    fn threshold_reaches_every_square_whose_root_ties_the_kth() {
        // With exact approximate values (`E = 0`) the threshold of the
        // smallest square whose rounded root is `r` must still reach the
        // largest such square: that is the `4u` slack's job.
        let mut rng = Rng64::new(3);
        for _ in 0..20_000 {
            let bits = 0x3000_0000 + (rng.next_u64() % 0x1F00_0000) as u32;
            let r = f32::from_bits(bits);
            let (mut lo, mut hi) = (r * r, r * r);
            while lo.next_down().sqrt() == r {
                lo = lo.next_down();
            }
            while hi.next_up().sqrt() == r {
                hi = hi.next_up();
            }
            assert_eq!((lo.sqrt(), hi.sqrt()), (r, r));
            assert!(threshold(lo, 0.0) >= hi, "root {r}: {lo} .. {hi}");
        }
    }

    #[test]
    fn error_bound_covers_the_derived_bound() {
        // DESIGN.md derives |a − s| ≤ 2·γ_{d+2}·(‖q‖ + ‖x‖)²; the bound
        // the filter uses must be at least that for the norms it sees.
        for d in [1usize, 2, 17, 192, 4096] {
            for (qnorm, max_norm) in [(0.0f32, 1.0f32), (1.0, 1.0), (3.5e4, 2.0), (1e-30, 7e12)] {
                let scale = (f64::from(qnorm).sqrt() + f64::from(max_norm).sqrt()).powi(2);
                let derived = 2.0 * gamma(d + 2) * scale;
                let e = error_bound(d, qnorm, max_norm).expect("finite scale");
                assert!(e >= derived, "d = {d}: {e} < {derived}");
            }
        }
        assert_eq!(error_bound(8, f32::NAN, 1.0), None);
        assert_eq!(error_bound(8, 1.0, f32::MAX), None);
    }

    #[test]
    fn error_bound_covers_the_filter_error_on_cancelling_inputs() {
        // `a` in both roundings the tiers use, against the exact kernel's
        // sum, on rows close to the query under a large common offset,
        // where `‖q‖² + ‖x‖² − 2·q·x` cancels the most.
        let mut rng = Rng64::new(11);
        for d in [1usize, 3, 17, 192] {
            for offset in [0.0f32, 1.0, 1e3, 1e5] {
                for _ in 0..200 {
                    let q: Vec<f32> = (0..d).map(|_| offset + rng.normal_f32(0.0, 1.0)).collect();
                    let x: Vec<f32> = q.iter().map(|&v| v + rng.normal_f32(0.0, 1e-3)).collect();
                    let (qn, xn) = (sq_norm(&q), sq_norm(&x));
                    let exact = q
                        .iter()
                        .zip(&x)
                        .fold(-0.0f32, |s, (&a, &b)| s + (a - b) * (a - b));
                    let fused = q.iter().zip(&x).fold(0.0f32, |s, (&a, &b)| a.mul_add(b, s));
                    let split = q.iter().zip(&x).fold(0.0f32, |s, (&a, &b)| s + a * b);
                    let e = error_bound(d, qn, xn).expect("finite scale");
                    for dot in [fused, split] {
                        let a = (qn + xn) - 2.0 * dot;
                        let err = (f64::from(a) - f64::from(exact)).abs();
                        assert!(err <= e, "d = {d}, offset = {offset}: {err} > {e}");
                    }
                }
            }
        }
    }

    #[test]
    fn network_select_and_sort_agree_on_the_kth_value() {
        // Multisets drawn from a few values, so ties sit at every k, with
        // one lane's excluded row at +∞ as the filter leaves it.
        let mut rng = Rng64::new(5);
        for n in [2usize, 3, 17, 40, 301] {
            let mut a = vec![[0.0f32; 4]; n];
            for row in a.iter_mut() {
                *row = std::array::from_fn(|_| (rng.below(7) as f32 - 2.0) * 0.5);
            }
            a[rng.below(n)][1] = f32::INFINITY;
            for k in (1..n).filter(|&k| k <= NETWORK_MAX_K || k % 7 == 0) {
                let select = kth_select(&a, 4, k);
                for l in 0..4 {
                    let mut col: Vec<f32> = a.iter().map(|row| row[l]).collect();
                    col.sort_by(f32::total_cmp);
                    assert_eq!(select[l], col[k - 1], "n = {n}, k = {k}");
                }
                if k <= NETWORK_MAX_K {
                    assert_eq!(kth_network(&a, k), select, "n = {n}, k = {k}");
                }
            }
        }
    }

    #[test]
    fn every_tier_returns_the_same_lists() {
        // Every tier the host has, where the integration tests reach two,
        // on class-ordered clusters whose queries' neighbours come last.
        let mut rng = Rng64::new(9);
        let (n, d) = (203, 24);
        let v = (0..n * d).map(|i| (i / d / 40) as f32 + rng.normal_f32(0.0, 0.3));
        let data = Tensor::from_vec(v.collect(), &[n, d]);
        let index = BruteForceKnn::new(&data, Metric::Euclidean);
        let block: Vec<Query<'_>> = (n - 16..n).map(|r| (data.row_slice(r), Some(r))).collect();
        let panel = transpose::<LANES>(&block, d);
        let bits = |(lists, _): (Vec<Vec<Neighbor>>, usize)| -> Vec<Vec<(usize, u32)>> {
            let hit = |h: &Neighbor| (h.index, h.distance.to_bits());
            lists.iter().map(|l| l.iter().map(hit).collect()).collect()
        };
        for k in [1, 10, NETWORK_MAX_K, NETWORK_MAX_K + 1, 40] {
            let want = bits(scan_rows::<LANES, false, DOT_TILE>(
                &index, &panel, &block, k,
            ));
            #[cfg(target_arch = "x86_64")]
            {
                if std::arch::is_x86_feature_detected!("avx2") {
                    // SAFETY: avx2 was just detected.
                    let wide = unsafe { scan_rows_avx2::<LANES>(&index, &panel, &block, k) };
                    assert_eq!(bits(wide), want, "avx2, k = {k}");
                }
                if std::arch::is_x86_feature_detected!("avx512f") {
                    // SAFETY: avx512f was just detected; every AVX-512F CPU has FMA.
                    let wide = unsafe { scan_rows_avx512::<LANES>(&index, &panel, &block, k) };
                    assert_eq!(bits(wide), want, "avx512, k = {k}");
                }
            }
        }
    }
}
