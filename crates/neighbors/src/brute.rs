//! Exact brute-force k-NN.

use crate::{Metric, Neighbor};
use eos_tensor::{avx512_kernel_enabled, par, wide_kernel_enabled, Tensor};

/// Queries per block: one lane of the transposed query panel each, and
/// one bit of a row's admission mask.
const LANES: usize = 16;

/// Indexed rows per exact micro-tile: each tile keeps `TILE × lanes`
/// independent accumulators in flight.
const TILE: usize = 4;

/// Indexed rows per filter micro-tile on the AVX-512 tier. A dot product
/// is one operation per coordinate where a distance is three, so the
/// filter runs twice as many rows per tile to keep as many operations in
/// flight.
const DOT_TILE_AVX512: usize = 8;

/// Query blocks per filter pass on the AVX-512 tier: each broadcast row
/// value feeds this many panel rows, all held in registers, so a tile
/// keeps `PANELS_AVX512 × DOT_TILE_AVX512` 512-bit accumulators and loads
/// `PANELS_AVX512` panel rows per coordinate (DESIGN.md, "Brute-force kNN
/// kernel", records the sweep that picked it).
const PANELS_AVX512: usize = 2;

/// Indexed rows per filter micro-tile on the AVX2 and portable tiers,
/// where a sixteen-lane row takes two or four registers: eight rows would
/// hold every AVX2 register in accumulators and spill, and measured slower.
/// These tiers filter one query block per pass.
const DOT_TILE: usize = 4;

/// One query of a block: the point, and the indexed row to leave out of
/// its neighbourhood (the query row itself for [`BruteForceKnn::query_row`]).
type Query<'a> = (&'a [f32], Option<usize>);

/// One block's lists, and the number of rows its exact pass re-scored.
type Scanned = (Vec<Vec<Neighbor>>, usize);

/// The tiers of the brute-force distance kernel, widest first. All three
/// compile the same generic scan, so they return the same bits; the tier
/// sets the register width the compiler may use and, for the filter pass
/// alone, whether its dot products fuse, how many rows a tile holds and
/// how many query blocks one pass serves.
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

    /// Query blocks one filter pass serves on this tier.
    fn panels(self) -> usize {
        match self {
            KnnKernel::Avx512 => PANELS_AVX512,
            KnnKernel::Avx2 | KnnKernel::Scalar => 1,
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
/// value; on the AVX-512 tier one filter pass serves two blocks at once.
/// Every row within a proven rounding-error bound of it is then
/// re-scored by the exact kernel, which sums each distance's coordinate
/// terms in order from the first coordinate, with a separate multiply and
/// add, and takes the square root last: every distance is bit-identical to
/// [`Metric::distance`], and the lists are the ones a scan of every row
/// builds. Manhattan, non-finite data and lists shorter than `k` re-score
/// every row (see DESIGN.md, "Brute-force kNN kernel").
///
/// At every width the framework indexes (8 to 192 coordinates, up to a
/// few thousand rows) this scan beats a KD-tree, which wins only at d ≤ 2
/// (DESIGN.md, "Why there is no KD-tree").
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
    /// queries split into blocks of [`LANES`], the blocks into groups of
    /// the tier's [`KnnKernel::panels`] and a last few single blocks, and
    /// the groups fan out across the worker pool; every query's result
    /// depends only on that query, so the output is the same at any thread
    /// count and for any grouping of queries into blocks or of blocks into
    /// groups. Every public query method makes exactly one call, which
    /// counts its resolved queries, the distance kernel it dispatches to,
    /// the rows each block's exact pass re-scored and the exact distances
    /// that took.
    fn scan<'q>(
        &self,
        n: usize,
        query: impl Fn(usize) -> Query<'q> + Sync,
        k: usize,
    ) -> Vec<Vec<Neighbor>> {
        let tier = KnnKernel::current();
        let (blocks, panels) = (n.div_ceil(LANES), tier.panels());
        let groups = blocks / panels;
        let scanned = par::par_map_range(groups + blocks % panels, |g| {
            let (first, count) = if g < groups {
                (g * panels, panels)
            } else {
                (groups * panels + g - groups, 1)
            };
            let end = n.min((first + count) * LANES);
            let group: Vec<Query<'q>> = (first * LANES..end).map(&query).collect();
            self.scan_group(tier, &group, k)
        });
        let blocks: Vec<Scanned> = scanned.into_iter().flatten().collect();
        if eos_trace::enabled() {
            eos_trace::count!("neighbors.brute_queries", n as u64);
            match tier {
                KnnKernel::Avx512 => eos_trace::count!("neighbors.dispatch.avx512", 1),
                KnnKernel::Avx2 => eos_trace::count!("neighbors.dispatch.avx2", 1),
                KnnKernel::Scalar => eos_trace::count!("neighbors.dispatch.scalar", 1),
            }
            let rescored: usize = blocks.iter().map(|(_, rows)| rows).sum();
            let distances: usize = blocks.iter().map(|(lists, rows)| lists.len() * rows).sum();
            eos_trace::count!("neighbors.filter.candidates", rescored as u64);
            eos_trace::count!("neighbors.distances", distances as u64);
        }
        blocks.into_iter().flat_map(|(lists, _)| lists).collect()
    }

    /// Runs one group of whole [`LANES`]-query blocks, the last of which
    /// may be short: one block, or the tier's [`KnnKernel::panels`]
    /// blocks, which share one filter pass. A lone query gets a one-lane
    /// panel rather than fifteen lanes of padding.
    fn scan_group(&self, tier: KnnKernel, group: &[Query<'_>], k: usize) -> Vec<Scanned> {
        let d = self.data.dim(1);
        for (point, _) in group {
            assert_eq!(point.len(), d, "query dimension mismatch");
        }
        if k == 0 {
            return group
                .chunks(LANES)
                .map(|b| (vec![Vec::new(); b.len()], 0))
                .collect();
        }
        match group.len() {
            1 => self.scan_panels::<1, 1>(tier, [group], k).into(),
            2..=LANES => self.scan_panels::<LANES, 1>(tier, [group], k).into(),
            len => {
                let whole = len.div_ceil(LANES) == PANELS_AVX512;
                assert!(whole, "a group is one block or a whole group");
                let blocks = std::array::from_fn(|p| &group[p * LANES..len.min(p * LANES + LANES)]);
                self.scan_panels::<LANES, PANELS_AVX512>(tier, blocks, k)
                    .into()
            }
        }
    }

    /// Runs [`scan_rows`] over `P` blocks of at most `L` queries on the
    /// given tier, which the CPU must support.
    fn scan_panels<const L: usize, const P: usize>(
        &self,
        tier: KnnKernel,
        blocks: [&[Query<'_>]; P],
        k: usize,
    ) -> [Scanned; P] {
        match tier {
            // SAFETY: `KnnKernel::current` checked for avx512f at runtime,
            // and every AVX-512F CPU has FMA.
            #[cfg(target_arch = "x86_64")]
            KnnKernel::Avx512 => unsafe { scan_rows_avx512::<L, P>(self, blocks, k) },
            // SAFETY: `KnnKernel::current` checked for avx2 at runtime.
            #[cfg(target_arch = "x86_64")]
            KnnKernel::Avx2 => unsafe { scan_rows_avx2::<L, P>(self, blocks, k) },
            _ => scan_rows::<L, P, false, DOT_TILE>(self, blocks, k),
        }
    }

    /// The `k` nearest rows to `point`, sorted by ascending distance
    /// (ties broken by row index, NaN distances last). Returns fewer than
    /// `k` hits only when the index holds fewer rows.
    pub fn query(&self, point: &[f32], k: usize) -> Vec<Neighbor> {
        self.scan(1, |_| (point, None), k).swap_remove(0)
    }

    /// The `k` nearest rows to row `row` of the indexed matrix, excluding
    /// the row itself.
    pub fn query_row(&self, row: usize, k: usize) -> Vec<Neighbor> {
        assert!(row < self.data.dim(0), "row out of range");
        self.scan(1, |_| (self.data.row_slice(row), Some(row)), k)
            .swap_remove(0)
    }

    /// Number of indexed rows.
    pub fn len(&self) -> usize {
        self.data.dim(0)
    }

    /// True when the index holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// [`Self::query`] for every row of a `(q, d)` query matrix, with
    /// the query blocks fanned out across the worker pool. The output is
    /// identical to a query-at-a-time loop at any thread count.
    pub fn query_batch(&self, queries: &Tensor, k: usize) -> Vec<Vec<Neighbor>> {
        assert_eq!(queries.rank(), 2, "batch query expects a (q, d) matrix");
        self.scan(queries.dim(0), |i| (queries.row_slice(i), None), k)
    }

    /// [`Self::query_row`] for many indexed rows at once, with the
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
/// multiply-adds in [`approximate_avx512`]'s multi-panel tile.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
fn scan_rows_avx512<const L: usize, const P: usize>(
    index: &BruteForceKnn,
    blocks: [&[Query<'_>]; P],
    k: usize,
) -> [Scanned; P] {
    scan_rows::<L, P, true, DOT_TILE_AVX512>(index, blocks, k)
}

/// [`scan_rows`] compiled with AVX2 enabled, so a sixteen-lane panel row
/// is two vector registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn scan_rows_avx2<const L: usize, const P: usize>(
    index: &BruteForceKnn,
    blocks: [&[Query<'_>]; P],
    k: usize,
) -> [Scanned; P] {
    scan_rows::<L, P, false, DOT_TILE>(index, blocks, k)
}

/// A row to offer, with bit `l` set for the lanes it may enter.
type Candidate = (usize, u32);

/// Every row, offered to every lane: the candidates when the filter
/// cannot run.
fn every_row(n: usize) -> Vec<Candidate> {
    (0..n).map(|row| (row, u32::MAX)).collect()
}

/// The blocked kernel over `P` blocks of at most `L` queries. Pass 1,
/// [`filter_rows`], picks each block's candidate rows and the lanes each
/// may enter (every row and lane when the filter cannot run), all `P`
/// blocks in one walk over the rows; pass 2 computes the exact distances
/// from each block's `L`-lane query panel to a [`TILE`] of its candidates
/// at a time and offers them to fresh lists in ascending row order.
/// Returns each block's lists and number of candidates. `AVX512` marks the
/// AVX-512 tier, whose filter fuses its dot products' multiply-adds, and
/// `R` is the filter's rows per tile.
#[inline(always)]
fn scan_rows<const L: usize, const P: usize, const AVX512: bool, const R: usize>(
    index: &BruteForceKnn,
    blocks: [&[Query<'_>]; P],
    k: usize,
) -> [Scanned; P] {
    let (data, n) = (&index.data, index.data.dim(0));
    let panels = blocks.map(|block| transpose::<L>(block, data.dim(1)));
    let candidates: [Vec<Candidate>; P] = match &index.norms {
        // With `k + 1 >= n` some list stays short or takes every row.
        Some(norms) if k + 1 < n => {
            let panels = panels.each_ref().map(Vec::as_slice);
            filter_rows::<L, P, AVX512, R>(data, norms, panels, blocks, k)
        }
        _ => std::array::from_fn(|_| every_row(n)),
    };
    // Loops rather than closures: a closure's body may compile without the
    // tier's target features.
    let mut scanned: [Scanned; P] = std::array::from_fn(|_| (Vec::new(), 0));
    for (p, out) in scanned.iter_mut().enumerate() {
        *out = exact_pass::<L>(index, &panels[p], blocks[p], &candidates[p], k);
    }
    scanned
}

/// Pass 2 of one block: the exact distances from its `L`-lane query
/// `panel` to a [`TILE`] of `candidates` at a time, offered to fresh lists
/// in ascending row order. Returns the lists and the number of candidates.
#[inline(always)]
fn exact_pass<const L: usize>(
    index: &BruteForceKnn,
    panel: &[f32],
    block: &[Query<'_>],
    candidates: &[Candidate],
    k: usize,
) -> Scanned {
    let data = &index.data;
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

/// Pass 1 of `P` Euclidean blocks: for each block, the rows, in ascending
/// order, whose approximate squared distance `a = (‖q‖² + ‖x‖²) − 2·q·x`
/// lies within some query's [`threshold`], leaving out each query's
/// excluded row for its own lane; every row when some query's
/// [`error_bound`] cannot be formed. Every row's `a` goes into one `[n][L]`
/// buffer per block, the excluded rows at `+∞`; each lane's k-th smallest
/// value is picked from all of it, and the rows are tested against the
/// final thresholds in one pass. The values are finite (`error_bound` has
/// bounded the scale), so the candidates depend only on them, not on the
/// order the rows arrive in or on the blocks that share the walk.
#[inline(always)]
fn filter_rows<const L: usize, const P: usize, const AVX512: bool, const R: usize>(
    data: &Tensor,
    norms: &Norms,
    panels: [&[f32]; P],
    blocks: [&[Query<'_>]; P],
    k: usize,
) -> [Vec<Candidate>; P] {
    let (n, d) = (data.dim(0), data.dim(1));
    let qnorm: [[f32; L]; P] =
        blocks.map(|block| std::array::from_fn(|l| block.get(l).map_or(0.0, |q| sq_norm(q.0))));
    let slack: [Option<[f64; L]>; P] = std::array::from_fn(|p| {
        let mut slack = [0.0f64; L];
        for (l, e) in slack.iter_mut().enumerate().take(blocks[p].len()) {
            *e = error_bound(d, qnorm[p][l], norms.max)?;
        }
        Some(slack)
    });
    let mut buffer = vec![0.0f32; P * n * L];
    let mut parts = buffer.chunks_exact_mut(n * L);
    let mut a: [&mut [[f32; L]]; P] =
        std::array::from_fn(|_| parts.next().expect("one part per block").as_chunks_mut().0);
    let mut first = 0;
    while first + R <= n {
        let rows: [&[f32]; R] = std::array::from_fn(|c| data.row_slice(first + c));
        let out = a
            .each_mut()
            .map(|a| <&mut [_; R]>::try_from(&mut a[first..first + R]).unwrap());
        approximate::<L, P, R, AVX512>(panels, rows, &qnorm, &norms.rows[first..], out);
        first += R;
    }
    for row in first..n {
        let out = a
            .each_mut()
            .map(|a| <&mut [_; 1]>::try_from(&mut a[row..row + 1]).unwrap());
        approximate::<L, P, 1, AVX512>(
            panels,
            [data.row_slice(row)],
            &qnorm,
            &norms.rows[row..],
            out,
        );
    }
    let mut candidates: [Vec<Candidate>; P] = std::array::from_fn(|_| Vec::new());
    for (p, out) in candidates.iter_mut().enumerate() {
        *out = match slack[p] {
            Some(slack) => admit::<L>(a[p], blocks[p], &slack, k),
            None => every_row(n),
        };
    }
    candidates
}

/// The rows of one block's approximate values `a` that [`filter_rows`]
/// admits, each with its lanes, for the lanes' error bounds `slack`.
#[inline(always)]
fn admit<const L: usize>(
    a: &mut [[f32; L]],
    block: &[Query<'_>],
    slack: &[f64; L],
    k: usize,
) -> Vec<Candidate> {
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
/// each of the `L` lanes of each of the `P` panels, with norms `qnorm`, to
/// each of the `C` rows, with norms `xnorm`, into `out[panel][row][lane]`.
/// The dot products `q·x` run as fused multiply-adds on the AVX-512 tier,
/// where sixteen-lane panels take [`approximate_avx512`]; the rest is a
/// separate multiply and add on every tier. The filter's error bound holds
/// for either rounding. (Writing into `out` rather than returning the
/// accumulators keeps them in registers through the coordinate loop.)
#[inline(always)]
fn approximate<const L: usize, const P: usize, const C: usize, const AVX512: bool>(
    panels: [&[f32]; P],
    rows: [&[f32]; C],
    qnorm: &[[f32; L]; P],
    xnorm: &[f32],
    out: [&mut [[f32; L]; C]; P],
) {
    #[cfg(target_arch = "x86_64")]
    if AVX512 && L == LANES {
        let qnorm = qnorm.each_ref().map(|q| q.as_slice());
        let out = out.map(|o| o.as_flattened_mut());
        // SAFETY: `AVX512` is set only by `scan_rows_avx512`, which runs
        // after `KnnKernel::current` has checked for avx512f at runtime.
        unsafe { approximate_avx512::<P, C>(panels, rows, qnorm, &xnorm[..C], out) };
        return;
    }
    for ((panel, qnorm), out) in panels.into_iter().zip(qnorm).zip(out) {
        let acc: [[f32; L]; C] = accumulate(panel, rows, 0.0, |s, q, x| {
            if AVX512 {
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
}

/// [`approximate`] for `P` sixteen-lane panels on the AVX-512 tier, as a
/// register tile: `P × C` accumulators, and per coordinate `P` panel-row
/// loads, `C` broadcasts and `P × C` fused multiply-adds, so each
/// broadcast row value feeds every panel. Written with intrinsics because
/// the generic code over `[[f32; 16]; C]` arrays, at `P > 1`, compiled to
/// reload the panel rows from memory for every broadcast. Every lane gets
/// the bits of the generic code: `_mm512_fmadd_ps(q, x, acc)` rounds as
/// `q.mul_add(x, acc)` does, from the same `+0.0`, in the same coordinate
/// order, and the norm terms are the same separate add, multiply and
/// subtract. `panels[p]` is `[d][16]`, `qnorm[p]` has 16 values, `xnorm`
/// has `C` and `out[p]` is `[C][16]`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
fn approximate_avx512<const P: usize, const C: usize>(
    panels: [&[f32]; P],
    rows: [&[f32]; C],
    qnorm: [&[f32]; P],
    xnorm: &[f32],
    out: [&mut [f32]; P],
) {
    use std::arch::x86_64::*;
    let d = panels[0].len() / LANES;
    assert!(panels.iter().all(|p| p.len() == d * LANES) && rows.iter().all(|r| r.len() >= d));
    let mut acc = [[_mm512_setzero_ps(); C]; P];
    for j in 0..d {
        // SAFETY: `j < d`, every panel holds `d × 16` values from its start
        // and every row `d`, as just asserted; unchecked, so the loop holds
        // no bounds tests.
        let q: [__m512; P] =
            std::array::from_fn(|p| unsafe { _mm512_loadu_ps(panels[p].as_ptr().add(j * LANES)) });
        for c in 0..C {
            // SAFETY: as above.
            let x = _mm512_set1_ps(unsafe { *rows[c].get_unchecked(j) });
            for p in 0..P {
                acc[p][c] = _mm512_fmadd_ps(q[p], x, acc[p][c]);
            }
        }
    }
    let two = _mm512_set1_ps(2.0);
    for ((acc, qnorm), out) in acc.iter().zip(qnorm).zip(out) {
        let qnorm: &[f32; LANES] = qnorm.try_into().expect("sixteen query norms");
        // SAFETY: `qnorm` is sixteen values.
        let qnorm = unsafe { _mm512_loadu_ps(qnorm.as_ptr()) };
        for ((dot, &x), out) in acc.iter().zip(xnorm).zip(out.as_chunks_mut::<LANES>().0) {
            let a = _mm512_sub_ps(
                _mm512_add_ps(qnorm, _mm512_set1_ps(x)),
                _mm512_mul_ps(two, *dot),
            );
            // SAFETY: `out` is sixteen values.
            unsafe { _mm512_storeu_ps(out.as_mut_ptr(), a) };
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

    /// Class-ordered clusters of 40 rows whose queries' neighbours come
    /// last in the scan.
    fn clusters(n: usize, d: usize) -> Tensor {
        let mut rng = Rng64::new(9);
        let v = (0..n * d).map(|i| (i / d / 40) as f32 + rng.normal_f32(0.0, 0.3));
        Tensor::from_vec(v.collect(), &[n, d])
    }

    /// Each list as `(row, distance bits)`.
    fn bits(scanned: impl IntoIterator<Item = Scanned>) -> Vec<Vec<(usize, u32)>> {
        let hit = |h: &Neighbor| (h.index, h.distance.to_bits());
        let lists = scanned.into_iter().flat_map(|(lists, _)| lists);
        lists.map(|l| l.iter().map(hit).collect()).collect()
    }

    /// The blocks of `queries` run `P` at a time through `group`, and the
    /// last few, short of a whole group, one at a time through `one`.
    fn by_groups<'a, 'q, const P: usize>(
        queries: &'a [Query<'q>],
        one: impl Fn(&'a [Query<'q>]) -> Scanned,
        group: impl Fn([&'a [Query<'q>]; P]) -> [Scanned; P],
    ) -> Vec<Scanned> {
        let blocks: Vec<&'a [Query<'q>]> = queries.chunks(LANES).collect();
        let mut groups = blocks.chunks_exact(P);
        let mut out: Vec<Scanned> = Vec::new();
        for g in &mut groups {
            out.extend(group(g.try_into().expect("P blocks")));
        }
        out.extend(groups.remainder().iter().map(|&b| one(b)));
        out
    }

    #[test]
    fn every_tier_returns_the_same_lists() {
        // Every tier the host has, where the integration tests reach two,
        // at one, two and three blocks per filter pass, on class-ordered
        // clusters whose queries' neighbours come last. The query counts
        // give odd block counts and groups whose last block holds one
        // query, and every query leaves its own row out, in every panel.
        let (n, d) = (203, 24);
        let data = clusters(n, d);
        let index = BruteForceKnn::new(&data, Metric::Euclidean);
        for q in [17, 31, 32, 33, 48, 49, 65] {
            let queries: Vec<Query<'_>> =
                (n - q..n).map(|r| (data.row_slice(r), Some(r))).collect();
            for k in [1, 10, NETWORK_MAX_K, NETWORK_MAX_K + 1, 40] {
                let portable = |b: &[Query<'_>]| {
                    let [s] = scan_rows::<LANES, 1, false, DOT_TILE>(&index, [b], k);
                    s
                };
                let want = bits(queries.chunks(LANES).map(portable));
                let case = format!("q = {q}, k = {k}");
                let grouped = |b| scan_rows::<LANES, 2, false, DOT_TILE>(&index, b, k);
                assert_eq!(
                    bits(by_groups(&queries, portable, grouped)),
                    want,
                    "2, {case}"
                );
                let grouped = |b| scan_rows::<LANES, 3, false, DOT_TILE>(&index, b, k);
                assert_eq!(
                    bits(by_groups(&queries, portable, grouped)),
                    want,
                    "3, {case}"
                );
                #[cfg(target_arch = "x86_64")]
                {
                    if std::arch::is_x86_feature_detected!("avx2") {
                        // SAFETY (each call): avx2 was just detected.
                        let one = |b| {
                            let [s] = unsafe { scan_rows_avx2::<LANES, 1>(&index, [b], k) };
                            s
                        };
                        let wide = by_groups(&queries, one, |b| unsafe {
                            scan_rows_avx2::<LANES, 1>(&index, b, k)
                        });
                        assert_eq!(bits(wide), want, "avx2, {case}");
                    }
                    if std::arch::is_x86_feature_detected!("avx512f") {
                        // SAFETY (each call): avx512f was just detected;
                        // every AVX-512F CPU has FMA.
                        let one = |b| {
                            let [s] = unsafe { scan_rows_avx512::<LANES, 1>(&index, [b], k) };
                            s
                        };
                        let wide = by_groups(&queries, one, |b| unsafe {
                            scan_rows_avx512::<LANES, PANELS_AVX512>(&index, b, k)
                        });
                        assert_eq!(bits(wide), want, "avx512, {case}");
                        let wide = by_groups(&queries, one, |b| unsafe {
                            scan_rows_avx512::<LANES, 3>(&index, b, k)
                        });
                        assert_eq!(bits(wide), want, "avx512, 3 blocks, {case}");
                    }
                }
            }
        }
    }

    /// [`filter_rows`] on the AVX-512 tier.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,fma")]
    fn filter_avx512<const P: usize>(
        data: &Tensor,
        norms: &Norms,
        panels: [&[f32]; P],
        blocks: [&[Query<'_>]; P],
        k: usize,
    ) -> [Vec<Candidate>; P] {
        filter_rows::<LANES, P, true, DOT_TILE_AVX512>(data, norms, panels, blocks, k)
    }

    /// The candidates of blocks `first..first + P`, filtered in one pass
    /// on the portable tier, or on the AVX-512 tier when `avx512` is set.
    fn filter<const P: usize>(
        index: &BruteForceKnn,
        panels: &[Vec<f32>],
        blocks: &[&[Query<'_>]],
        first: usize,
        k: usize,
        avx512: bool,
    ) -> Vec<Vec<Candidate>> {
        let (data, norms) = (&index.data, index.norms.as_ref().expect("finite norms"));
        let panels = std::array::from_fn(|p| &panels[first + p][..]);
        let blocks = std::array::from_fn(|p| blocks[first + p]);
        #[cfg(target_arch = "x86_64")]
        if avx512 {
            // SAFETY: `avx512` is set only where `KnnKernel::current`
            // found avx512f; every AVX-512F CPU has FMA.
            return unsafe { filter_avx512::<P>(data, norms, panels, blocks, k) }.into();
        }
        assert!(!avx512, "no AVX-512 tier off x86-64");
        filter_rows::<LANES, P, false, DOT_TILE>(data, norms, panels, blocks, k).into()
    }

    #[test]
    fn grouped_filter_picks_each_blocks_own_candidates() {
        // Two and three blocks filtered in one pass give each block the
        // candidates a pass of its own gives it, on every tier that
        // groups blocks or could: a last block of one query, own rows left
        // out in every panel, and a middle block whose NaN query sends it
        // alone to the every-row path.
        let (n, d) = (203, 24);
        let data = clusters(n, d);
        let index = BruteForceKnn::new(&data, Metric::Euclidean);
        let nan = vec![f32::NAN; d];
        let mut queries: Vec<Query<'_>> =
            (n - 33..n).map(|r| (data.row_slice(r), Some(r))).collect();
        let tiers = [false, KnnKernel::current() == KnnKernel::Avx512];
        for nan_block in [false, true] {
            if nan_block {
                queries[LANES + 3].0 = &nan;
            }
            let blocks: Vec<&[Query<'_>]> = queries.chunks(LANES).collect();
            let panels: Vec<Vec<f32>> = blocks.iter().map(|b| transpose::<LANES>(b, d)).collect();
            for (k, avx512) in [1, 10, NETWORK_MAX_K + 1]
                .into_iter()
                .flat_map(|k| tiers.map(|t| (k, t)))
            {
                let case = format!("k = {k}, avx512 = {avx512}, NaN = {nan_block}");
                let want: Vec<Vec<Candidate>> = (0..3)
                    .flat_map(|p| filter::<1>(&index, &panels, &blocks, p, k, avx512))
                    .collect();
                assert_eq!(want[1].len() == n, nan_block, "{case}");
                assert!(want[0].len() < n && want[2].len() < n, "{case}");
                let pair = filter::<2>(&index, &panels, &blocks, 0, k, avx512);
                assert_eq!(pair, want[..2], "pair, {case}");
                let trio = filter::<3>(&index, &panels, &blocks, 0, k, avx512);
                assert_eq!(trio, want, "three, {case}");
            }
        }
    }
}
