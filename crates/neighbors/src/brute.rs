//! Exact brute-force k-NN.

use crate::{Metric, Neighbor, NnIndex};
use eos_tensor::{avx512_kernel_enabled, par, wide_kernel_enabled, Tensor};

/// Queries per block: one lane of the transposed query panel each, and
/// one bit of a row's admission mask.
const LANES: usize = 16;

/// Indexed rows per micro-tile: each tile keeps `TILE × lanes`
/// independent accumulators in flight.
const TILE: usize = 4;

/// One query of a block: the point, and the indexed row to leave out of
/// its neighbourhood (the query row itself for [`NnIndex::query_row`]).
type Query<'a> = (&'a [f32], Option<usize>);

/// The tiers of the brute-force distance kernel, widest first. All three
/// compile the same generic scan, so they return the same bits; the tier
/// only sets the register width the compiler may use.
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
/// `[d][lanes]` panel, and the indexed rows are walked in micro-tiles of
/// four, so every coordinate load feeds many independent accumulators
/// instead of one dependent add chain per candidate. Each accumulator
/// still sums its coordinate terms in order from the first coordinate,
/// with a separate multiply and add, and takes the square root last: every
/// distance is bit-identical to [`Metric::distance`] (see DESIGN.md,
/// "Brute-force kNN kernel").
///
/// At the embedding sizes the framework works with (≤ a few thousand
/// 64-dimensional points) this scan is consistently faster than tree
/// traversal; the KD-tree exists for the low-dimensional cases (pixel
/// prototypes, t-SNE outputs).
pub struct BruteForceKnn {
    data: Tensor,
    metric: Metric,
}

impl BruteForceKnn {
    /// Indexes the rows of `data`.
    pub fn new(data: &Tensor, metric: Metric) -> Self {
        assert_eq!(data.rank(), 2, "index expects a (n, d) matrix");
        BruteForceKnn {
            data: data.clone(),
            metric,
        }
    }

    /// The `k` nearest indexed rows of each query, in query order. The
    /// blocks fan out across the worker pool; every query's result depends
    /// only on that query, so the output is the same at any thread count
    /// and for any grouping of queries into blocks.
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
        blocks.into_iter().flatten().collect()
    }

    /// Runs one block of at most [`LANES`] queries; a lone query gets a
    /// one-lane panel rather than fifteen lanes of padding.
    fn scan_block(&self, block: &[Query<'_>], k: usize) -> Vec<Vec<Neighbor>> {
        let d = self.data.dim(1);
        for (point, _) in block {
            assert_eq!(point.len(), d, "query dimension mismatch");
        }
        if k == 0 {
            return vec![Vec::new(); block.len()];
        }
        match block.len() {
            1 => self.scan_lanes::<1>(block, k),
            _ => self.scan_lanes::<LANES>(block, k),
        }
    }

    /// Transposes the block into an `L`-lane panel (unused lanes stay
    /// zero and are never read back) and runs [`scan_rows`] on the widest
    /// tier the CPU supports.
    fn scan_lanes<const L: usize>(&self, block: &[Query<'_>], k: usize) -> Vec<Vec<Neighbor>> {
        let d = self.data.dim(1);
        let mut panel = vec![0.0f32; d * L];
        for (lane, (point, _)) in block.iter().enumerate() {
            for (j, &v) in point.iter().enumerate() {
                panel[j * L + lane] = v;
            }
        }
        let (data, metric) = (&self.data, self.metric);
        match KnnKernel::current() {
            // SAFETY: `KnnKernel::current` just checked for avx512f at runtime.
            #[cfg(target_arch = "x86_64")]
            KnnKernel::Avx512 => unsafe { scan_rows_avx512::<L>(data, metric, &panel, block, k) },
            // SAFETY: `KnnKernel::current` just checked for avx2 at runtime.
            #[cfg(target_arch = "x86_64")]
            KnnKernel::Avx2 => unsafe { scan_rows_avx2::<L>(data, metric, &panel, block, k) },
            _ => scan_rows::<L>(data, metric, &panel, block, k),
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

/// [`scan_rows`] compiled with AVX-512F enabled, so a sixteen-lane panel
/// row is one vector register and a row's admission test is one compare
/// into a mask register.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn scan_rows_avx512<const L: usize>(
    data: &Tensor,
    metric: Metric,
    panel: &[f32],
    block: &[Query<'_>],
    k: usize,
) -> Vec<Vec<Neighbor>> {
    scan_rows::<L>(data, metric, panel, block, k)
}

/// [`scan_rows`] compiled with AVX2 enabled, so a sixteen-lane panel row
/// is two vector registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn scan_rows_avx2<const L: usize>(
    data: &Tensor,
    metric: Metric,
    panel: &[f32],
    block: &[Query<'_>],
    k: usize,
) -> Vec<Vec<Neighbor>> {
    scan_rows::<L>(data, metric, panel, block, k)
}

/// The blocked kernel: computes the distances from the `L`-lane query
/// `panel` to a [`TILE`] of indexed rows at a time and offers them to
/// each query's bounded list in ascending row order.
#[inline(always)]
fn scan_rows<const L: usize>(
    data: &Tensor,
    metric: Metric,
    panel: &[f32],
    block: &[Query<'_>],
    k: usize,
) -> Vec<Vec<Neighbor>> {
    let mut lists = Lists::<L>::new(block, k);
    let n = data.dim(0);
    let tiled = n - n % TILE;
    for first in (0..tiled).step_by(TILE) {
        let rows: [&[f32]; TILE] = std::array::from_fn(|c| data.row_slice(first + c));
        lists.offer_rows(first, &distances(metric, panel, rows));
    }
    for row in tiled..n {
        lists.offer_rows(row, &distances(metric, panel, [data.row_slice(row)]));
    }
    lists.best
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
/// drop an overflowed, infinite distance from a short list.) The tests of
/// a row's lanes are one vector compare.
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

    /// Offers rows `first..` at distances `dist[row - first]` to the lanes
    /// whose cut admits them, leaving out each query's excluded row.
    #[inline(always)]
    fn offer_rows(&mut self, first: usize, dist: &[[f32; L]]) {
        for (c, lanes) in dist.iter().enumerate() {
            let row = first + c;
            let mut admit = !rejected(lanes, &self.cut) & self.live;
            while admit != 0 {
                let l = admit.trailing_zeros() as usize;
                admit &= admit - 1;
                if self.block[l].1 != Some(row) {
                    let list = &mut self.best[l];
                    offer(list, self.k, row, lanes[l]);
                    if list.len() == self.k {
                        self.cut[l] = list[self.k - 1].distance;
                    }
                }
            }
        }
    }
}

/// Bit `l` set when `dist[l] >= cut[l]`: the lanes whose [`offer`] would
/// return without touching the list.
#[inline(always)]
fn rejected<const L: usize>(dist: &[f32; L], cut: &[f32; L]) -> u32 {
    let mut mask = 0;
    for l in 0..L {
        mask |= u32::from(dist[l] >= cut[l]) << l;
    }
    mask
}

/// Offers candidate `index` at `distance` to a bounded list sorted by
/// `(distance, index)`. Candidates must arrive in ascending `index` order:
/// a candidate tying the current worst is then always the later row and
/// is rejected without a search.
#[inline]
fn offer(best: &mut Vec<Neighbor>, k: usize, index: usize, distance: f32) {
    if best.len() == k && distance >= best[k - 1].distance {
        return;
    }
    let pos = best
        .partition_point(|n| n.distance < distance || (n.distance == distance && n.index < index));
    best.insert(pos, Neighbor { index, distance });
    if best.len() > k {
        best.pop();
    }
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
            let mut acc = accumulate(panel, rows, |t| t * t);
            for v in acc.iter_mut().flatten() {
                *v = v.sqrt();
            }
            acc
        }
        Metric::Manhattan => accumulate(panel, rows, f32::abs),
    }
}

/// Sums `term(query - row)` over the coordinates, one accumulator per
/// `(row, lane)`, each in coordinate order from `-0.0` — the start value
/// and order of `Iterator::sum` — with a separate multiply and add. Rust
/// never contracts the two into an FMA, even where the enabled target
/// features include it (LLVM's `avx512f` implies `fma`).
#[inline(always)]
fn accumulate<const L: usize, const C: usize>(
    panel: &[f32],
    rows: [&[f32]; C],
    term: impl Fn(f32) -> f32,
) -> [[f32; L]; C] {
    let mut acc = [[-0.0f32; L]; C];
    let d = panel.len() / L;
    let rows: [&[f32]; C] = std::array::from_fn(|c| &rows[c][..d]);
    for (j, q) in panel.chunks_exact(L).enumerate() {
        let q: &[f32; L] = q.try_into().expect("a panel row holds L lanes");
        for c in 0..C {
            let x = rows[c][j];
            for l in 0..L {
                acc[c][l] += term(q[l] - x);
            }
        }
    }
    acc
}

impl NnIndex for BruteForceKnn {
    fn query(&self, point: &[f32], k: usize) -> Vec<Neighbor> {
        self.scan_block(&[(point, None)], k).swap_remove(0)
    }

    fn query_row(&self, row: usize, k: usize) -> Vec<Neighbor> {
        assert!(row < self.data.dim(0), "row out of range");
        let query = (self.data.row_slice(row), Some(row));
        self.scan_block(&[query], k).swap_remove(0)
    }

    fn len(&self) -> usize {
        self.data.dim(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_sorted_ascending() {
        let data = Tensor::from_vec(vec![5.0, 1.0, 3.0, 0.0], &[4, 1]);
        let index = BruteForceKnn::new(&data, Metric::Euclidean);
        let hits = index.query(&[0.0], 4);
        let d: Vec<f32> = hits.iter().map(|h| h.distance).collect();
        assert_eq!(d, vec![0.0, 1.0, 3.0, 5.0]);
        assert_eq!(hits[0].index, 3);
    }

    #[test]
    fn k_zero_is_empty() {
        let data = Tensor::from_vec(vec![1.0], &[1, 1]);
        let index = BruteForceKnn::new(&data, Metric::Euclidean);
        assert!(index.query(&[0.0], 0).is_empty());
    }

    #[test]
    fn ties_broken_by_index() {
        let data = Tensor::from_vec(vec![1.0, -1.0, 1.0], &[3, 1]);
        let index = BruteForceKnn::new(&data, Metric::Euclidean);
        let hits = index.query(&[0.0], 3);
        assert_eq!(hits[0].index, 0, "equal distances ordered by row");
        assert_eq!(hits[1].index, 1);
        assert_eq!(hits[2].index, 2);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn rejects_wrong_dimension() {
        let data = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]);
        BruteForceKnn::new(&data, Metric::Euclidean).query(&[0.0], 1);
    }
}
