//! Dimension-based index selection.

use crate::{BruteForceKnn, KdTree, KnnKernel, Metric, Neighbor, NnIndex};
use eos_tensor::Tensor;

/// Largest point dimensionality at which the KD-tree beats the blocked
/// linear scan. Measured with `query_rows_batch` over every row of a
/// Gaussian set, k = 10, one thread, on an AVX-512 Xeon, against the
/// scan that picks each query's k-th approximate value with a min/max
/// network; each time is the median of three rounds, each the best of 7
/// calls (ms, brute / tree):
///
/// | d  | n = 1500    | n = 300     |
/// |----|-------------|-------------|
/// | 2  | 4.5 / 2.4   | 0.35 / 0.30 |
/// | 3  | 5.7 / 4.2   | 0.35 / 0.53 |
/// | 4  | 4.8 / 5.6   | 0.36 / 0.70 |
/// | 5  | 4.5 / 9.9   | 0.38 / 0.96 |
/// | 6  | 5.8 / 17.2  | 0.40 / 1.22 |
/// | 8  | 4.5 / 19.1  | 0.39 / 1.36 |
/// | 12 | 4.6 / 27.3  | 0.38 / 1.53 |
/// | 16 | 5.0 / 32.7  | 0.38 / 1.57 |
///
/// The scan's cost barely moves with `d` at these widths, while the tree's
/// branch-and-bound pruning degrades with every added dimension (curse of
/// dimensionality). The tree wins every round only at d = 2; at d = 3 it
/// still wins at n = 1500 but loses at n = 300, so from 3 dimensions on
/// the brute-force index is used.
pub const TREE_MAX_DIM: usize = 2;

/// Exact k-NN index that picks its backend from the data's dimensionality:
/// a [`KdTree`] for points with at most [`TREE_MAX_DIM`] coordinates
/// (pixel prototypes, t-SNE outputs, low-dimensional feature spaces), a
/// [`BruteForceKnn`] scan otherwise (deep embeddings). Data with a NaN
/// coordinate always takes the scan, which ranks NaN distances last; the
/// tree cannot split on a NaN.
///
/// Both backends compute the exact k-minimum under the same
/// `(distance, row index)` lexicographic order, so the selection is purely
/// a performance decision — query results are identical either way, which
/// keeps the oversamplers' RNG consumption and outputs independent of the
/// backend.
pub enum AutoIndex {
    /// Low-dimensional backend.
    Tree(KdTree),
    /// High-dimensional backend.
    Brute(BruteForceKnn),
}

impl AutoIndex {
    /// Indexes the rows of `data` with the backend suited to its width.
    pub fn new(data: &Tensor, metric: Metric) -> Self {
        assert_eq!(data.rank(), 2, "index expects a (n, d) matrix");
        if data.dim(1) <= TREE_MAX_DIM && !data.data().iter().any(|v| v.is_nan()) {
            AutoIndex::Tree(KdTree::new(data, metric))
        } else {
            AutoIndex::Brute(BruteForceKnn::new(data, metric))
        }
    }

    /// Counts `n` resolved queries against whichever backend this index
    /// routes to, so traces show how the dimensionality split behaves. A
    /// brute-force call also records which distance kernel it dispatches
    /// to — once per call, never per tile; the scan itself counts the
    /// distances it computes.
    fn trace_queries(&self, n: usize) {
        if !eos_trace::enabled() {
            return;
        }
        match self {
            AutoIndex::Tree(_) => eos_trace::count!("neighbors.tree_queries", n as u64),
            AutoIndex::Brute(_) => {
                eos_trace::count!("neighbors.brute_queries", n as u64);
                match KnnKernel::current() {
                    KnnKernel::Avx512 => eos_trace::count!("neighbors.dispatch.avx512", 1),
                    KnnKernel::Avx2 => eos_trace::count!("neighbors.dispatch.avx2", 1),
                    KnnKernel::Scalar => eos_trace::count!("neighbors.dispatch.scalar", 1),
                }
            }
        }
    }

    /// [`NnIndex::query`] for every row of a `(q, d)` query matrix, fanned
    /// out across the worker pool; identical to a query-at-a-time loop.
    pub fn query_batch(&self, queries: &Tensor, k: usize) -> Vec<Vec<Neighbor>> {
        self.trace_queries(queries.dim(0));
        match self {
            AutoIndex::Tree(t) => t.query_batch(queries, k),
            AutoIndex::Brute(b) => b.query_batch(queries, k),
        }
    }

    /// [`NnIndex::query_row`] for many indexed rows at once, fanned out
    /// across the worker pool; identical to the serial loop.
    pub fn query_rows_batch(&self, rows: &[usize], k: usize) -> Vec<Vec<Neighbor>> {
        self.trace_queries(rows.len());
        match self {
            AutoIndex::Tree(t) => t.query_rows_batch(rows, k),
            AutoIndex::Brute(b) => b.query_rows_batch(rows, k),
        }
    }
}

impl NnIndex for AutoIndex {
    fn query(&self, point: &[f32], k: usize) -> Vec<Neighbor> {
        self.trace_queries(1);
        match self {
            AutoIndex::Tree(t) => t.query(point, k),
            AutoIndex::Brute(b) => b.query(point, k),
        }
    }

    fn query_row(&self, row: usize, k: usize) -> Vec<Neighbor> {
        self.trace_queries(1);
        match self {
            AutoIndex::Tree(t) => t.query_row(row, k),
            AutoIndex::Brute(b) => b.query_row(row, k),
        }
    }

    fn len(&self) -> usize {
        match self {
            AutoIndex::Tree(t) => t.len(),
            AutoIndex::Brute(b) => b.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eos_tensor::{normal, Rng64};

    #[test]
    fn backend_follows_dimensionality() {
        let lo = Tensor::zeros(&[4, TREE_MAX_DIM]);
        let hi = Tensor::zeros(&[4, TREE_MAX_DIM + 1]);
        assert!(matches!(
            AutoIndex::new(&lo, Metric::Euclidean),
            AutoIndex::Tree(_)
        ));
        assert!(matches!(
            AutoIndex::new(&hi, Metric::Euclidean),
            AutoIndex::Brute(_)
        ));
    }

    #[test]
    fn both_backends_agree_with_brute_force() {
        let mut rng = Rng64::new(17);
        for d in [2usize, TREE_MAX_DIM, TREE_MAX_DIM + 1, 16, 40] {
            let data = normal(&[150, d], 0.0, 1.0, &mut rng);
            let auto = AutoIndex::new(&data, Metric::Euclidean);
            let brute = BruteForceKnn::new(&data, Metric::Euclidean);
            for _ in 0..10 {
                let q: Vec<f32> = (0..d).map(|_| rng.normal_f32(0.0, 1.0)).collect();
                assert_eq!(auto.query(&q, 8), brute.query(&q, 8), "d = {d}");
            }
            let rows: Vec<usize> = (0..150).step_by(7).collect();
            assert_eq!(
                auto.query_rows_batch(&rows, 6),
                brute.query_rows_batch(&rows, 6),
                "d = {d}"
            );
        }
    }

    #[test]
    fn nan_coordinate_takes_the_scan_with_brute_force_answers() {
        // A low-dimensional set the tree would index, but with one NaN
        // coordinate: it must not panic, and every list must match the
        // brute-force index, distance bits included (NaN ranked last).
        let mut data = normal(&[20, 2], 0.0, 1.0, &mut Rng64::new(23));
        data.set(&[7, 1], f32::NAN);
        let auto = AutoIndex::new(&data, Metric::Euclidean);
        let brute = BruteForceKnn::new(&data, Metric::Euclidean);
        assert!(matches!(auto, AutoIndex::Brute(_)));
        let bits = |lists: Vec<Vec<Neighbor>>| -> Vec<Vec<(usize, u32)>> {
            lists
                .iter()
                .map(|l| l.iter().map(|n| (n.index, n.distance.to_bits())).collect())
                .collect()
        };
        let rows: Vec<usize> = (0..20).collect();
        for k in [1, 5, 19] {
            assert_eq!(
                bits(auto.query_rows_batch(&rows, k)),
                bits(brute.query_rows_batch(&rows, k)),
                "k = {k}"
            );
            assert_eq!(
                bits(auto.query_batch(&data, k)),
                bits(brute.query_batch(&data, k)),
                "k = {k}"
            );
            for row in rows.iter().copied() {
                assert_eq!(
                    bits(vec![auto.query_row(row, k)]),
                    bits(vec![brute.query_row(row, k)]),
                    "row {row}, k = {k}"
                );
            }
        }
        let nan_last = auto.query_row(0, 19);
        assert!(nan_last.last().unwrap().distance.is_nan());
    }

    #[test]
    fn duplicate_points_tie_break_identically() {
        // Many exact duplicates: every query is all-ties, the harshest
        // test of (distance, index) ordering parity across backends.
        let mut v = Vec::new();
        for i in 0..40 {
            let x = (i % 4) as f32; // 4 distinct locations, 10 copies each
            v.extend_from_slice(&[x, -x]);
        }
        let data = Tensor::from_vec(v, &[40, 2]);
        let auto = AutoIndex::new(&data, Metric::Euclidean);
        let brute = BruteForceKnn::new(&data, Metric::Euclidean);
        assert!(matches!(auto, AutoIndex::Tree(_)));
        let batch_a = auto.query_batch(&data, 12);
        let batch_b = brute.query_batch(&data, 12);
        assert_eq!(batch_a, batch_b);
        for row in 0..40 {
            assert_eq!(auto.query_row(row, 12), brute.query_row(row, 12));
        }
    }
}
