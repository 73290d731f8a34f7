//! # eos-neighbors
//!
//! Nearest-neighbour substrate for the oversampling algorithms: an exact
//! brute-force index and a KD-tree with identical query semantics. SMOTE,
//! Borderline-SMOTE, ADASYN and EOS all sit on top of these.
//!
//! ```
//! use eos_neighbors::{BruteForceKnn, Metric, NnIndex};
//! use eos_tensor::Tensor;
//!
//! let points = Tensor::from_vec(vec![0.0, 0.0, 1.0, 0.0, 5.0, 5.0], &[3, 2]);
//! let index = BruteForceKnn::new(&points, Metric::Euclidean);
//! let hits = index.query(&[0.1, 0.0], 2);
//! assert_eq!(hits[0].index, 0);
//! assert_eq!(hits[1].index, 1);
//! ```

mod auto;
mod brute;
mod kdtree;
mod metric;

pub use auto::{AutoIndex, TREE_MAX_DIM};
pub use brute::{BruteForceKnn, KnnKernel};
pub use kdtree::KdTree;
pub use metric::Metric;

/// A single nearest-neighbour hit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Row index of the neighbour in the indexed matrix.
    pub index: usize,
    /// Distance from the query point under the index's metric.
    pub distance: f32,
}

/// Common interface of the exact k-NN indexes.
pub trait NnIndex {
    /// The `k` nearest rows to `point`, sorted by ascending distance
    /// (ties broken by row index). Returns fewer than `k` hits only when
    /// the index holds fewer rows.
    fn query(&self, point: &[f32], k: usize) -> Vec<Neighbor>;

    /// The `k` nearest rows to row `row` of the indexed matrix, excluding
    /// the row itself.
    fn query_row(&self, row: usize, k: usize) -> Vec<Neighbor>;

    /// Number of indexed rows.
    fn len(&self) -> usize;

    /// True when the index holds no rows.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod shared_tests {
    use super::*;
    use eos_tensor::{normal, Rng64, Tensor};

    fn grid() -> Tensor {
        // 3x3 integer grid, row-major rows (x, y).
        let mut v = Vec::new();
        for y in 0..3 {
            for x in 0..3 {
                v.push(x as f32);
                v.push(y as f32);
            }
        }
        Tensor::from_vec(v, &[9, 2])
    }

    fn check_index(index: &dyn NnIndex) {
        // Nearest to the centre (1,1) must be itself, then its 4-neighbours.
        let hits = index.query(&[1.0, 1.0], 5);
        assert_eq!(hits[0].index, 4);
        assert_eq!(hits[0].distance, 0.0);
        let cross: Vec<usize> = hits[1..].iter().map(|h| h.index).collect();
        for n in [1usize, 3, 5, 7] {
            assert!(cross.contains(&n), "missing 4-neighbour {n}: {cross:?}");
        }
        // Self-excluding row query.
        let hits = index.query_row(4, 4);
        assert!(hits.iter().all(|h| h.index != 4));
        assert_eq!(hits.len(), 4);
    }

    #[test]
    fn brute_force_grid_queries() {
        check_index(&BruteForceKnn::new(&grid(), Metric::Euclidean));
    }

    #[test]
    fn kdtree_grid_queries() {
        check_index(&KdTree::new(&grid(), Metric::Euclidean));
    }

    #[test]
    fn kdtree_agrees_with_brute_force_on_random_data() {
        let mut rng = Rng64::new(31);
        for metric in [Metric::Euclidean, Metric::Manhattan] {
            let data = normal(&[200, 6], 0.0, 1.0, &mut rng);
            let brute = BruteForceKnn::new(&data, metric);
            let tree = KdTree::new(&data, metric);
            for _ in 0..25 {
                let q: Vec<f32> = (0..6).map(|_| rng.normal_f32(0.0, 1.0)).collect();
                let a = brute.query(&q, 7);
                let b = tree.query(&q, 7);
                let ai: Vec<usize> = a.iter().map(|h| h.index).collect();
                let bi: Vec<usize> = b.iter().map(|h| h.index).collect();
                assert_eq!(ai, bi, "metric {metric:?}");
                for (x, y) in a.iter().zip(&b) {
                    assert!((x.distance - y.distance).abs() < 1e-5);
                }
            }
        }
    }

    #[test]
    fn query_handles_k_larger_than_index() {
        let data = Tensor::from_vec(vec![0.0, 1.0, 2.0], &[3, 1]);
        for index in [
            Box::new(BruteForceKnn::new(&data, Metric::Euclidean)) as Box<dyn NnIndex>,
            Box::new(KdTree::new(&data, Metric::Euclidean)),
        ] {
            assert_eq!(index.query(&[0.0], 10).len(), 3);
            assert_eq!(index.query_row(0, 10).len(), 2);
        }
    }
}
