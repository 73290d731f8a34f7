//! # eos-neighbors
//!
//! Nearest-neighbour substrate for the oversampling algorithms: one exact
//! k-NN index, a query-blocked linear scan. SMOTE, Borderline-SMOTE,
//! ADASYN and EOS all sit on top of it.
//!
//! ```
//! use eos_neighbors::{BruteForceKnn, Metric};
//! use eos_tensor::Tensor;
//!
//! let points = Tensor::from_vec(vec![0.0, 0.0, 1.0, 0.0, 5.0, 5.0], &[3, 2]);
//! let index = BruteForceKnn::new(&points, Metric::Euclidean);
//! let hits = index.query(&[0.1, 0.0], 2);
//! assert_eq!(hits[0].index, 0);
//! assert_eq!(hits[1].index, 1);
//! ```

mod brute;
mod metric;

pub use brute::{BruteForceKnn, KnnKernel};
pub use metric::Metric;

/// Another name for [`BruteForceKnn`], which the benchmark harness under
/// `perfbench/` imports; the harness changes only together with its
/// recorded baselines, so the name stays. There is no second backend to
/// route to (DESIGN.md, "Why there is no KD-tree").
pub type AutoIndex = BruteForceKnn;

/// A single nearest-neighbour hit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Row index of the neighbour in the indexed matrix.
    pub index: usize,
    /// Distance from the query point under the index's metric.
    pub distance: f32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use eos_tensor::Tensor;

    #[test]
    fn grid_queries() {
        // 3x3 integer grid, row-major rows (x, y).
        let mut v = Vec::new();
        for y in 0..3 {
            for x in 0..3 {
                v.push(x as f32);
                v.push(y as f32);
            }
        }
        let index = BruteForceKnn::new(&Tensor::from_vec(v, &[9, 2]), Metric::Euclidean);
        // Nearest to the centre (1,1) must be itself, then its 4-neighbours.
        let hits = index.query(&[1.0, 1.0], 5);
        assert_eq!(hits[0].index, 4);
        assert_eq!(hits[0].distance, 0.0);
        let cross: Vec<usize> = hits[1..].iter().map(|h| h.index).collect();
        assert_eq!(cross, [1, 3, 5, 7], "4-neighbours, ties by row");
        // Self-excluding row query.
        let hits = index.query_row(4, 4);
        assert!(hits.iter().all(|h| h.index != 4));
        assert_eq!(hits.len(), 4);
    }

    #[test]
    fn query_handles_k_larger_than_index() {
        let data = Tensor::from_vec(vec![0.0, 1.0, 2.0], &[3, 1]);
        let index = BruteForceKnn::new(&data, Metric::Euclidean);
        assert_eq!(index.query(&[0.0], 10).len(), 3);
        assert_eq!(index.query_row(0, 10).len(), 2);
        assert_eq!(index.len(), 3);
        assert!(!index.is_empty());
    }
}
