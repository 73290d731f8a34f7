//! # eos-resample
//!
//! Classical oversampling baselines evaluated by the paper: random
//! oversampling, SMOTE, Borderline-SMOTE, ADASYN, Balanced-SVM (with an
//! in-crate linear SVM substrate), and Remix-style pixel mixing. All
//! implement the [`Oversampler`] trait so the three-phase framework can
//! plug any of them into its augmentation phase — in pixel space *or* in
//! embedding space.
//!
//! ```
//! use eos_resample::{balance_with, Oversampler, Smote};
//! use eos_tensor::{Rng64, Tensor};
//!
//! // Class 1 has fewer samples; SMOTE synthesises the difference.
//! let x = Tensor::from_vec(vec![0.0, 0.1, 0.2, 0.3, 5.0, 5.1], &[3, 2]);
//! let y = vec![0, 0, 1];
//! let (bx, by) = balance_with(&Smote::new(5), &x, &y, 2, &mut Rng64::new(0));
//! assert_eq!(by.iter().filter(|&&c| c == 0).count(),
//!            by.iter().filter(|&&c| c == 1).count());
//! assert_eq!(bx.dim(0), by.len());
//! ```

mod adasyn;
mod borderline;
mod kmeans;
mod random;
mod remix;
mod smote;
mod svm;
mod undersample;

pub use adasyn::Adasyn;
pub use borderline::BorderlineSmote;
pub use kmeans::{KMeans, KMeansSmote};
pub use random::RandomOversampler;
pub use remix::Remix;
pub use smote::Smote;
pub use svm::{BalancedSvm, LinearSvm};
pub use undersample::RandomUndersampler;

use eos_neighbors::{BruteForceKnn, Neighbor};
use eos_tensor::{Rng64, Tensor};

/// An oversampling algorithm: given labelled samples, produce synthetic
/// samples that (approximately) balance the class distribution.
pub trait Oversampler {
    /// Short name used in experiment output.
    fn name(&self) -> &'static str;

    /// Returns `(x_syn, y_syn)`: synthetic samples to *append* to the
    /// input so that every class reaches (approximately) the size of the
    /// largest. May return zero rows when the input is already balanced.
    fn oversample(
        &self,
        x: &Tensor,
        y: &[usize],
        num_classes: usize,
        rng: &mut Rng64,
    ) -> (Tensor, Vec<usize>);
}

/// Runs `sampler` and appends its synthetic samples to the originals.
pub fn balance_with(
    sampler: &dyn Oversampler,
    x: &Tensor,
    y: &[usize],
    num_classes: usize,
    rng: &mut Rng64,
) -> (Tensor, Vec<usize>) {
    let (sx, sy) = sampler.oversample(x, y, num_classes, rng);
    if sy.is_empty() {
        return (x.clone(), y.to_vec());
    }
    let mut labels = y.to_vec();
    labels.extend_from_slice(&sy);
    (Tensor::concat_rows(&[x, &sx]), labels)
}

/// Per-class sample counts.
pub fn class_counts(y: &[usize], num_classes: usize) -> Vec<usize> {
    let mut counts = vec![0usize; num_classes];
    for &l in y {
        assert!(l < num_classes, "label {l} out of range");
        counts[l] += 1;
    }
    counts
}

/// How many synthetic samples each class needs to match the largest class.
pub fn deficits(y: &[usize], num_classes: usize) -> Vec<usize> {
    let counts = class_counts(y, num_classes);
    let max = counts.iter().copied().max().unwrap_or(0);
    counts.iter().map(|&c| max - c).collect()
}

/// Row indices per class.
pub fn indices_by_class(y: &[usize], num_classes: usize) -> Vec<Vec<usize>> {
    let mut idx = vec![Vec::new(); num_classes];
    for (i, &l) in y.iter().enumerate() {
        idx[l].push(i);
    }
    idx
}

/// The `k` nearest rows in `index` of every member of each class with a
/// deficit (`needs[c] > 0`), each member's own row left out, in the
/// member order of `idx`; no lists for the other classes. One
/// [`BruteForceKnn::query_rows_batch`] call serves every such class, so
/// its query blocks fill across class boundaries; each query's list
/// depends only on that query, so the lists are the ones a call per class
/// returns.
pub fn deficient_class_neighbors(
    index: &BruteForceKnn,
    idx: &[Vec<usize>],
    needs: &[usize],
    k: usize,
) -> Vec<Vec<Vec<Neighbor>>> {
    let deficient = || idx.iter().zip(needs).map(|(rows, &need)| (rows, need > 0));
    let rows: Vec<usize> = deficient()
        .filter(|&(_, short)| short)
        .flat_map(|(rows, _)| rows.iter().copied())
        .collect();
    let mut hits = index.query_rows_batch(&rows, k).into_iter();
    deficient()
        .map(|(rows, short)| match short {
            true => hits.by_ref().take(rows.len()).collect(),
            false => Vec::new(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deficits_measure_gap_to_majority() {
        let y = vec![0, 0, 0, 1, 2];
        assert_eq!(deficits(&y, 3), vec![0, 2, 2]);
    }

    #[test]
    fn indices_by_class_partitions() {
        let y = vec![1, 0, 1];
        let idx = indices_by_class(&y, 2);
        assert_eq!(idx[0], vec![1]);
        assert_eq!(idx[1], vec![0, 2]);
    }

    #[test]
    fn balance_with_noop_on_balanced_input() {
        let x = Tensor::from_vec(vec![0.0, 1.0], &[2, 1]);
        let y = vec![0, 1];
        let (bx, by) = balance_with(&RandomOversampler, &x, &y, 2, &mut Rng64::new(0));
        assert_eq!(bx.dim(0), 2);
        assert_eq!(by, y);
    }
}
