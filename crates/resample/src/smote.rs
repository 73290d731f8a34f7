//! SMOTE (Chawla et al. 2002).

use crate::{deficits, indices_by_class, Oversampler};
use eos_neighbors::{BruteForceKnn, Metric};
use eos_tensor::{Rng64, Tensor};

/// Synthetic Minority Over-sampling: new samples interpolate between a
/// random minority base and one of its `k` nearest *same-class*
/// neighbours. Because interpolation is intra-class, SMOTE cannot generate
/// outside the minority convex hull — the limitation EOS targets.
pub struct Smote {
    /// Neighbourhood size (classic value: 5).
    pub k: usize,
}

impl Smote {
    /// SMOTE with a `k`-neighbour interpolation pool.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1);
        Smote { k }
    }

    /// Interpolates `need` synthetic rows for one class given the rows of
    /// that class, appending to `out`. Building block shared with
    /// Borderline-SMOTE and with EOS's isolated-class fallback.
    pub fn synthesize_for_class(
        class_rows: &Tensor,
        base_pool: &[usize],
        need: usize,
        k: usize,
        rng: &mut Rng64,
        out: &mut Vec<f32>,
    ) {
        let n = class_rows.dim(0);
        debug_assert!(!base_pool.is_empty());
        if n == 1 {
            // Single sample: interpolation degenerates to duplication.
            for _ in 0..need {
                out.extend_from_slice(class_rows.row_slice(0));
            }
            return;
        }
        let k = k.min(n - 1);
        let index = BruteForceKnn::new(class_rows, Metric::Euclidean);
        // All candidate bases get their neighbour lists up front, fanned
        // out across the worker pool; the RNG-driven interpolation loop
        // below then runs serially against the precomputed lists, so the
        // RNG call sequence — and the output — is identical to querying
        // inside the loop.
        let neighbor_lists = index.query_rows_batch(base_pool, k);
        eos_trace::count!("resample.neighbor_queries", base_pool.len() as u64);
        eos_trace::count!("resample.interpolations", need as u64);
        let mut list_of = vec![usize::MAX; n];
        for (pi, &row) in base_pool.iter().enumerate() {
            list_of[row] = pi;
        }
        for _ in 0..need {
            let &base = rng.choose(base_pool);
            let neighbors = &neighbor_lists[list_of[base]];
            let pick = neighbors[rng.below(neighbors.len())].index;
            let r = rng.uniform_f32();
            let b = class_rows.row_slice(base);
            let nb = class_rows.row_slice(pick);
            out.extend(b.iter().zip(nb).map(|(&bv, &nv)| bv + r * (nv - bv)));
        }
    }
}

impl Oversampler for Smote {
    fn name(&self) -> &'static str {
        "SMOTE"
    }

    fn oversample(
        &self,
        x: &Tensor,
        y: &[usize],
        num_classes: usize,
        rng: &mut Rng64,
    ) -> (Tensor, Vec<usize>) {
        assert_eq!(x.dim(0), y.len());
        let needs = deficits(y, num_classes);
        let idx = indices_by_class(y, num_classes);
        let width = x.dim(1);
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for (class, &need) in needs.iter().enumerate() {
            if need == 0 {
                continue;
            }
            assert!(
                !idx[class].is_empty(),
                "cannot oversample empty class {class}"
            );
            let class_rows = x.select_rows(&idx[class]);
            let pool: Vec<usize> = (0..class_rows.dim(0)).collect();
            Smote::synthesize_for_class(&class_rows, &pool, need, self.k, rng, &mut data);
            labels.extend(std::iter::repeat_n(class, need));
        }
        (Tensor::from_vec(data, &[labels.len(), width]), labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{balance_with, class_counts};

    #[test]
    fn synthetic_points_lie_on_segments() {
        // Minority class on a 1-D line: all synthetics must stay within
        // [min, max] of the class (intra-class convex hull).
        let x = Tensor::from_vec(vec![0.0, 0.0, 0.0, 0.0, 0.0, 2.0, 3.0, 4.0], &[8, 1]);
        let y = vec![0, 0, 0, 0, 0, 1, 1, 1];
        let (sx, sy) = Smote::new(2).oversample(&x, &y, 2, &mut Rng64::new(3));
        assert_eq!(sy.len(), 2);
        for v in sx.data() {
            assert!((2.0..=4.0).contains(v), "outside class hull: {v}");
        }
    }

    #[test]
    fn balances_all_classes() {
        let mut rng = Rng64::new(5);
        let x = eos_tensor::normal(&[30, 4], 0.0, 1.0, &mut rng);
        let mut y = vec![0usize; 20];
        y.extend(vec![1usize; 7]);
        y.extend(vec![2usize; 3]);
        let (_, by) = balance_with(&Smote::new(5), &x, &y, 3, &mut rng);
        assert_eq!(class_counts(&by, 3), vec![20, 20, 20]);
    }

    #[test]
    fn singleton_class_duplicates() {
        let x = Tensor::from_vec(vec![0.0, 0.0, 7.0], &[3, 1]);
        let y = vec![0, 0, 1];
        let (sx, sy) = Smote::new(5).oversample(&x, &y, 2, &mut Rng64::new(0));
        assert_eq!(sy, vec![1]);
        assert_eq!(sx.data(), &[7.0]);
    }

    #[test]
    fn does_not_expand_feature_ranges() {
        // The property Figure 3 turns on: SMOTE keeps per-feature min/max.
        let mut rng = Rng64::new(11);
        let x = eos_tensor::normal(&[40, 3], 0.0, 1.0, &mut rng);
        let mut y = vec![0usize; 30];
        y.extend(vec![1usize; 10]);
        let min_before = x.select_rows(&(30..40).collect::<Vec<_>>()).min_rows();
        let max_before = x.select_rows(&(30..40).collect::<Vec<_>>()).max_rows();
        let (sx, _) = Smote::new(5).oversample(&x, &y, 2, &mut rng);
        for i in 0..sx.dim(0) {
            for (j, &v) in sx.row_slice(i).iter().enumerate() {
                assert!(v >= min_before.data()[j] - 1e-5);
                assert!(v <= max_before.data()[j] + 1e-5);
            }
        }
    }
}
