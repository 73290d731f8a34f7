//! ADASYN (He et al. 2008).

use crate::{deficient_class_neighbors, deficits, indices_by_class, Oversampler};
use eos_neighbors::{BruteForceKnn, Metric};
use eos_tensor::{Rng64, Tensor};

/// Adaptive synthetic sampling: the number of synthetics generated from
/// each minority sample is proportional to the fraction of *other-class*
/// points in its neighbourhood, focusing generation on the hardest
/// regions. Interpolation itself is intra-class, like SMOTE.
pub struct Adasyn {
    /// Neighbourhood size for both the difficulty ratio and interpolation.
    pub k: usize,
}

impl Adasyn {
    /// ADASYN with neighbourhood size `k`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1);
        Adasyn { k }
    }
}

impl Oversampler for Adasyn {
    fn name(&self) -> &'static str {
        "ADASYN"
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
        let full_index = BruteForceKnn::new(x, Metric::Euclidean);
        // Difficulty ratios over the full dataset: every deficient class's
        // neighbourhood scans in one call, fanned out across the worker pool.
        let full_hits = deficient_class_neighbors(&full_index, &idx, &needs, self.k);
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
            eos_trace::count!("resample.neighbor_queries", idx[class].len() as u64);
            eos_trace::count!("resample.interpolations", need as u64);
            let ratios: Vec<f32> = full_hits[class]
                .iter()
                .map(|hits| {
                    let enemies = hits.iter().filter(|h| y[h.index] != class).count();
                    enemies as f32 / hits.len().max(1) as f32
                })
                .collect();
            let total: f32 = ratios.iter().sum();
            // All-safe class: uniform ratios (plain SMOTE behaviour).
            let weights: Vec<f32> = if total <= 0.0 {
                vec![1.0; ratios.len()]
            } else {
                ratios
            };
            let n = class_rows.dim(0);
            let intra = BruteForceKnn::new(&class_rows, Metric::Euclidean);
            let k_intra = self.k.min(n.saturating_sub(1));
            // Precompute every member's intra-class neighbour list in
            // parallel; the RNG-driven loop below is unchanged, so the
            // synthetic rows are identical to the query-per-draw version.
            let intra_hits = if k_intra > 0 {
                intra.query_rows_batch(&(0..n).collect::<Vec<_>>(), k_intra)
            } else {
                Vec::new()
            };
            for _ in 0..need {
                let base = rng.weighted_choice(&weights);
                if k_intra == 0 {
                    data.extend_from_slice(class_rows.row_slice(base));
                } else {
                    let hits = &intra_hits[base];
                    let pick = hits[rng.below(hits.len())].index;
                    let r = rng.uniform_f32();
                    let b = class_rows.row_slice(base);
                    let nb = class_rows.row_slice(pick);
                    data.extend(b.iter().zip(nb).map(|(&bv, &nv)| bv + r * (nv - bv)));
                }
                labels.push(class);
            }
        }
        (Tensor::from_vec(data, &[labels.len(), width]), labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{balance_with, class_counts};

    #[test]
    fn focuses_on_hard_minority_samples() {
        // Minority sample A sits inside the majority cluster (hard);
        // sample B and C are far away together (easy). Most synthetics
        // should involve A's area.
        let mut v = Vec::new();
        let mut y = Vec::new();
        for i in 0..12 {
            v.extend_from_slice(&[i as f32 * 0.01, 0.0]);
            y.push(0);
        }
        v.extend_from_slice(&[0.05, 0.02]); // A: hard
        v.extend_from_slice(&[50.0, 50.0]); // B: easy
        v.extend_from_slice(&[50.1, 50.0]); // C: easy
        y.extend([1, 1, 1]);
        let x = Tensor::from_vec(v, &[15, 2]);
        let (sx, _) = Adasyn::new(5).oversample(&x, &y, 2, &mut Rng64::new(4));
        // Samples derived from A have small coordinates.
        let near_a = (0..sx.dim(0))
            .filter(|&i| sx.row_slice(i)[0] < 40.0)
            .count();
        assert!(
            near_a * 2 >= sx.dim(0),
            "ADASYN should favour the hard sample: {near_a}/{}",
            sx.dim(0)
        );
    }

    #[test]
    fn balances_counts() {
        let mut rng = Rng64::new(6);
        let x = eos_tensor::normal(&[25, 3], 0.0, 1.0, &mut rng);
        let mut y = vec![0usize; 18];
        y.extend(vec![1usize; 7]);
        let (_, by) = balance_with(&Adasyn::new(5), &x, &y, 2, &mut rng);
        assert_eq!(class_counts(&by, 2), vec![18, 18]);
    }

    #[test]
    fn safe_minority_degrades_to_uniform() {
        // Minority far from everything: ratios are all zero, ADASYN must
        // still generate (uniform weighting).
        let x = Tensor::from_vec(vec![0.0, 0.1, 0.2, 100.0, 100.2], &[5, 1]);
        let y = vec![0, 0, 0, 1, 1];
        let (sx, sy) = Adasyn::new(2).oversample(&x, &y, 2, &mut Rng64::new(0));
        assert_eq!(sy.len(), 1);
        assert!(sx.data()[0] >= 99.0);
    }
}
