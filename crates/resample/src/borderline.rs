//! Borderline-SMOTE (Han et al. 2005), borderline-1 variant.

use crate::smote::Smote;
use crate::{deficits, indices_by_class, Oversampler};
use eos_neighbors::{BruteForceKnn, Metric};
use eos_tensor::{Rng64, Tensor};

/// Like SMOTE, but bases interpolation only on *borderline* minority
/// samples — those whose `m`-neighbourhood in the full dataset contains
/// other-class members (at least half but not all). Samples whose entire
/// neighbourhood is enemy-class are treated as noise and skipped.
pub struct BorderlineSmote {
    /// Neighbourhood size for the DANGER test.
    pub m: usize,
    /// Neighbourhood size for intra-class interpolation.
    pub k: usize,
}

impl BorderlineSmote {
    /// Borderline-SMOTE with danger neighbourhood `m` and interpolation
    /// neighbourhood `k`.
    pub fn new(m: usize, k: usize) -> Self {
        assert!(m >= 1 && k >= 1);
        BorderlineSmote { m, k }
    }

    /// Indices (within the class's own row list) of DANGER samples:
    /// `m/2 <= enemies < m`, with neighbourhoods taken in `index`, the
    /// index over the full dataset.
    fn danger_set(
        &self,
        index: &BruteForceKnn,
        y: &[usize],
        class: usize,
        class_rows: &[usize],
    ) -> Vec<usize> {
        // One neighbourhood scan per class member, fanned out in parallel;
        // the DANGER filter itself is order-preserving and serial.
        let hits_per_row = index.query_rows_batch(class_rows, self.m);
        eos_trace::count!("resample.neighbor_queries", class_rows.len() as u64);
        let mut danger = Vec::new();
        for (local, hits) in hits_per_row.iter().enumerate() {
            let enemies = hits.iter().filter(|h| y[h.index] != class).count();
            if enemies * 2 >= hits.len() && enemies < hits.len() {
                danger.push(local);
            }
        }
        danger
    }
}

impl Oversampler for BorderlineSmote {
    fn name(&self) -> &'static str {
        "B-SMOTE"
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
        let index = BruteForceKnn::new(x, Metric::Euclidean);
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
            let danger = self.danger_set(&index, y, class, &idx[class]);
            // Fall back to plain SMOTE when no borderline samples exist.
            let pool: Vec<usize> = if danger.is_empty() {
                (0..class_rows.dim(0)).collect()
            } else {
                danger
            };
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

    /// Majority cluster at 0, minority split into a safe clump far from
    /// the majority and one borderline point adjacent to it.
    fn borderline_scene() -> (Tensor, Vec<usize>) {
        let mut v = Vec::new();
        let mut y = Vec::new();
        for i in 0..10 {
            v.extend_from_slice(&[i as f32 * 0.05, 0.0]);
            y.push(0);
        }
        // Safe minority clump at (10, 10).
        for i in 0..3 {
            v.extend_from_slice(&[10.0 + i as f32 * 0.05, 10.0]);
            y.push(1);
        }
        // Borderline minority point right next to the majority cluster.
        v.extend_from_slice(&[0.5, 0.1]);
        y.push(1);
        (Tensor::from_vec(v, &[14, 2]), y)
    }

    #[test]
    fn bases_generation_on_borderline_points() {
        let (x, y) = borderline_scene();
        let (sx, sy) = BorderlineSmote::new(5, 3).oversample(&x, &y, 2, &mut Rng64::new(2));
        assert_eq!(sy.len(), 6);
        // Every synthetic sample lies on a segment from the borderline
        // point (0.5, 0.1) toward some minority neighbour, so its x-coord
        // is <= 10.05 and its y-coord is between 0.1 and 10.
        for i in 0..sx.dim(0) {
            let r = sx.row_slice(i);
            assert!(r[1] >= 0.1 - 1e-5, "row {i}: {r:?}");
            // At least some samples must leave the safe clump — they start
            // at the borderline base.
        }
        // All segments start at the single DANGER point, so every sample
        // is a convex combination involving (0.5, 0.1): no sample can have
        // both coordinates inside the safe clump unless r = 1 exactly.
        let clump_only =
            (0..sx.dim(0)).all(|i| sx.row_slice(i)[0] > 9.9 && sx.row_slice(i)[1] > 9.9);
        assert!(!clump_only, "generation ignored the borderline base");
    }

    #[test]
    fn falls_back_to_smote_when_no_danger() {
        // Minority far from majority: no DANGER samples.
        let x = Tensor::from_vec(
            vec![0.0, 0.0, 0.1, 0.0, 0.2, 0.0, 100.0, 0.0, 100.1, 0.0],
            &[5, 2],
        );
        let y = vec![0, 0, 0, 1, 1];
        let (sx, sy) = BorderlineSmote::new(3, 2).oversample(&x, &y, 2, &mut Rng64::new(0));
        assert_eq!(sy.len(), 1);
        assert!(sx.row_slice(0)[0] >= 100.0 - 1e-4);
    }

    #[test]
    fn balances_counts() {
        let (x, y) = borderline_scene();
        let (_, by) = balance_with(&BorderlineSmote::new(5, 3), &x, &y, 2, &mut Rng64::new(1));
        assert_eq!(class_counts(&by, 2), vec![10, 10]);
    }
}
