//! Expansive Over-Sampling (paper Algorithm 2).
//!
//! EOS finds minority samples whose K-neighbourhood contains *enemy*
//! (other-class) examples, and synthesises new minority samples on the
//! segment between such a base sample and one of its nearest enemies.
//! Because the interpolation partner is an enemy rather than a same-class
//! neighbour, the synthetic samples can leave the minority convex hull and
//! expand the class's embedding-space footprint toward the decision
//! boundary — which is what closes the generalization gap.

use eos_neighbors::{BruteForceKnn, Metric, Neighbor};
use eos_resample::{deficient_class_neighbors, deficits, indices_by_class, Oversampler, Smote};
use eos_tensor::{Rng64, Tensor};

/// Which way the synthetic sample moves from the base.
///
/// The paper is ambiguous: the Algorithm 2 pseudocode reads
/// `samples ← B + R·(B − N)` (extrapolation **away** from the nearest
/// enemy) while the prose describes "convex combinations between the
/// minority class samples and their nearest adversaries" and expansion
/// "in the direction of the neighboring majority classes"
/// ([`Direction::TowardEnemy`], `b + r·(n − b)`).
///
/// We default to `TowardEnemy` with the interpolation coefficient capped
/// at `r ≤ 0.5` ([`Eos::new`]): across our calibration sweeps this is the
/// only variant that reproduces the paper's reported ordering (EOS above
/// SMOTE by ~2 BAC points). The uncapped toward-enemy reading mislabels
/// points deep in enemy territory and loses several points; the literal
/// away-from-enemy formula is range-expanding but boundary-blind and
/// lands between the two. The `pixel_eos` bench carries the ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Direction {
    /// `b + r·(n − b)`: convex combination toward the nearest enemy.
    #[default]
    TowardEnemy,
    /// `b + r·(b − n)`: extrapolation away from the nearest enemy (the
    /// literal Algorithm 2 formula).
    AwayFromEnemy,
}

/// The EOS oversampler.
///
/// Implements [`Oversampler`], so it can slot into either phase of the
/// framework, but the paper's results place it in feature-embedding space
/// after end-to-end training (pixel-space EOS is ~7 BAC points worse,
/// §V-E3 — reproduced by the `pixel_eos` bench).
pub struct Eos {
    /// Neighbourhood size `K` used to find nearest enemies (paper default
    /// 10; Table IV sweeps up to 300).
    pub k: usize,
    /// Interpolation direction (see [`Direction`]).
    pub direction: Direction,
    /// Scale on the random interpolation coefficient: `r ~ U[0, r_scale]`
    /// (1.0 reproduces Algorithm 2's `R ∈ [0, 1]`).
    pub r_scale: f32,
}

impl Eos {
    /// EOS with neighbourhood size `k` and the calibrated defaults:
    /// toward-enemy interpolation capped at `r ≤ 0.5` (see [`Direction`]).
    pub fn new(k: usize) -> Self {
        assert!(k >= 1);
        Eos {
            k,
            direction: Direction::TowardEnemy,
            r_scale: 0.5,
        }
    }

    /// EOS with an explicit interpolation direction and the calibrated
    /// `r ≤ 0.5` cap of [`Eos::new`]. (An earlier revision reset
    /// `r_scale` to 1.0 here, so direction ablations silently also
    /// un-capped `r` and measured two changes at once.)
    pub fn with_direction(k: usize, direction: Direction) -> Self {
        Eos {
            direction,
            ..Self::new(k)
        }
    }

    /// EOS with an explicit interpolation-coefficient scale:
    /// `r ~ U[0, r_scale]`. Use 1.0 for Algorithm 2's literal `R ∈ [0, 1]`.
    pub fn with_r_scale(k: usize, r_scale: f32) -> Self {
        assert!(r_scale > 0.0 && r_scale <= 1.0, "r_scale must be in (0, 1]");
        Eos {
            r_scale,
            ..Self::new(k)
        }
    }

    /// Finds, for each sample of `class`, the enemy members of its
    /// K-neighbourhood, `hits_per_row`, given in the order of
    /// `class_rows`. Returns `(base_row, enemy_rows)` pairs for samples
    /// that have at least one enemy neighbour, in member order.
    fn enemy_table(
        y: &[usize],
        class: usize,
        class_rows: &[usize],
        hits_per_row: &[Vec<Neighbor>],
    ) -> Vec<(usize, Vec<usize>)> {
        let mut table = Vec::new();
        for (&row, hits) in class_rows.iter().zip(hits_per_row) {
            let enemies: Vec<usize> = hits
                .iter()
                .filter(|h| y[h.index] != class)
                .map(|h| h.index)
                .collect();
            if !enemies.is_empty() {
                table.push((row, enemies));
            }
        }
        table
    }
}

impl Oversampler for Eos {
    fn name(&self) -> &'static str {
        "EOS"
    }

    fn oversample(
        &self,
        x: &Tensor,
        y: &[usize],
        num_classes: usize,
        rng: &mut Rng64,
    ) -> (Tensor, Vec<usize>) {
        assert_eq!(x.dim(0), y.len());
        let _span = eos_trace::span("eos.oversample");
        let needs = deficits(y, num_classes);
        let idx = indices_by_class(y, num_classes);
        let width = x.dim(1);
        let index = BruteForceKnn::new(x, Metric::Euclidean);
        // Every deficient class member's K-neighbourhood in one scan,
        // fanned out across the worker pool.
        let hits = deficient_class_neighbors(&index, &idx, &needs, self.k);
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
            eos_trace::count!("eos.synthetic_samples", need as u64);
            if eos_trace::enabled() {
                // Dynamic name: resolve per call (this loop runs once per
                // deficient class per oversample, never in a hot loop).
                eos_trace::counter(&format!("eos.synthetic.class{class}")).add(need as u64);
            }
            let table = Self::enemy_table(y, class, &idx[class], &hits[class]);
            eos_trace::count!("eos.borderline_bases", table.len() as u64);
            if table.is_empty() {
                // No borderline samples at all (isolated class): fall back
                // to intra-class interpolation so balancing still happens.
                let class_rows = x.select_rows(&idx[class]);
                let pool: Vec<usize> = (0..class_rows.dim(0)).collect();
                let mut buf = Vec::new();
                Smote::synthesize_for_class(&class_rows, &pool, need, self.k, rng, &mut buf);
                data.extend_from_slice(&buf);
                labels.extend(std::iter::repeat_n(class, need));
                continue;
            }
            for _ in 0..need {
                // Base uniformly among borderline samples; enemy uniformly
                // among that base's enemy neighbours (Algorithm 2's
                // uniform sampling probabilities).
                let (base, enemies) = &table[rng.below(table.len())];
                let enemy = enemies[rng.below(enemies.len())];
                let r = rng.uniform_f32() * self.r_scale;
                let b = x.row_slice(*base);
                let n = x.row_slice(enemy);
                match self.direction {
                    Direction::TowardEnemy => {
                        data.extend(b.iter().zip(n).map(|(&bv, &nv)| bv + r * (nv - bv)));
                    }
                    Direction::AwayFromEnemy => {
                        data.extend(b.iter().zip(n).map(|(&bv, &nv)| bv + r * (bv - nv)));
                    }
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
    use eos_resample::{balance_with, class_counts};
    use eos_tensor::normal;

    /// Majority blob at 0, minority blob at +4 along feature 0; the
    /// borderline region sits between them.
    fn scene(rng: &mut Rng64) -> (Tensor, Vec<usize>) {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for _ in 0..30 {
            rows.push(normal(&[4], 0.0, 0.4, rng));
            y.push(0);
        }
        for _ in 0..6 {
            let mut p = normal(&[4], 0.0, 0.4, rng);
            p.data_mut()[0] += 4.0;
            rows.push(p);
            y.push(1);
        }
        (Tensor::stack_rows(&rows), y)
    }

    #[test]
    fn toward_enemy_sits_between_minority_and_enemies() {
        let mut rng = Rng64::new(1);
        let (x, y) = scene(&mut rng);
        let (sx, sy) =
            Eos::with_direction(10, Direction::TowardEnemy).oversample(&x, &y, 2, &mut rng);
        assert_eq!(sy.len(), 24);
        assert!(sy.iter().all(|&l| l == 1));
        // Toward-enemy samples move from the minority blob (≈4) toward the
        // majority blob (≈0): feature-0 values spread below the minority
        // minimum.
        let minority_min = (30..36)
            .map(|i| x.row_slice(i)[0])
            .fold(f32::INFINITY, f32::min);
        let expanded = (0..sx.dim(0))
            .filter(|&i| sx.row_slice(i)[0] < minority_min)
            .count();
        assert!(
            expanded > sy.len() / 4,
            "toward-enemy should spread below the minority min: {expanded}/{}",
            sy.len()
        );
    }

    #[test]
    fn default_is_calibrated_toward_enemy_half_range() {
        let e = Eos::new(5);
        assert_eq!(e.direction, Direction::TowardEnemy);
        assert!((e.r_scale - 0.5).abs() < 1e-6);
    }

    #[test]
    fn every_constructor_pins_its_fields() {
        // `with_direction` must vary *only* the direction — it used to
        // reset `r_scale` to 1.0, so direction ablations also un-capped
        // `r` and measured two changes at once. `with_r_scale` is the
        // explicit opt-out.
        for dir in [Direction::TowardEnemy, Direction::AwayFromEnemy] {
            let e = Eos::with_direction(7, dir);
            assert_eq!(e.k, 7);
            assert_eq!(e.direction, dir);
            assert!((e.r_scale - 0.5).abs() < 1e-6, "calibrated cap preserved");
        }
        let e = Eos::with_r_scale(3, 1.0);
        assert_eq!(e.k, 3);
        assert_eq!(e.direction, Direction::TowardEnemy);
        assert!((e.r_scale - 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "r_scale must be in (0, 1]")]
    fn with_r_scale_rejects_zero() {
        let _ = Eos::with_r_scale(3, 0.0);
    }

    #[test]
    fn expands_minority_feature_range_unlike_smote() {
        // The paper's central mechanism (Figure 3 / §V-C): SMOTE keeps the
        // per-feature min/max fixed, EOS does not.
        let mut rng = Rng64::new(2);
        let (x, y) = scene(&mut rng);
        let minority_rows: Vec<usize> = (30..36).collect();
        let min_before = x.select_rows(&minority_rows).min_rows();
        let max_before = x.select_rows(&minority_rows).max_rows();
        let range_before: f32 = max_before.sub(&min_before).sum();

        let (ex, _) = Eos::new(10).oversample(&x, &y, 2, &mut rng);
        let all = Tensor::concat_rows(&[&x.select_rows(&minority_rows), &ex]);
        let range_eos: f32 = all.max_rows().sub(&all.min_rows()).sum();

        let (smx, _) = Smote::new(5).oversample(&x, &y, 2, &mut rng);
        let all_sm = Tensor::concat_rows(&[&x.select_rows(&minority_rows), &smx]);
        let range_smote: f32 = all_sm.max_rows().sub(&all_sm.min_rows()).sum();

        assert!(
            (range_smote - range_before).abs() < 1e-4,
            "SMOTE fixed range"
        );
        assert!(
            range_eos > range_before + 0.5,
            "EOS expands range: {range_eos} vs {range_before}"
        );
    }

    #[test]
    fn away_from_enemy_expands_the_far_side() {
        let mut rng = Rng64::new(3);
        let (x, y) = scene(&mut rng);
        let (sx, _) =
            Eos::with_direction(10, Direction::AwayFromEnemy).oversample(&x, &y, 2, &mut rng);
        // Away-from-enemy pushes feature 0 beyond the minority blob (> 4).
        let minority_max = (30..36)
            .map(|i| x.row_slice(i)[0])
            .fold(f32::NEG_INFINITY, f32::max);
        let beyond = (0..sx.dim(0))
            .filter(|&i| sx.row_slice(i)[0] > minority_max)
            .count();
        assert!(beyond > 0, "extrapolation must exceed the minority max");
    }

    #[test]
    fn balances_counts() {
        let mut rng = Rng64::new(4);
        let (x, y) = scene(&mut rng);
        let (_, by) = balance_with(&Eos::new(10), &x, &y, 2, &mut rng);
        assert_eq!(class_counts(&by, 2), vec![30, 30]);
    }

    #[test]
    fn isolated_class_falls_back_to_intra_class() {
        // Minority so far away that no K-neighbourhood contains enemies
        // within K nearest? With K >= dataset size neighbours always
        // include enemies, so use a tiny K and far separation.
        let x = Tensor::from_vec(vec![0.0, 0.1, 0.2, 0.3, 100.0, 100.1, 100.2], &[7, 1]);
        let y = vec![0, 0, 0, 0, 1, 1, 1];
        let (sx, sy) = Eos::new(2).oversample(&x, &y, 2, &mut Rng64::new(0));
        assert_eq!(sy.len(), 1);
        // Fallback interpolates inside the minority cluster.
        assert!(sx.data()[0] >= 100.0 && sx.data()[0] <= 100.2);
    }

    #[test]
    fn larger_k_reaches_more_diverse_enemies() {
        // Table IV's mechanism: with a larger K, more minority samples
        // qualify as borderline bases.
        let mut rng = Rng64::new(5);
        let (x, y) = scene(&mut rng);
        let index = BruteForceKnn::new(&x, Metric::Euclidean);
        let idx = indices_by_class(&y, 2);
        let table = |k| Eos::enemy_table(&y, 1, &idx[1], &index.query_rows_batch(&idx[1], k));
        let (small, large) = (table(3), table(30));
        assert!(large.len() >= small.len());
        let total_small: usize = small.iter().map(|(_, e)| e.len()).sum();
        let total_large: usize = large.iter().map(|(_, e)| e.len()).sum();
        assert!(total_large > total_small);
    }
}
