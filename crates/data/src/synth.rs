//! Synthetic imbalanced image generators.
//!
//! Each class is a mixture of `subconcepts` smooth prototype textures.
//! Prototypes blend a class-private texture with a texture *shared with a
//! neighbouring class*, producing the majority/minority sub-concept overlap
//! the imbalanced-learning literature identifies as the hard case (and
//! which the paper's auto-vs-truck Figure 6 visualises). Train and test
//! sets are drawn i.i.d. from the same class distributions, so a sparsely
//! sampled minority class exhibits exactly the train/test footprint gap
//! Algorithm 1 measures.

use crate::dataset::Dataset;
use crate::imbalance::exponential_profile;
use eos_tensor::{Rng64, Tensor};

/// Names of the four dataset analogues, in the paper's order.
pub const DATASET_NAMES: [&str; 4] = ["cifar10", "svhn", "cifar100", "celeba"];

/// Specification of a synthetic imbalanced image dataset.
#[derive(Debug, Clone)]
pub struct SynthSpec {
    /// Dataset analogue name (appears in experiment output).
    pub name: &'static str,
    /// Number of classes.
    pub classes: usize,
    /// Image shape `(C, H, W)`.
    pub shape: (usize, usize, usize),
    /// Training samples for the largest class.
    pub n_max_train: usize,
    /// Exponential imbalance ratio (largest : smallest).
    pub imbalance_ratio: f64,
    /// Test samples per class (test set is balanced, as in the paper).
    pub n_test_per_class: usize,
    /// Prototype textures per class.
    pub subconcepts: usize,
    /// Blend weight of the texture shared with the neighbouring class
    /// (0 = fully separated classes, 1 = indistinguishable).
    pub overlap: f32,
    /// Instance noise standard deviation.
    pub noise: f32,
}

impl SynthSpec {
    /// CIFAR-10 analogue: 10 classes, exponential 100:1 (paper §IV-A).
    pub fn cifar10_like(scale: usize) -> Self {
        SynthSpec {
            name: "cifar10",
            classes: 10,
            shape: (3, 8, 8),
            n_max_train: 600 * scale,
            imbalance_ratio: 100.0,
            n_test_per_class: 100 * scale,
            subconcepts: 2,
            overlap: 0.50,
            noise: 0.25,
        }
    }

    /// SVHN analogue: 10 classes, 100:1, simpler single-concept classes
    /// with heavier pixel noise (street-number crops are low-structure).
    pub fn svhn_like(scale: usize) -> Self {
        SynthSpec {
            name: "svhn",
            classes: 10,
            shape: (3, 8, 8),
            n_max_train: 600 * scale,
            imbalance_ratio: 100.0,
            n_test_per_class: 100 * scale,
            subconcepts: 1,
            overlap: 0.45,
            noise: 0.30,
        }
    }

    /// CIFAR-100 analogue: many classes at 10:1. The paper uses 100
    /// classes; the reproduction uses 20 to stay CPU-trainable while
    /// preserving the many-class / few-samples-per-class regime (the
    /// property Table III's CGAN-cost argument needs).
    fn cifar100_like(scale: usize) -> Self {
        SynthSpec {
            name: "cifar100",
            classes: 20,
            shape: (3, 8, 8),
            n_max_train: 120 * scale,
            imbalance_ratio: 10.0,
            n_test_per_class: 50 * scale,
            subconcepts: 1,
            overlap: 0.62,
            noise: 0.25,
        }
    }

    /// CelebA hair-style analogue: 5 classes at 40:1 (paper §IV-A).
    pub fn celeba_like(scale: usize) -> Self {
        SynthSpec {
            name: "celeba",
            classes: 5,
            shape: (3, 8, 8),
            n_max_train: 400 * scale,
            imbalance_ratio: 40.0,
            n_test_per_class: 150 * scale,
            subconcepts: 2,
            overlap: 0.50,
            noise: 0.25,
        }
    }

    /// Builds the analogue with the given paper-dataset name.
    pub fn by_name(name: &str, scale: usize) -> Self {
        match name {
            "cifar10" => Self::cifar10_like(scale),
            "svhn" => Self::svhn_like(scale),
            "cifar100" => Self::cifar100_like(scale),
            "celeba" => Self::celeba_like(scale),
            other => panic!("unknown dataset analogue '{other}'"),
        }
    }

    /// The per-class training counts this spec produces.
    pub fn train_profile(&self) -> Vec<usize> {
        exponential_profile(self.n_max_train, self.imbalance_ratio, self.classes)
    }

    /// Generates `(train, test)`: exponentially imbalanced train set and a
    /// balanced test set, both i.i.d. from the class distributions.
    pub fn generate(&self, seed: u64) -> (Dataset, Dataset) {
        let mut rng = Rng64::new(seed ^ 0x5EED_DA7A);
        let protos = self.prototypes(&mut rng);
        let profile = self.train_profile();
        let mut sample_rng = rng.fork();
        let train = self.sample_set(&protos, &profile, &mut sample_rng);
        let test_profile = vec![self.n_test_per_class; self.classes];
        let test = self.sample_set(&protos, &test_profile, &mut sample_rng);
        (train, test)
    }

    /// Per-class, per-subconcept prototype textures.
    fn prototypes(&self, rng: &mut Rng64) -> Vec<Vec<Vec<f32>>> {
        let shared: Vec<Vec<f32>> = (0..self.classes)
            .map(|_| smooth_texture(self.shape, rng))
            .collect();
        (0..self.classes)
            .map(|class| {
                // Each class shares a component with its pair neighbour
                // (class 2k and 2k+1 blend the same shared texture), the
                // auto/truck-style overlap.
                let shared_tex = &shared[class / 2 % shared.len()];
                (0..self.subconcepts)
                    .map(|_| {
                        let own = smooth_texture(self.shape, rng);
                        own.iter()
                            .zip(shared_tex)
                            .map(|(&o, &s)| (1.0 - self.overlap) * o + self.overlap * s)
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }

    fn sample_set(&self, protos: &[Vec<Vec<f32>>], profile: &[usize], rng: &mut Rng64) -> Dataset {
        let width = self.shape.0 * self.shape.1 * self.shape.2;
        let total: usize = profile.iter().sum();
        let mut data = Vec::with_capacity(total * width);
        let mut labels = Vec::with_capacity(total);
        for (class, &n) in profile.iter().enumerate() {
            for _ in 0..n {
                let proto = rng.choose(&protos[class]);
                let brightness = rng.normal_f32(0.0, 0.5 * self.noise);
                for &p in proto {
                    let v = p + rng.normal_f32(0.0, self.noise) + brightness;
                    data.push(v.clamp(0.0, 1.0));
                }
                labels.push(class);
            }
        }
        Dataset::new(
            Tensor::from_vec(data, &[total, width]),
            labels,
            self.shape,
            self.classes,
        )
    }
}

/// A smooth random texture in `[0,1]`: a low-resolution random grid
/// bilinearly upsampled per channel, plus a per-channel colour bias.
fn smooth_texture(shape: (usize, usize, usize), rng: &mut Rng64) -> Vec<f32> {
    const GRID: usize = 4;
    let (c, h, w) = shape;
    let mut out = Vec::with_capacity(c * h * w);
    for _ in 0..c {
        let bias = rng.range_f32(0.25, 0.75);
        let grid: Vec<f32> = (0..GRID * GRID).map(|_| rng.range_f32(-0.3, 0.3)).collect();
        for y in 0..h {
            for x in 0..w {
                // Bilinear sample of the coarse grid.
                let gy = y as f32 / h as f32 * (GRID - 1) as f32;
                let gx = x as f32 / w as f32 * (GRID - 1) as f32;
                let (y0, x0) = (gy as usize, gx as usize);
                let (y1, x1) = ((y0 + 1).min(GRID - 1), (x0 + 1).min(GRID - 1));
                let (fy, fx) = (gy - y0 as f32, gx - x0 as f32);
                let v = grid[y0 * GRID + x0] * (1.0 - fy) * (1.0 - fx)
                    + grid[y0 * GRID + x1] * (1.0 - fy) * fx
                    + grid[y1 * GRID + x0] * fy * (1.0 - fx)
                    + grid[y1 * GRID + x1] * fy * fx;
                out.push((bias + v).clamp(0.0, 1.0));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_matches_paper_ratios() {
        let spec = SynthSpec::cifar10_like(1);
        let p = spec.train_profile();
        assert_eq!(p.len(), 10);
        let ratio = p[0] as f64 / p[9] as f64;
        assert!((80.0..=120.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn generate_is_deterministic() {
        let spec = SynthSpec::celeba_like(1);
        let (a, _) = spec.generate(3);
        let (b, _) = spec.generate(3);
        assert_eq!(a.x.data(), b.x.data());
        assert_eq!(a.y, b.y);
        let (c, _) = spec.generate(4);
        assert_ne!(a.x.data(), c.x.data());
    }

    #[test]
    fn test_set_is_balanced_train_is_not() {
        let spec = SynthSpec::cifar10_like(1);
        let (train, test) = spec.generate(0);
        let tc = test.class_counts();
        assert!(tc.iter().all(|&n| n == tc[0]), "balanced test");
        assert!(train.imbalance_ratio() > 50.0, "imbalanced train");
    }

    #[test]
    fn pixels_are_bounded() {
        let (train, test) = SynthSpec::svhn_like(1).generate(1);
        for d in [&train, &test] {
            assert!(d.x.min() >= 0.0 && d.x.max() <= 1.0);
        }
    }

    #[test]
    fn classes_are_learnable_but_overlapping() {
        // A nearest-centroid classifier should beat chance by a wide
        // margin but stay below perfect — the overlap is real.
        let spec = SynthSpec::cifar10_like(1);
        let (train, test) = spec.generate(5);
        let width = train.feature_len();
        let mut centroids = vec![vec![0.0f64; width]; spec.classes];
        let counts = train.class_counts();
        for i in 0..train.len() {
            let c = train.y[i];
            for (acc, &v) in centroids[c].iter_mut().zip(train.x.row_slice(i)) {
                *acc += v as f64;
            }
        }
        for (c, cent) in centroids.iter_mut().enumerate() {
            for v in cent.iter_mut() {
                *v /= counts[c] as f64;
            }
        }
        let mut correct = 0usize;
        for i in 0..test.len() {
            let row = test.x.row_slice(i);
            let pred = centroids
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    let da: f64 = a
                        .iter()
                        .zip(row)
                        .map(|(&c, &x)| (c - x as f64).powi(2))
                        .sum();
                    let db: f64 = b
                        .iter()
                        .zip(row)
                        .map(|(&c, &x)| (c - x as f64).powi(2))
                        .sum();
                    da.partial_cmp(&db).unwrap()
                })
                .map(|(c, _)| c)
                .unwrap();
            if pred == test.y[i] {
                correct += 1;
            }
        }
        let acc = correct as f64 / test.len() as f64;
        assert!(acc > 0.4, "centroid accuracy too low: {acc}");
        assert!(acc < 0.999, "classes must overlap: {acc}");
    }

    #[test]
    fn paired_classes_are_closer_than_unpaired() {
        // Classes 2k and 2k+1 share a texture: their centroid distance
        // should on average be below that of non-paired classes.
        let spec = SynthSpec::cifar10_like(1);
        let (train, _) = spec.generate(9);
        let width = train.feature_len();
        let counts = train.class_counts();
        let mut centroids = vec![vec![0.0f64; width]; spec.classes];
        for i in 0..train.len() {
            for (acc, &v) in centroids[train.y[i]].iter_mut().zip(train.x.row_slice(i)) {
                *acc += v as f64;
            }
        }
        for (c, cent) in centroids.iter_mut().enumerate() {
            for v in cent.iter_mut() {
                *v /= counts[c] as f64;
            }
        }
        let dist = |a: &[f64], b: &[f64]| -> f64 {
            a.iter()
                .zip(b)
                .map(|(&x, &y)| (x - y).powi(2))
                .sum::<f64>()
                .sqrt()
        };
        let mut paired = Vec::new();
        let mut unpaired = Vec::new();
        for a in 0..spec.classes {
            for b in (a + 1)..spec.classes {
                let d = dist(&centroids[a], &centroids[b]);
                if a / 2 == b / 2 {
                    paired.push(d);
                } else {
                    unpaired.push(d);
                }
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&paired) < mean(&unpaired),
            "paired {:.3} vs unpaired {:.3}",
            mean(&paired),
            mean(&unpaired)
        );
    }

    #[test]
    fn all_presets_build() {
        for name in DATASET_NAMES {
            let spec = SynthSpec::by_name(name, 1);
            let (train, test) = spec.generate(0);
            assert!(!train.is_empty() && !test.is_empty(), "{name}");
            assert_eq!(train.num_classes, spec.classes);
        }
    }

    #[test]
    #[should_panic(expected = "unknown dataset")]
    fn unknown_name_panics() {
        SynthSpec::by_name("imagenet", 1);
    }
}
