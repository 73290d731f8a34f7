//! Shared experiment plumbing: dataset preparation and the standard
//! oversampler line-ups.

use eos_core::Scale;
use eos_data::{Dataset, SynthSpec};
use eos_resample::{BalancedSvm, BorderlineSmote, Oversampler, Smote};

/// Generates and standardises a dataset analogue: train statistics are
/// applied to both splits, matching the paper's normalised-input setup.
pub fn prepared_dataset(name: &str, scale: Scale, seed: u64) -> (Dataset, Dataset) {
    let mut spec = SynthSpec::by_name(name, scale.data_scale());
    if scale == Scale::Smoke {
        // Smoke gates must exercise every code path in seconds: shrink the
        // per-class budget and flatten extreme imbalance so even the rare
        // classes keep a handful of samples.
        spec.n_max_train = (spec.n_max_train / 8).max(40);
        spec.imbalance_ratio = spec.imbalance_ratio.min(10.0);
        spec.n_test_per_class = (spec.n_test_per_class / 5).max(20);
    }
    let (mut train, mut test) = spec.generate(seed);
    let (mean, std) = train.feature_stats();
    train.standardize(&mean, &std);
    test.standardize(&mean, &std);
    (train, test)
}

/// The three classical oversamplers used across Tables I and II, in the
/// paper's column order.
pub fn samplers_for_table2() -> Vec<Box<dyn Oversampler>> {
    vec![
        Box::new(Smote::new(5)),
        Box::new(BorderlineSmote::new(5, 5)),
        Box::new(BalancedSvm::new(5)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepared_dataset_is_standardized() {
        let (train, test) = prepared_dataset("celeba", Scale::Small, 0);
        let mean = train.x.mean_rows();
        assert!(mean.data().iter().all(|m| m.abs() < 1e-4));
        assert_eq!(train.shape, test.shape);
    }

    #[test]
    fn sampler_lineup_order() {
        let s = samplers_for_table2();
        let names: Vec<&str> = s.iter().map(|x| x.name()).collect();
        assert_eq!(names, vec!["SMOTE", "B-SMOTE", "Bal-SVM"]);
    }
}
