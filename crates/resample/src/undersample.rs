//! Random undersampling — the other half of the resampling family the
//! paper's related work surveys (§II-A: "resampling generally involves
//! under-sampling majority classes or over-sampling minority classes").

use crate::indices_by_class;
use eos_tensor::{Rng64, Tensor};

/// Randomly discards majority samples until every class matches the
/// smallest class (or `target` if given). Returns the reduced set; unlike
/// the [`crate::Oversampler`] family this shrinks the data, so it exposes
/// its own entry point instead of the append-style trait.
pub struct RandomUndersampler {
    /// Per-class target size; `None` means the smallest class's size.
    pub target: Option<usize>,
}

impl RandomUndersampler {
    /// Undersample all classes to the minority size.
    pub fn to_minority() -> Self {
        RandomUndersampler { target: None }
    }

    /// Returns the balanced subset `(x, y)`.
    pub fn undersample(
        &self,
        x: &Tensor,
        y: &[usize],
        num_classes: usize,
        rng: &mut Rng64,
    ) -> (Tensor, Vec<usize>) {
        assert_eq!(x.dim(0), y.len());
        let by_class = indices_by_class(y, num_classes);
        let min = by_class
            .iter()
            .filter(|v| !v.is_empty())
            .map(|v| v.len())
            .min()
            .expect("no classes present");
        let target = self.target.unwrap_or(min);
        let mut keep = Vec::new();
        for idx in &by_class {
            if idx.len() <= target {
                keep.extend_from_slice(idx);
            } else {
                let mut pool = idx.clone();
                rng.shuffle(&mut pool);
                keep.extend_from_slice(&pool[..target]);
            }
        }
        keep.sort_unstable();
        let labels = keep.iter().map(|&i| y[i]).collect();
        (x.select_rows(&keep), labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class_counts;

    #[test]
    fn balances_down_to_minority() {
        let x = Tensor::from_vec((0..10).map(|i| i as f32).collect(), &[10, 1]);
        let y = vec![0, 0, 0, 0, 0, 0, 1, 1, 1, 2];
        let (bx, by) = RandomUndersampler::to_minority().undersample(&x, &y, 3, &mut Rng64::new(0));
        assert_eq!(class_counts(&by, 3), vec![1, 1, 1]);
        assert_eq!(bx.dim(0), 3);
    }

    #[test]
    fn explicit_target_caps_classes() {
        let x = Tensor::from_vec((0..10).map(|i| i as f32).collect(), &[10, 1]);
        let y = vec![0, 0, 0, 0, 0, 0, 1, 1, 1, 2];
        let capped = RandomUndersampler { target: Some(2) };
        let (_, by) = capped.undersample(&x, &y, 3, &mut Rng64::new(0));
        assert_eq!(class_counts(&by, 3), vec![2, 2, 1]);
    }

    #[test]
    fn kept_rows_are_originals() {
        let x = Tensor::from_vec((0..6).map(|i| i as f32 * 10.0).collect(), &[6, 1]);
        let y = vec![0, 0, 0, 0, 1, 1];
        let (bx, by) = RandomUndersampler::to_minority().undersample(&x, &y, 2, &mut Rng64::new(1));
        for i in 0..bx.dim(0) {
            let v = bx.row_slice(i)[0];
            assert!(v % 10.0 == 0.0 && v <= 50.0, "row {v} not original");
        }
        assert_eq!(by.len(), 4);
    }
}
