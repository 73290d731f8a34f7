//! Distance metrics.

/// Distance metric of the neighbour index.
///
/// The paper's generalization gap uses Manhattan distance on embedding
/// ranges; the oversamplers use Euclidean neighbourhoods.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// L2 distance.
    Euclidean,
    /// L1 distance.
    Manhattan,
}

impl Metric {
    /// Distance between two equal-length points.
    pub fn distance(self, a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        match self {
            Metric::Euclidean => a
                .iter()
                .zip(b)
                .map(|(&x, &y)| (x - y) * (x - y))
                .sum::<f32>()
                .sqrt(),
            Metric::Manhattan => a.iter().zip(b).map(|(&x, &y)| (x - y).abs()).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_345() {
        assert_eq!(Metric::Euclidean.distance(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
    }

    #[test]
    fn manhattan_sums_axes() {
        assert_eq!(Metric::Manhattan.distance(&[0.0, 0.0], &[3.0, 4.0]), 7.0);
    }

    #[test]
    fn zero_distance_to_self() {
        for m in [Metric::Euclidean, Metric::Manhattan] {
            assert_eq!(m.distance(&[1.0, -2.0], &[1.0, -2.0]), 0.0);
        }
    }
}
