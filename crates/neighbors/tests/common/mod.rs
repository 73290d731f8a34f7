//! The naive oracle the index is checked against.

use eos_neighbors::{Metric, Neighbor};
use eos_tensor::Tensor;

/// A list as `(row, distance bits)` pairs.
pub type Hits = Vec<(usize, u32)>;

pub fn bits(hits: &[Neighbor]) -> Hits {
    hits.iter()
        .map(|n| (n.index, n.distance.to_bits()))
        .collect()
}

/// Every candidate's `Metric::distance`, sorted by `(distance, index)`,
/// cut to `k`; `skip` leaves one row out, as a self-excluding query does.
pub fn reference(
    data: &Tensor,
    metric: Metric,
    point: &[f32],
    k: usize,
    skip: Option<usize>,
) -> Hits {
    let mut all: Vec<(f32, usize)> = (0..data.dim(0))
        .filter(|&i| skip != Some(i))
        .map(|i| (metric.distance(point, data.row_slice(i)), i))
        .collect();
    all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    all.into_iter()
        .take(k)
        .map(|(d, i)| (i, d.to_bits()))
        .collect()
}
