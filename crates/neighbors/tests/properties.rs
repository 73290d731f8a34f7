//! Property-style tests: the index against the naive oracle at one to
//! four dimensions, and general k-NN contracts, via deterministic
//! seeded-RNG loops; then fixed examples of the scan's contract.

mod common;

use common::{bits, reference};
use eos_neighbors::{BruteForceKnn, Metric};
use eos_tensor::{Rng64, Tensor};

const CASES: u64 = 32;

fn random_points(rng: &mut Rng64) -> Tensor {
    let n = 4 + rng.below(56);
    let d = 1 + rng.below(4);
    let v: Vec<f32> = (0..n * d).map(|_| rng.range_f32(-5.0, 5.0)).collect();
    Tensor::from_vec(v, &[n, d])
}

#[test]
fn low_dimensional_queries_match_reference() {
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed);
        let data = random_points(&mut rng);
        let k = 1 + rng.below(7);
        for metric in [Metric::Euclidean, Metric::Manhattan] {
            let index = BruteForceKnn::new(&data, metric);
            let q: Vec<f32> = (0..data.dim(1)).map(|_| rng.range_f32(-6.0, 6.0)).collect();
            let want = reference(&data, metric, &q, k, None);
            assert_eq!(bits(&index.query(&q, k)), want, "seed {seed}, {metric:?}");
            let row = rng.below(data.dim(0));
            let want = reference(&data, metric, data.row_slice(row), k, Some(row));
            assert_eq!(
                bits(&index.query_row(row, k)),
                want,
                "seed {seed}, {metric:?}"
            );
        }
    }
}

#[test]
fn distances_are_sorted_and_self_excluded() {
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed);
        let data = random_points(&mut rng);
        let k = 1 + rng.below(7);
        let index = BruteForceKnn::new(&data, Metric::Euclidean);
        for row in 0..data.dim(0).min(5) {
            let hits = index.query_row(row, k);
            assert!(hits.iter().all(|h| h.index != row));
            for pair in hits.windows(2) {
                assert!(pair[0].distance <= pair[1].distance);
            }
        }
    }
}

#[test]
fn batch_queries_match_single_queries() {
    // The parallel fan-out paths must return exactly what a query-at-a-time
    // loop returns.
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed);
        let data = random_points(&mut rng);
        let k = 1 + rng.below(7);
        let index = BruteForceKnn::new(&data, Metric::Euclidean);
        let rows: Vec<usize> = (0..data.dim(0)).collect();
        let batch = index.query_rows_batch(&rows, k);
        for (&row, hits) in rows.iter().zip(&batch) {
            assert_eq!(hits, &index.query_row(row, k));
        }
        let batch = index.query_batch(&data, k);
        for (i, hits) in batch.iter().enumerate() {
            assert_eq!(hits, &index.query(data.row_slice(i), k));
        }
    }
}

#[test]
fn query_of_indexed_point_returns_it_first() {
    for seed in 0..CASES {
        let data = random_points(&mut Rng64::new(seed));
        let index = BruteForceKnn::new(&data, Metric::Euclidean);
        let hits = index.query(data.row_slice(0), 1);
        assert_eq!((hits[0].index, hits[0].distance), (0, 0.0));
    }
}

#[test]
fn triangle_inequality_holds() {
    // Sanity on the metric implementations themselves.
    for seed in 0..CASES {
        let data = random_points(&mut Rng64::new(seed));
        let n = data.dim(0).min(4);
        for m in [Metric::Euclidean, Metric::Manhattan] {
            for i in 0..n {
                for j in 0..n {
                    for l in 0..n {
                        let dij = m.distance(data.row_slice(i), data.row_slice(j));
                        let djl = m.distance(data.row_slice(j), data.row_slice(l));
                        let dil = m.distance(data.row_slice(i), data.row_slice(l));
                        assert!(dil <= dij + djl + 1e-4);
                    }
                }
            }
        }
    }
}

#[test]
fn results_sorted_ascending() {
    let data = Tensor::from_vec(vec![5.0, 1.0, 3.0, 0.0], &[4, 1]);
    let index = BruteForceKnn::new(&data, Metric::Euclidean);
    let hits = index.query(&[0.0], 4);
    let d: Vec<f32> = hits.iter().map(|h| h.distance).collect();
    assert_eq!(d, vec![0.0, 1.0, 3.0, 5.0]);
    assert_eq!(hits[0].index, 3);
}

#[test]
fn k_zero_is_empty() {
    let data = Tensor::from_vec(vec![1.0], &[1, 1]);
    let index = BruteForceKnn::new(&data, Metric::Euclidean);
    assert!(index.query(&[0.0], 0).is_empty());
}

#[test]
fn ties_broken_by_index() {
    let data = Tensor::from_vec(vec![1.0, -1.0, 1.0], &[3, 1]);
    let index = BruteForceKnn::new(&data, Metric::Euclidean);
    let hits = index.query(&[0.0], 3);
    assert_eq!(hits[0].index, 0, "equal distances ordered by row");
    assert_eq!(hits[1].index, 1);
    assert_eq!(hits[2].index, 2);
}

#[test]
#[should_panic(expected = "dimension mismatch")]
fn rejects_wrong_dimension() {
    let data = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]);
    BruteForceKnn::new(&data, Metric::Euclidean).query(&[0.0], 1);
}
