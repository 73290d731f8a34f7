//! `BruteForceKnn`'s counters: the queries each call resolves, one
//! dispatch record per call, named after the distance kernel that ran, and
//! the counts of the rows the exact pass re-scored and the exact distances
//! that took, pinned on one class-ordered input. Tracing is process-global,
//! so this binary holds a single test.

use eos_neighbors::{BruteForceKnn, KnnKernel, Metric};
use eos_tensor::{normal, set_force_scalar_kernel, Rng64, Tensor};

/// The `neighbors.filter.candidates` and `neighbors.distances` counts that
/// `run` adds.
fn rescored(run: impl FnOnce()) -> (u64, u64) {
    let before = eos_trace::snapshot();
    run();
    let after = eos_trace::snapshot();
    let delta = |name: &str| after.counter(name) - before.counter(name);
    (
        delta("neighbors.filter.candidates"),
        delta("neighbors.distances"),
    )
}

/// The counts `rescored` gives for self-excluded queries over the last
/// three of six classes of a seeded set whose rows are clustered by class
/// and ordered by it, so every query's neighbours come last in the scan.
fn class_ordered_counts() -> [(u64, u64); 2] {
    let mut rng = Rng64::new(21);
    let (n, d) = (240, 24);
    let v: Vec<f32> = (0..n * d)
        .map(|i| 6.0 * (i / d * 6 / n) as f32 + rng.normal_f32(0.0, 1.0))
        .collect();
    let index = BruteForceKnn::new(&Tensor::from_vec(v, &[n, d]), Metric::Euclidean);
    let rows: Vec<usize> = (n / 2..n).collect();
    [10, 20].map(|k| {
        rescored(|| {
            index.query_rows_batch(&rows, k);
        })
    })
}

#[test]
fn brute_calls_record_dispatch_and_distances_once_per_call() {
    let mut rng = Rng64::new(5);
    let (n, d, k) = (45, 5, 5);
    let data = normal(&[n, d], 0.0, 1.0, &mut rng);
    let queries = normal(&[11, d], 0.0, 1.0, &mut rng);
    let index = BruteForceKnn::new(&data, Metric::Euclidean);
    let manhattan = BruteForceKnn::new(&data, Metric::Manhattan);
    let rows: Vec<usize> = (0..n).step_by(2).collect();
    let nn = n as u64;

    let untraced = index.query_rows_batch(&rows, k);
    eos_trace::reset();
    eos_trace::set_enabled(true);
    let tier = KnnKernel::current();
    // Euclidean: the filter re-scores some rows, never fewer than k per
    // query block and never more than the whole index.
    let (cand, dist) = rescored(|| assert_eq!(index.query_rows_batch(&rows, k), untraced));
    assert!((2 * k as u64..=2 * nn).contains(&cand), "{cand}");
    assert!(dist <= rows.len() as u64 * cand, "{dist} vs {cand}");
    index.query_batch(&queries, k);
    // A lone query is one lane: one exact distance per re-scored row,
    // and the filter leaves out most of the 45.
    let (cand, dist) = rescored(|| {
        index.query(queries.row_slice(0), k);
    });
    assert_eq!(dist, cand);
    assert!((k as u64..nn).contains(&cand), "{cand}");
    // Manhattan runs no filter: every row of every block is re-scored.
    let (cand, dist) = rescored(|| {
        manhattan.query_batch(&queries, k);
    });
    assert_eq!((cand, dist), (nn, 11 * nn));
    set_force_scalar_kernel(true);
    let (cand, dist) = rescored(|| {
        index.query_row(3, k);
    });
    assert_eq!(dist, cand);
    set_force_scalar_kernel(false);
    let ordered = class_ordered_counts();
    eos_trace::set_enabled(false);

    // The candidate set is `{(row, lane) : a ≤ τ_l}`, which depends only
    // on the approximate values: pinned on a fixed input, for the
    // selection network (k = 10) and the per-lane select (k = 20).
    assert_eq!(ordered, [(317, 4800), (352, 5312)]);

    let snap = eos_trace::snapshot();
    let resolved = (rows.len() + 11 + 1 + 11 + 1 + 2 * 120) as u64;
    assert_eq!(snap.counter("neighbors.brute_queries"), resolved);
    assert!(snap.counter("neighbors.distances") < resolved * nn);
    // Six calls on the host's tier and one forced onto the portable one.
    let calls = |t: KnnKernel| u64::from(tier == t) * 6 + u64::from(t == KnnKernel::Scalar);
    for t in [KnnKernel::Avx512, KnnKernel::Avx2, KnnKernel::Scalar] {
        let name = format!("neighbors.dispatch.{}", t.name());
        assert_eq!(snap.counter(&name), calls(t), "{name}");
    }
}
