//! `AutoIndex`'s brute-force counters: one dispatch record per call, named
//! after the distance kernel that ran, and the scan's own counts of the
//! rows its exact pass re-scored and the exact distances that took.
//! Tracing is process-global, so this binary holds a single test.

use eos_neighbors::{AutoIndex, KnnKernel, Metric, NnIndex, TREE_MAX_DIM};
use eos_tensor::{normal, set_force_scalar_kernel, Rng64};

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

#[test]
fn brute_calls_record_dispatch_and_distances_once_per_call() {
    let mut rng = Rng64::new(5);
    let (n, d, k) = (45, TREE_MAX_DIM + 3, 5);
    let data = normal(&[n, d], 0.0, 1.0, &mut rng);
    let queries = normal(&[11, d], 0.0, 1.0, &mut rng);
    let index = AutoIndex::new(&data, Metric::Euclidean);
    let manhattan = AutoIndex::new(&data, Metric::Manhattan);
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
    eos_trace::set_enabled(false);

    let snap = eos_trace::snapshot();
    let resolved = (rows.len() + 11 + 1 + 11 + 1) as u64;
    assert_eq!(snap.counter("neighbors.brute_queries"), resolved);
    assert!(snap.counter("neighbors.distances") < resolved * nn);
    // Four calls on the host's tier, then one forced onto the portable one.
    let calls = |t: KnnKernel| u64::from(tier == t) * 4 + u64::from(t == KnnKernel::Scalar);
    for t in [KnnKernel::Avx512, KnnKernel::Avx2, KnnKernel::Scalar] {
        let name = format!("neighbors.dispatch.{}", t.name());
        assert_eq!(snap.counter(&name), calls(t), "{name}");
    }
    assert_eq!(snap.counter("neighbors.tree_queries"), 0);
}
