//! `AutoIndex`'s brute-force counters: one dispatch record per call, named
//! after the distance kernel that ran, and the candidate distances the
//! call computed. Tracing is process-global, so this binary holds a single
//! test.

use eos_neighbors::{AutoIndex, KnnKernel, Metric, NnIndex, TREE_MAX_DIM};
use eos_tensor::{normal, set_force_scalar_kernel, Rng64};

#[test]
fn brute_calls_record_dispatch_and_distances_once_per_call() {
    let mut rng = Rng64::new(5);
    let (n, d) = (45, TREE_MAX_DIM + 3);
    let data = normal(&[n, d], 0.0, 1.0, &mut rng);
    let queries = normal(&[11, d], 0.0, 1.0, &mut rng);
    let index = AutoIndex::new(&data, Metric::Euclidean);
    let rows: Vec<usize> = (0..n).step_by(2).collect();

    let untraced = index.query_rows_batch(&rows, 5);
    eos_trace::reset();
    eos_trace::set_enabled(true);
    let tier = KnnKernel::current();
    assert_eq!(index.query_rows_batch(&rows, 5), untraced);
    index.query_batch(&queries, 5);
    index.query(queries.row_slice(0), 5);
    set_force_scalar_kernel(true);
    index.query_row(3, 5);
    set_force_scalar_kernel(false);
    eos_trace::set_enabled(false);

    let snap = eos_trace::snapshot();
    let resolved = (rows.len() + 11 + 1 + 1) as u64;
    assert_eq!(snap.counter("neighbors.brute_queries"), resolved);
    assert_eq!(snap.counter("neighbors.distances"), resolved * n as u64);
    // Three calls on the host's tier, then one forced onto the portable one.
    let calls = |t: KnnKernel| u64::from(tier == t) * 3 + u64::from(t == KnnKernel::Scalar);
    for t in [KnnKernel::Avx512, KnnKernel::Avx2, KnnKernel::Scalar] {
        let name = format!("neighbors.dispatch.{}", t.name());
        assert_eq!(snap.counter(&name), calls(t), "{name}");
    }
    assert_eq!(snap.counter("neighbors.tree_queries"), 0);
}
