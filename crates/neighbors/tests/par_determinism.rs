//! Serial-vs-parallel bit-identity for the brute-force kNN fan-out.

use eos_neighbors::{BruteForceKnn, Metric, Neighbor};
use eos_tensor::{normal, par, Rng64, Tensor};
use std::sync::Mutex;

/// `set_num_threads` is process-global; every test in this binary that
/// touches the budget must hold this lock.
static LOCK: Mutex<()> = Mutex::new(());

fn flatten(lists: &[Vec<Neighbor>]) -> Vec<(usize, u32)> {
    lists
        .iter()
        .flat_map(|l| l.iter().map(|n| (n.index, n.distance.to_bits())))
        .collect()
}

fn dataset() -> Tensor {
    let mut rng = Rng64::new(17);
    normal(&[120, 8], 0.0, 1.0, &mut rng)
}

#[test]
fn query_batch_is_bit_identical_across_thread_counts() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let restore = par::num_threads();
    let data = dataset();
    let index = BruteForceKnn::new(&data, Metric::Euclidean);
    let mut rng = Rng64::new(23);
    let queries = normal(&[40, 8], 0.0, 1.0, &mut rng);

    par::set_num_threads(1);
    let reference = flatten(&index.query_batch(&queries, 5));
    for threads in [2usize, 4, 8] {
        par::set_num_threads(threads);
        assert_eq!(
            flatten(&index.query_batch(&queries, 5)),
            reference,
            "query_batch diverged at {threads} threads"
        );
    }
    par::set_num_threads(restore);
}

#[test]
fn query_rows_batch_is_bit_identical_across_thread_counts() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let restore = par::num_threads();
    let data = dataset();
    let index = BruteForceKnn::new(&data, Metric::Euclidean);
    let rows: Vec<usize> = (0..120).step_by(3).collect();

    par::set_num_threads(1);
    let reference = flatten(&index.query_rows_batch(&rows, 7));
    for threads in [2usize, 4, 8] {
        par::set_num_threads(threads);
        assert_eq!(
            flatten(&index.query_rows_batch(&rows, 7)),
            reference,
            "query_rows_batch diverged at {threads} threads"
        );
    }
    par::set_num_threads(restore);
}

#[test]
fn batch_fanout_agrees_with_single_queries_under_the_pool() {
    // The fan-out must not only be self-consistent: each parallel result
    // must equal the corresponding single (serial) query exactly.
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let restore = par::num_threads();
    par::set_num_threads(4);
    let data = dataset();
    let index = BruteForceKnn::new(&data, Metric::Euclidean);
    let mut rng = Rng64::new(29);
    let queries = normal(&[25, 8], 0.0, 1.0, &mut rng);
    let batch = index.query_batch(&queries, 6);
    for (i, hits) in batch.iter().enumerate() {
        assert_eq!(
            *hits,
            index.query(queries.row_slice(i), 6),
            "query {i} disagrees with the serial scan"
        );
    }
    par::set_num_threads(restore);
}
