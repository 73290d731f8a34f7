//! Serial-vs-parallel bit-identity for the GEMM kernels.
//!
//! The execution layer promises that chunk boundaries depend only on the
//! problem shape, so the same kernel must produce the exact same f32 bit
//! patterns whatever the thread budget. These tests pin that contract at
//! 1, 2, 4 and 8 threads on problems large enough to cross the parallel
//! dispatch threshold.

use eos_tensor::{par, Rng64, Tensor};
use std::sync::Mutex;

/// `set_num_threads` is process-global; every test in this binary that
/// touches the budget must hold this lock.
static LOCK: Mutex<()> = Mutex::new(());

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Runs `f` serially, then re-runs it at 2/4/8 threads and asserts the
/// produced bit patterns never change. Restores the ambient budget.
fn assert_bit_identical(label: &str, f: impl Fn() -> Vec<u32>) {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let restore = par::num_threads();
    par::set_num_threads(1);
    let reference = f();
    for threads in [2usize, 4, 8] {
        par::set_num_threads(threads);
        assert_eq!(f(), reference, "{label} diverged at {threads} threads");
    }
    par::set_num_threads(restore);
}

fn random(dims: &[usize], seed: u64) -> Tensor {
    let mut rng = Rng64::new(seed);
    eos_tensor::normal(dims, 0.0, 1.0, &mut rng)
}

#[test]
fn matmul_is_bit_identical_across_thread_counts() {
    // 96·80·64 multiply-adds: well past the dispatch threshold.
    let a = random(&[96, 80], 1);
    let b = random(&[80, 64], 2);
    assert_bit_identical("matmul", || bits(&a.matmul(&b)));
}

#[test]
fn matmul_nt_is_bit_identical_across_thread_counts() {
    // A long reduction (k = 150) and enough rows to chunk.
    let a = random(&[96, 150], 3);
    let b = random(&[64, 150], 4);
    assert_bit_identical("matmul_nt", || bits(&a.matmul_nt(&b)));
}

#[test]
fn matmul_tn_is_bit_identical_across_thread_counts() {
    // A long reduction over the rows (m = 170).
    let a = random(&[170, 96], 5);
    let b = random(&[170, 48], 6);
    assert_bit_identical("matmul_tn", || bits(&a.matmul_tn(&b)));
}

#[test]
fn parallel_gemm_matches_the_unchunked_dot_product() {
    // Beyond self-consistency: the chunked kernel must equal a plain
    // single-accumulator dot product bit-for-bit, because the regression
    // pins were recorded against exactly that accumulation order.
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let restore = par::num_threads();
    par::set_num_threads(4);
    let a = random(&[70, 90], 9);
    let b = random(&[90, 60], 10);
    let got = a.matmul(&b);
    for i in 0..70 {
        for j in 0..60 {
            let mut acc = 0.0f32;
            for p in 0..90 {
                acc += a.at(&[i, p]) * b.at(&[p, j]);
            }
            assert_eq!(
                got.at(&[i, j]).to_bits(),
                acc.to_bits(),
                "element ({i}, {j}) rounded differently"
            );
        }
    }
    par::set_num_threads(restore);
}
