//! Bit-identity of the packed register-blocked GEMM kernels against the
//! seed scalar reference, across odd shapes and thread counts.
//!
//! The packed micro-kernel accumulates every output element over the
//! reduction index in ascending order with a single carried accumulator —
//! exactly the seed kernels' order — so the results must match the plain
//! scalar dot products bit for bit, at every thread count.

use eos_tensor::{par, Tensor};
use std::sync::Mutex;

/// Serialises tests that mutate the global thread count.
static LOCK: Mutex<()> = Mutex::new(());

const SIZES: [usize; 6] = [1, 3, 7, 17, 64, 65];
const THREADS: [usize; 4] = [1, 2, 4, 8];

fn seq(dims: &[usize], phase: f32) -> Tensor {
    let n: usize = dims.iter().product();
    Tensor::from_vec(
        (0..n).map(|i| (i as f32 * 0.37 + phase).sin()).collect(),
        dims,
    )
}

/// The seed scalar reference: one accumulator per output element, reduction
/// index ascending.
fn reference_dot(
    a_at: impl Fn(usize, usize) -> f32,
    b_at: impl Fn(usize, usize) -> f32,
    m: usize,
    k: usize,
    n: usize,
) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a_at(i, p) * b_at(p, j);
            }
            out[i * n + j] = acc;
        }
    }
    out
}

fn assert_bits(got: &Tensor, want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len());
    for (idx, (x, y)) in got.data().iter().zip(want).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: element {idx} diverged ({x} vs {y})"
        );
    }
}

fn for_each_shape_and_thread_count(f: impl Fn(usize, usize, usize)) {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let initial = par::num_threads();
    for &t in &THREADS {
        par::set_num_threads(t);
        for &m in &SIZES {
            for &k in &SIZES {
                for &n in &SIZES {
                    f(m, k, n);
                }
            }
        }
    }
    par::set_num_threads(initial);
}

#[test]
fn matmul_is_bit_identical_to_seed_reference() {
    for_each_shape_and_thread_count(|m, k, n| {
        let a = seq(&[m, k], 0.1);
        let b = seq(&[k, n], 0.9);
        let want = reference_dot(
            |i, p| a.data()[i * k + p],
            |p, j| b.data()[p * n + j],
            m,
            k,
            n,
        );
        assert_bits(&a.matmul(&b), &want, "matmul");
    });
}

#[test]
fn matmul_nt_is_bit_identical_to_seed_reference() {
    for_each_shape_and_thread_count(|m, k, n| {
        let a = seq(&[m, k], 0.2);
        let b = seq(&[n, k], 0.7);
        let want = reference_dot(
            |i, p| a.data()[i * k + p],
            |p, j| b.data()[j * k + p],
            m,
            k,
            n,
        );
        assert_bits(&a.matmul_nt(&b), &want, "matmul_nt");
    });
}

#[test]
fn matmul_tn_is_bit_identical_to_seed_reference() {
    // out (k×n) = aᵀ · b with a stored m×k: the reduction runs over m.
    for_each_shape_and_thread_count(|m, k, n| {
        let a = seq(&[m, k], 0.4);
        let b = seq(&[m, n], 0.3);
        let want = reference_dot(
            |r, i| a.data()[i * k + r],
            |i, j| b.data()[i * n + j],
            k,
            m,
            n,
        );
        assert_bits(&a.matmul_tn(&b), &want, "matmul_tn");
    });
}
