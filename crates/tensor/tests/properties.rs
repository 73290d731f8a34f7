//! Property-style tests for the tensor algebra, driven by deterministic
//! seeded-RNG loops (the build environment is offline, so no proptest).

use eos_tensor::{central_difference, im2col_into, rel_error, Conv2dGeometry, Rng64, Tensor};

const CASES: u64 = 64;

fn random_matrix(max_dim: usize, rng: &mut Rng64) -> Tensor {
    let r = 1 + rng.below(max_dim);
    let c = 1 + rng.below(max_dim);
    let v: Vec<f32> = (0..r * c).map(|_| rng.range_f32(-10.0, 10.0)).collect();
    Tensor::from_vec(v, &[r, c])
}

fn random_pair_same_shape(max_dim: usize, rng: &mut Rng64) -> (Tensor, Tensor) {
    let a = random_matrix(max_dim, rng);
    let b = Tensor::from_vec(
        (0..a.len()).map(|_| rng.range_f32(-10.0, 10.0)).collect(),
        a.dims(),
    );
    (a, b)
}

#[test]
fn add_commutes() {
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed);
        let (a, b) = random_pair_same_shape(6, &mut rng);
        assert_eq!(a.add(&b).data(), b.add(&a).data());
    }
}

#[test]
fn sub_then_add_roundtrips() {
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed);
        let (a, b) = random_pair_same_shape(6, &mut rng);
        let back = a.sub(&b).add(&b);
        for (x, y) in back.data().iter().zip(a.data()) {
            assert!((x - y).abs() < 1e-4);
        }
    }
}

#[test]
fn transpose_is_involution() {
    for seed in 0..CASES {
        let m = random_matrix(8, &mut Rng64::new(seed));
        assert_eq!(m.transpose().transpose().data(), m.data());
    }
}

#[test]
fn matmul_identity_right() {
    for seed in 0..CASES {
        let m = random_matrix(8, &mut Rng64::new(seed));
        let out = m.matmul(&Tensor::eye(m.dim(1)));
        for (x, y) in out.data().iter().zip(m.data()) {
            assert!((x - y).abs() < 1e-4);
        }
    }
}

#[test]
fn matmul_transpose_identity() {
    // (A B)^T == B^T A^T
    for seed in 0..CASES {
        let m = random_matrix(6, &mut Rng64::new(seed));
        let b = Tensor::eye(m.dim(1)).scale(2.0);
        let lhs = m.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&m.transpose());
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            assert!((x - y).abs() < 1e-3);
        }
    }
}

#[test]
fn softmax_rows_are_distributions() {
    for seed in 0..CASES {
        let m = random_matrix(6, &mut Rng64::new(seed));
        let s = m.softmax_rows();
        for i in 0..s.dim(0) {
            let sum: f32 = s.row_slice(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(s.row_slice(i).iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }
}

#[test]
fn min_max_rows_bound_every_element() {
    for seed in 0..CASES {
        let m = random_matrix(8, &mut Rng64::new(seed));
        let lo = m.min_rows();
        let hi = m.max_rows();
        for i in 0..m.dim(0) {
            for (j, &x) in m.row_slice(i).iter().enumerate() {
                assert!(lo.data()[j] <= x && x <= hi.data()[j]);
            }
        }
    }
}

#[test]
fn select_rows_preserves_content() {
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed);
        let m = random_matrix(8, &mut rng);
        let idx: Vec<usize> = (0..m.dim(0)).map(|_| rng.below(m.dim(0))).collect();
        let sel = m.select_rows(&idx);
        for (out_row, &src) in idx.iter().enumerate() {
            assert_eq!(sel.row_slice(out_row), m.row_slice(src));
        }
    }
}

#[test]
fn im2col_patch_values_come_from_image() {
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed);
        let h = 3 + rng.below(4);
        let w = 3 + rng.below(4);
        let k = 1 + rng.below(3.min(h.min(w)));
        let s = 1 + rng.below(2);
        let geom = Conv2dGeometry {
            in_channels: 1,
            height: h,
            width: w,
            kernel: k,
            stride: s,
            pad: 0,
        };
        let img: Vec<f32> = (0..h * w).map(|i| i as f32 + 1.0).collect();
        let mut cols = vec![f32::NAN; geom.patch_count() * geom.patch_len()];
        im2col_into(&img, &geom, &mut cols);
        // With no padding every patch element is a real pixel (> 0 here).
        assert!(cols.iter().all(|&x| x >= 1.0));
        // And the top-left patch starts at pixel (0,0).
        assert_eq!(cols[0], 1.0);
    }
}

#[test]
fn gradcheck_quadratic_any_point() {
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed);
        let n = 1 + rng.below(5);
        let v: Vec<f32> = (0..n).map(|_| rng.range_f32(-3.0, 3.0)).collect();
        let x = Tensor::from_vec(v, &[n]);
        let g = central_difference(&x, 1e-3, |p| p.data().iter().map(|a| a * a).sum());
        assert!(rel_error(&x.scale(2.0), &g) < 5e-3);
    }
}
