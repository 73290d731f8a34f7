//! Microbenchmarks of the substrate layers: GEMM, im2col, k-NN queries,
//! the generalization-gap computation, and t-SNE iterations.
//!
//! Plain `fn main()` timing (harness = false): the offline build has no
//! criterion, so timing goes through `eos_bench::timing`.

use eos_bench::bench;
use eos_core::generalization_gap;
use eos_neighbors::{BruteForceKnn, KdTree, Metric, NnIndex};
use eos_tensor::{col2im_into, im2col, im2col_into, normal, Conv2dGeometry, Rng64};
use eos_tsne::{tsne, TsneConfig};

fn bench_matmul() {
    let mut rng = Rng64::new(0);
    for n in [32usize, 64, 128] {
        let a = normal(&[n, n], 0.0, 1.0, &mut rng);
        let b = normal(&[n, n], 0.0, 1.0, &mut rng);
        bench(&format!("tensor/matmul/{n}"), 30, || a.matmul(&b));
    }
}

fn bench_im2col() {
    let mut rng = Rng64::new(1);
    let geom = Conv2dGeometry {
        in_channels: 16,
        height: 8,
        width: 8,
        kernel: 3,
        stride: 1,
        pad: 1,
    };
    let img = normal(&[16 * 64], 0.0, 1.0, &mut rng);
    bench("tensor/im2col-16x8x8-k3", 50, || im2col(img.data(), &geom));

    // The `block1` training geometry (8 channels, 8×8, k3 pad 1) over a
    // batch of 32 into reused buffers, as a training conv pass runs its
    // unfold (forward) and fold (backward).
    let (batch, geom) = (
        32usize,
        Conv2dGeometry {
            in_channels: 8,
            ..geom
        },
    );
    let (in_len, cols_len) = (8 * 64, geom.patch_count() * geom.patch_len());
    let x = normal(&[batch * in_len], 0.0, 1.0, &mut rng);
    let mut cols = vec![0.0f32; batch * cols_len];
    bench("tensor/im2col_into-b32-8x8x8-k3", 200, || {
        for (img, c) in x
            .data()
            .chunks_exact(in_len)
            .zip(cols.chunks_exact_mut(cols_len))
        {
            im2col_into(img, &geom, c);
        }
    });
    let mut dx = vec![0.0f32; batch * in_len];
    bench("tensor/col2im_into-b32-8x8x8-k3", 200, || {
        for (c, img) in cols.chunks_exact(cols_len).zip(dx.chunks_exact_mut(in_len)) {
            col2im_into(c, &geom, img);
        }
    });
}

fn bench_knn() {
    let mut rng = Rng64::new(2);
    // High-dimensional (embedding-like) and low-dimensional workloads.
    for (name, d) in [("d64", 64usize), ("d4", 4)] {
        let data = normal(&[1000, d], 0.0, 1.0, &mut rng);
        let q: Vec<f32> = (0..d).map(|_| rng.normal_f32(0.0, 1.0)).collect();
        let brute = BruteForceKnn::new(&data, Metric::Euclidean);
        let tree = KdTree::new(&data, Metric::Euclidean);
        bench(&format!("neighbors/query-k10/brute/{name}"), 30, || {
            brute.query(&q, 10)
        });
        bench(&format!("neighbors/query-k10/kdtree/{name}"), 30, || {
            tree.query(&q, 10)
        });
    }
    // A whole-set enemy table: 889 self-excluded row queries over a
    // 1489×192 set, the shape of pixel-space EOS on the CIFAR-10 analogue.
    let data = normal(&[1489, 192], 0.0, 1.0, &mut rng);
    let brute = BruteForceKnn::new(&data, Metric::Euclidean);
    let rows: Vec<usize> = (0..889).collect();
    bench("neighbors/query_rows_batch-k10/brute/d192", 10, || {
        brute.query_rows_batch(&rows, 10)
    });
}

fn bench_gap() {
    let mut rng = Rng64::new(3);
    let train = normal(&[2000, 64], 0.0, 1.0, &mut rng);
    let test = normal(&[1000, 64], 0.0, 1.0, &mut rng);
    let train_y: Vec<usize> = (0..2000).map(|i| i % 10).collect();
    let test_y: Vec<usize> = (0..1000).map(|i| i % 10).collect();
    bench("core/generalization-gap-2k-train", 10, || {
        generalization_gap(&train, &train_y, &test, &test_y, 10)
    });
}

fn bench_tsne() {
    let mut rng = Rng64::new(4);
    let x = normal(&[100, 32], 0.0, 1.0, &mut rng);
    let cfg = TsneConfig {
        iterations: 50,
        ..TsneConfig::default()
    };
    bench("tsne/100pts-50iters", 10, || {
        tsne(&x, &cfg, &mut Rng64::new(0))
    });
}

fn main() {
    bench_matmul();
    bench_im2col();
    bench_knn();
    bench_gap();
    bench_tsne();
}
