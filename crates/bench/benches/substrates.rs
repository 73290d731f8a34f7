//! Microbenchmarks of the substrate layers: GEMM, the convolution
//! lowering, k-NN queries, the generalization-gap computation, and t-SNE
//! iterations.
//!
//! Plain `fn main()` timing (harness = false): the offline build has no
//! criterion, so timing goes through `eos_bench::timing`.

use eos_bench::{bench, prepared_dataset};
use eos_core::{generalization_gap, Scale};
use eos_neighbors::{BruteForceKnn, Metric};
use eos_tensor::{
    col2im_into, gemm_patches_nt_into, gemm_patches_segmented_acc_into, normal, pad_images_into,
    Conv2dGeometry, Rng64,
};
use eos_tsne::{tsne, TsneConfig};

fn bench_matmul() {
    let mut rng = Rng64::new(0);
    for n in [32usize, 64, 128] {
        let a = normal(&[n, n], 0.0, 1.0, &mut rng);
        let b = normal(&[n, n], 0.0, 1.0, &mut rng);
        bench(&format!("tensor/matmul/{n}"), 30, || a.matmul(&b));
    }
}

fn bench_conv_lowering() {
    // The `block1` training geometry (8 → 8 channels, 8×8, k3 pad 1) over
    // a batch of 32 into reused buffers, as a training conv pass runs it:
    // the forward pads the batch and packs its GEMM's patch tiles straight
    // from the padded planes, and the backward re-packs them for the
    // weight gradient and folds the input gradient back image by image.
    let mut rng = Rng64::new(1);
    let (batch, out_channels) = (32usize, 8usize);
    let geom = Conv2dGeometry {
        in_channels: 8,
        height: 8,
        width: 8,
        kernel: 3,
        stride: 1,
        pad: 1,
    };
    let (in_len, plen, osp) = (geom.image_len(), geom.patch_len(), geom.patch_count());
    let x = normal(&[batch * in_len], 0.0, 1.0, &mut rng);
    let w = normal(&[out_channels * plen], 0.0, 1.0, &mut rng);
    let g = normal(&[batch * out_channels * osp], 0.0, 1.0, &mut rng);
    let mut padded = Vec::new();
    bench("tensor/pad_images_into-b32-8x8x8-k3", 200, || {
        pad_images_into(x.data(), &geom, &mut padded)
    });
    let mut out = vec![0.0f32; batch * out_channels * osp];
    bench("tensor/gemm_patches_nt_into-b32-8x8x8-k3-o8", 200, || {
        gemm_patches_nt_into(&padded, &geom, w.data(), &mut out)
    });
    let mut dw = vec![0.0f32; out_channels * plen];
    bench(
        "tensor/gemm_patches_segmented_acc_into-b32-8x8x8-k3-o8",
        200,
        || gemm_patches_segmented_acc_into(g.data(), &padded, &geom, &mut dw),
    );
    let cols = normal(&[batch * osp * plen], 0.0, 1.0, &mut rng);
    let mut dx = vec![0.0f32; batch * in_len];
    bench("tensor/col2im_into-b32-8x8x8-k3", 200, || {
        for (c, img) in cols
            .data()
            .chunks_exact(osp * plen)
            .zip(dx.chunks_exact_mut(in_len))
        {
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
        bench(&format!("neighbors/query-k10/brute/{name}"), 30, || {
            brute.query(&q, 10)
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
    // EOS's per-class enemy tables on the CIFAR-10 analogue itself, whose
    // rows are ordered by class: every minority query's neighbours come
    // after the majority class's rows in the scan.
    let (train, _) = prepared_dataset("cifar10", Scale::Small, 7);
    let brute = BruteForceKnn::new(&train.x, Metric::Euclidean);
    let mut by_class = vec![Vec::new(); train.num_classes];
    for (row, &c) in train.y.iter().enumerate() {
        by_class[c].push(row);
    }
    let majority = (0..train.num_classes).max_by_key(|&c| by_class[c].len());
    for k in [5usize, 10] {
        bench(
            &format!("neighbors/enemy-tables-k{k}/brute/cifar10"),
            10,
            || {
                (0..train.num_classes)
                    .filter(|&c| Some(c) != majority)
                    .map(|c| brute.query_rows_batch(&by_class[c], k))
                    .collect::<Vec<_>>()
            },
        );
    }
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
    bench_conv_lowering();
    bench_knn();
    bench_gap();
    bench_tsne();
}
