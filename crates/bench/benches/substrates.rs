//! Microbenchmarks of the substrate layers: GEMM, the convolution
//! lowering, training batch norm, k-NN queries, the generalization-gap
//! computation, and t-SNE iterations.
//!
//! Plain `fn main()` timing (harness = false): the offline build has no
//! criterion, so timing goes through `eos_bench::timing`.

use eos_bench::{bench, prepared_dataset};
use eos_core::{generalization_gap, Scale};
use eos_neighbors::{BruteForceKnn, Metric};
use eos_nn::{BatchNorm2d, Layer};
use eos_resample::{deficient_class_neighbors, deficits, indices_by_class};
use eos_tensor::{
    conv_input_grad_into, gemm_patches_nt_into, gemm_patches_segmented_acc_into, normal,
    pad_images_into, Conv2dGeometry, Rng64,
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
    // weight gradient. The input gradient has rows of its own below.
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
    // block3's 2×2 planes: the second conv pads 32 channels of every image.
    let geom2 = Conv2dGeometry {
        in_channels: 32,
        height: 2,
        width: 2,
        ..geom
    };
    let x2 = normal(&[batch * geom2.image_len()], 0.0, 1.0, &mut rng);
    let mut padded2 = Vec::new();
    bench("tensor/pad_images_into-b32-32x2x2-k3", 200, || {
        pad_images_into(x2.data(), &geom2, &mut padded2)
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
}

fn bench_conv_input_grad() {
    // The input gradient of every convolution of the ResNet 1×8 on 3×8×8
    // images at batch 32 but the stem's, which no training pass computes:
    // (C, H = W, O, kernel, stride), pad 1 for 3×3 and 0 for the 1×1
    // projection shortcuts.
    let mut rng = Rng64::new(6);
    let batch = 32usize;
    for (c, hw, o, k, s) in [
        (8usize, 8usize, 8usize, 3usize, 1usize),
        (8, 8, 16, 3, 2),
        (8, 8, 16, 1, 2),
        (16, 4, 16, 3, 1),
        (16, 4, 32, 3, 2),
        (16, 4, 32, 1, 2),
        (32, 2, 32, 3, 1),
    ] {
        let geom = Conv2dGeometry {
            in_channels: c,
            height: hw,
            width: hw,
            kernel: k,
            stride: s,
            pad: k / 2,
        };
        let w = normal(&[o * geom.patch_len()], 0.0, 1.0, &mut rng);
        let g = normal(&[batch * o * geom.patch_count()], 0.0, 1.0, &mut rng);
        let mut dx = vec![0.0f32; batch * geom.image_len()];
        bench(
            &format!("tensor/conv_input_grad_into-b32-{c}x{hw}x{hw}-k{k}s{s}-o{o}"),
            200,
            || conv_input_grad_into(g.data(), w.data(), &geom, &mut dx),
        );
    }
}

fn bench_batchnorm() {
    // The three `BatchNorm2d` shapes of the ResNet 1×8 on 3×8×8 images at
    // batch 32: one training forward and its backward per run.
    let mut rng = Rng64::new(5);
    for (c, s) in [(8usize, 64usize), (16, 16), (32, 4)] {
        let x = normal(&[32, c * s], 0.2, 1.3, &mut rng);
        let g = normal(&[32, c * s], 0.0, 1.0, &mut rng);
        let mut bn = BatchNorm2d::new(c, s);
        bench(
            &format!("nn/batchnorm2d-train-fwd+bwd-b32-c{c}xs{s}"),
            200,
            || {
                let y = bn.forward(&x, true);
                (y, bn.backward(&g))
            },
        );
    }
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
    // EOS's enemy tables on the CIFAR-10 analogue itself, whose rows are
    // ordered by class: every minority query's neighbours come after the
    // majority class's rows in the scan. One call per deficient class, as
    // EOS once ran them, and the one call over every deficient class that
    // EOS runs now.
    let (train, _) = prepared_dataset("cifar10", Scale::Small, 7);
    let brute = BruteForceKnn::new(&train.x, Metric::Euclidean);
    let idx = indices_by_class(&train.y, train.num_classes);
    let needs = deficits(&train.y, train.num_classes);
    for k in [5usize, 10] {
        bench(
            &format!("neighbors/enemy-tables-k{k}/brute/cifar10"),
            10,
            || {
                (0..train.num_classes)
                    .filter(|&c| needs[c] > 0)
                    .map(|c| brute.query_rows_batch(&idx[c], k))
                    .collect::<Vec<_>>()
            },
        );
        bench(
            &format!("neighbors/enemy-tables-merged-k{k}/brute/cifar10"),
            10,
            || deficient_class_neighbors(&brute, &idx, &needs, k),
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
    bench_conv_input_grad();
    bench_batchnorm();
    bench_knn();
    bench_gap();
    bench_tsne();
}
