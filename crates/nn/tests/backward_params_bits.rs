//! `Layer::backward_params` against `Layer::backward`: a parameter-only
//! backward must leave every `Param::grad` bit-identical to the full one.
//!
//! Each case builds two copies of a layer from one seed, runs the same
//! two training passes through both (forward, then `backward` on one and
//! `backward_params` on the other, no `zero_grad` between the passes, so
//! the accumulation is covered too) and compares every gradient bit. The
//! cases are `Conv2d` over kernel 1 and 3, stride 1 and 2, pad 0 and 1,
//! with and without bias, at seeded channel counts, sizes and batches;
//! `Linear` with and without bias; and the ResNet, WideResNet and
//! DenseNet builders as bare `Sequential`s and as `ConvNet`s, whose
//! inherent `backward` is the parameter-only one. The sweep runs at 1 and
//! 4 threads and with the portable kernels forced.

use eos_nn::{
    densenet_lite, resnet_cifar, wide_resnet, Architecture, Conv2d, ConvNet, Layer, Linear,
    Sequential,
};
use eos_tensor::{normal, par, set_force_scalar_kernel, Conv2dGeometry, Rng64};
use std::sync::Mutex;

/// The thread budget and the kernel toggle are process-global; every test
/// in this binary that touches them must hold this lock.
static LOCK: Mutex<()> = Mutex::new(());

fn grad_bits(layer: &mut dyn Layer) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    layer.visit_params(&mut |p| out.push(p.grad.data().iter().map(|v| v.to_bits()).collect()));
    out
}

/// Two passes through `full` (`backward`) and `part` (`backward_params`),
/// built identically, on seeded `(n, in_len)` inputs; asserts equal
/// forward bits and equal gradient bits after each pass.
fn check_pair(label: &str, full: &mut dyn Layer, part: &mut dyn Layer, n: usize, in_len: usize) {
    let mut rng = Rng64::new(0xbac + n as u64 + in_len as u64);
    for pass in 0..2 {
        let x = normal(&[n, in_len], 0.0, 1.0, &mut rng);
        let y = full.forward(&x, true);
        let y_part = part.forward(&x, true);
        assert_eq!(y.data(), y_part.data(), "{label}: forward, pass {pass}");
        let gy = normal(y.dims(), 0.0, 1.0, &mut rng);
        let dx = full.backward(&gy);
        assert_eq!(dx.dims(), x.dims(), "{label}: dx shape");
        part.backward_params(&gy);
        let (want, got) = (grad_bits(full), grad_bits(part));
        assert!(!want.is_empty(), "{label}: no parameters");
        assert_eq!(got, want, "{label}: parameter gradients, pass {pass}");
    }
}

fn geom(c: usize, h: usize, w: usize, k: usize, s: usize, p: usize) -> Conv2dGeometry {
    Conv2dGeometry {
        in_channels: c,
        height: h,
        width: w,
        kernel: k,
        stride: s,
        pad: p,
    }
}

fn conv_cases(rng: &mut Rng64) {
    for k in [1, 3] {
        for s in [1, 2] {
            for p in [0, 1] {
                for bias in [false, true] {
                    let (c, oc) = (1 + rng.below(6), 1 + rng.below(9));
                    let (h, w) = (k.max(2) + rng.below(6), k.max(2) + rng.below(6));
                    let n = 1 + rng.below(4);
                    let g = geom(c, h, w, k, s, p);
                    let seed = rng.next_u64();
                    let make = || Conv2d::new(g, oc, bias, &mut Rng64::new(seed));
                    let (mut full, mut part) = (make(), make());
                    let label = format!("conv {g:?} oc={oc} bias={bias} n={n}");
                    check_pair(&label, &mut full, &mut part, n, g.image_len());
                }
            }
        }
    }
}

fn linear_cases(rng: &mut Rng64) {
    for bias in [false, true] {
        let (i, o, n) = (1 + rng.below(40), 1 + rng.below(12), 1 + rng.below(9));
        let seed = rng.next_u64();
        let make = || Linear::new(i, o, bias, &mut Rng64::new(seed));
        let (mut full, mut part) = (make(), make());
        let label = format!("linear {i}->{o} bias={bias}");
        check_pair(&label, &mut full, &mut part, n, i);
    }
}

type Builder = fn((usize, usize, usize), &mut Rng64) -> (Sequential, usize);

fn sequential_cases(rng: &mut Rng64) {
    let builders: [(&str, Builder); 3] = [
        ("resnet", |s, r| resnet_cifar(s, 1, 4, r)),
        ("wide_resnet", |s, r| wide_resnet(s, 1, r)),
        ("densenet", |s, r| densenet_lite(s, 4, 2, r)),
    ];
    for (name, build) in builders {
        let seed = rng.next_u64();
        let shape = (3, 8, 8);
        let (mut full, _) = build(shape, &mut Rng64::new(seed));
        let (mut part, _) = build(shape, &mut Rng64::new(seed));
        check_pair(name, &mut full, &mut part, 2 + rng.below(3), 3 * 64);
    }
}

fn convnet_cases(rng: &mut Rng64) {
    for arch in [
        Architecture::ResNet {
            blocks_per_stage: 1,
            width: 4,
        },
        Architecture::WideResNet { k: 1 },
        Architecture::DenseNet {
            growth: 4,
            layers_per_block: 2,
        },
    ] {
        let seed = rng.next_u64();
        let make = || ConvNet::new(arch, (3, 8, 8), 3, &mut Rng64::new(seed));
        let (mut full, mut part) = (make(), make());
        let n = 2 + rng.below(3);
        check_pair(arch.name(), &mut full, &mut part, n, 3 * 64);
        // The inherent `ConvNet::backward` is the parameter-only pass.
        let mut inherent = make();
        let mut data = Rng64::new(0xbac + n as u64 + 3 * 64);
        for _ in 0..2 {
            let x = normal(&[n, 3 * 64], 0.0, 1.0, &mut data);
            let y = inherent.forward(&x, true);
            inherent.backward(&normal(y.dims(), 0.0, 1.0, &mut data));
        }
        assert_eq!(
            grad_bits(&mut inherent),
            grad_bits(&mut full),
            "{}: inherent backward",
            arch.name()
        );
    }
}

fn sweep(threads: usize, force_scalar: bool) {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let restore = par::num_threads();
    par::set_num_threads(threads);
    set_force_scalar_kernel(force_scalar);
    let mut rng = Rng64::new(0x9a7a);
    conv_cases(&mut rng);
    linear_cases(&mut rng);
    sequential_cases(&mut rng);
    convnet_cases(&mut rng);
    set_force_scalar_kernel(false);
    par::set_num_threads(restore);
}

#[test]
fn backward_params_matches_backward_serial() {
    sweep(1, false);
}

#[test]
fn backward_params_matches_backward_four_threads() {
    sweep(4, false);
}

#[test]
fn backward_params_matches_backward_portable_kernels() {
    sweep(1, true);
}
