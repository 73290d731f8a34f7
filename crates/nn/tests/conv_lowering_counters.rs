//! `Conv2d`'s lowering counters: one `nn.conv.lowering.*` record per
//! forward and one `nn.conv.input_grad.*` record per input gradient, named
//! after the lowering or instruction tier that ran, and nothing while
//! tracing is off. Tracing is process-global, so this binary holds a
//! single test.

use eos_nn::{Conv2d, Layer};
use eos_tensor::{avx512_kernel_enabled, normal, wide_kernel_enabled, Conv2dGeometry, Rng64};

fn conv(height: usize, width: usize, stride: usize) -> Conv2d {
    let geom = Conv2dGeometry {
        in_channels: 2,
        height,
        width,
        kernel: 3,
        stride,
        pad: 1,
    };
    Conv2d::new(geom, 4, false, &mut Rng64::new(3))
}

#[test]
fn every_forward_counts_its_lowering_once() {
    let mut rng = Rng64::new(4);
    // 16×2 output rows of 16: the direct lowering's shape when batched.
    let mut wide = conv(2, 16, 1);
    // 4×4 = 16 positions, too narrow for the direct kernel: batch-wide.
    let mut square = conv(4, 4, 1);
    // 2×2 = 4 positions, short of a GEMM panel: batch-wide.
    let mut narrow = conv(4, 4, 2);
    let xw = normal(&[3, wide.in_len()], 0.0, 1.0, &mut rng);
    let xs = normal(&[3, square.in_len()], 0.0, 1.0, &mut rng);
    let xn = normal(&[3, narrow.in_len()], 0.0, 1.0, &mut rng);

    let untraced = narrow.forward(&xn, false);
    eos_trace::reset();
    eos_trace::set_enabled(true);
    wide.forward(&xw, false);
    square.forward(&xs, false);
    assert_eq!(narrow.forward(&xn, false).data(), untraced.data());
    narrow.forward(&xn, true);
    wide.forward(&xw, true);
    // Two input gradients while tracing; a third below, after it is off.
    let gn = normal(&[3, narrow.out_len()], 0.0, 1.0, &mut rng);
    let gw = normal(&[3, wide.out_len()], 0.0, 1.0, &mut rng);
    narrow.backward(&gn);
    wide.backward(&gw);
    for conv in [&mut wide, &mut square, &mut narrow] {
        let one = normal(&[1, conv.in_len()], 0.0, 1.0, &mut rng);
        conv.forward(&one, false);
    }
    eos_trace::set_enabled(false);
    narrow.forward(&xn, true);
    narrow.backward(&gn);
    square.forward(&xs, false);

    let snap = eos_trace::snapshot();
    // Single images take the batch-wide lowering even on the direct
    // kernel's wide planes.
    assert_eq!(snap.counter("nn.conv.lowering.direct"), 1);
    assert_eq!(snap.counter("nn.conv.lowering.batched_gemm"), 7);
    let tier = if avx512_kernel_enabled() {
        "avx512"
    } else if wide_kernel_enabled() {
        "avx2"
    } else {
        "scalar"
    };
    for t in ["avx512", "avx2", "scalar"] {
        let want = if t == tier { 2 } else { 0 };
        assert_eq!(
            snap.counter(&format!("nn.conv.input_grad.{t}")),
            want,
            "{t}"
        );
    }
}
