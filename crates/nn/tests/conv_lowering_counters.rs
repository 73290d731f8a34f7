//! `Conv2d::forward`'s lowering counters: one `nn.conv.lowering.*` record
//! per call, named after the lowering that ran, and nothing while tracing
//! is off. Tracing is process-global, so this binary holds a single test.

use eos_nn::{Conv2d, Layer};
use eos_tensor::{normal, Conv2dGeometry, Rng64};

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
    for conv in [&mut wide, &mut square, &mut narrow] {
        let one = normal(&[1, conv.in_len()], 0.0, 1.0, &mut rng);
        conv.forward(&one, false);
    }
    eos_trace::set_enabled(false);
    narrow.forward(&xn, true);
    square.forward(&xs, false);

    let snap = eos_trace::snapshot();
    // Single images take the batch-wide lowering even on the direct
    // kernel's wide planes.
    assert_eq!(snap.counter("nn.conv.lowering.direct"), 1);
    assert_eq!(snap.counter("nn.conv.lowering.batched_gemm"), 7);
}
